#pragma once
// Wire protocol for the TCP serving front-end: length-prefixed binary frames.
//
// Every frame on the socket is a u32 little-endian payload length followed by
// that many payload bytes. The payload's first byte is the frame type:
//
//   submit (type 1):  u8 type | u64 id | u64 client_id
//                     | u32 C | u32 H | u32 W | C*H*W f32 row-major pixels
//   reply  (type 2):  u8 type | u64 id | u8 status | u64 model_version
//                     | i64 argmax | i64 queue_ns | i64 compute_ns
//                     | i64 batch_size | u8 trigger | u8 sampled
//                     | f32 suspicion | u64 score_epoch | u8 cached
//                     | u32 retry_after_ms
//                     | u32 num_logits | num_logits f32 logits
//
// `client_id` names the principal for per-client admission fairness (token
// buckets, in-flight caps) — connections sharing a client id share one
// budget. `cached` marks replies served from the duplicate-request reply
// cache (logits still bit-identical to a recompute). `retry_after_ms`
// accompanies WireStatus::kBusyRetryAfter: the server's computed back-off
// hint, which Client's honor-retry-after mode sleeps on before resending.
//
// All integers and floats are little-endian; floats cross the wire as raw
// IEEE-754 bits, so the bit-identity contract (memcmp-identical logits) holds
// end to end through the socket. The `id` is a client-chosen correlation
// token echoed verbatim in the reply — the front-end pipelines many requests
// per connection and replies in submission order, but clients should still
// match on id rather than assume ordering across connections.
//
// Robustness rules (the cups/nfs-ganesha school: a hostile or buggy peer must
// not take the server down):
//  * A length prefix larger than kMaxFrameBytes is a protocol violation —
//    the reader treats it as EOF and the connection is dropped (no attempt
//    to allocate or resynchronize a corrupt stream).
//  * A truncated or malformed payload makes decode_* throw
//    std::runtime_error; the front-end turns that into connection teardown,
//    while a well-framed but semantically bad submit (shape the model cannot
//    take) gets a reply with WireStatus::kBadRequest instead.

#include <cstdint>
#include <vector>

#include "serve/reply.hpp"
#include "tensor/tensor.hpp"

namespace ibrar::serve::net {

/// Hard cap on one frame's payload (length prefix excluded). Generous for
/// image tensors (16 MiB ~ a 2048x2048x1 float image) yet small enough that
/// a corrupt length prefix cannot trigger a giant allocation.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 24;

inline constexpr std::uint8_t kFrameSubmit = 1;
inline constexpr std::uint8_t kFrameReply = 2;

/// Reply status on the wire: one value per ReplyStatus, plus kBadRequest
/// for requests the front-end refused before they reached the queue (e.g. a
/// shape the published model cannot take — Server::submit throws for those,
/// and the front-end answers instead of dying). Value 1 is unassigned, and
/// decode_reply refuses it; the numbering is the protocol, so it keeps gaps.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kRejectedShutdown = 2,
  kRejectedStaleShape = 3,
  kBadRequest = 4,
  kBusyRetryAfter = 5,  ///< overloaded/throttled; see ReplyFrame::retry_after_ms
};

WireStatus to_wire(ReplyStatus s);

/// One decoded submit frame: client correlation id, the client's admission
/// identity, and the (C, H, W) sample.
struct SubmitFrame {
  std::uint64_t id = 0;
  std::uint64_t client_id = 0;
  Tensor input{Shape{0}};
};

/// One decoded reply frame — Reply flattened for the wire, plus the echoed id.
struct ReplyFrame {
  std::uint64_t id = 0;
  WireStatus status = WireStatus::kOk;
  std::uint64_t model_version = 0;
  std::int64_t argmax = -1;
  std::int64_t queue_ns = 0;
  std::int64_t compute_ns = 0;
  std::int64_t batch_size = 0;
  std::uint8_t trigger = 0;       ///< BatchTrigger as u8
  bool sampled = false;           ///< telemetry.sampled
  float suspicion = -1.0f;        ///< telemetry.suspicion
  std::uint64_t score_epoch = 0;  ///< telemetry.score_epoch
  bool cached = false;            ///< served from the reply cache
  std::uint32_t retry_after_ms = 0;  ///< back-off hint with kBusyRetryAfter
  std::vector<float> logits;

  bool ok() const { return status == WireStatus::kOk; }
};

/// Build a reply frame from a server Reply (echoing `id`).
ReplyFrame make_reply_frame(std::uint64_t id, const Reply& reply);

// ---- payload encode / decode (no I/O; unit-testable in isolation) ----------

std::vector<std::uint8_t> encode_submit(const SubmitFrame& f);
std::vector<std::uint8_t> encode_reply(const ReplyFrame& f);

/// Throw std::runtime_error on a truncated, oversized, or malformed payload.
SubmitFrame decode_submit(const std::uint8_t* p, std::size_t n);
ReplyFrame decode_reply(const std::uint8_t* p, std::size_t n);

// ---- framed fd I/O ---------------------------------------------------------

/// Read one length-prefixed frame into `payload`. Returns false on clean EOF
/// before a prefix, on a peer that died mid-frame, or on a length prefix
/// violating kMaxFrameBytes — in every case the caller should drop the
/// connection; there is no resynchronizing a byte stream.
bool read_frame(int fd, std::vector<std::uint8_t>& payload);

/// Write all `n` bytes at `src` to the socket `fd`, retrying short writes
/// and EINTR. Returns false when the peer is gone (EPIPE/ECONNRESET); never
/// raises SIGPIPE.
bool write_all(int fd, const std::uint8_t* src, std::size_t n);

/// Write `payload` as one length-prefixed frame. Returns false when the peer
/// is gone (EPIPE/ECONNRESET); never raises SIGPIPE.
bool write_frame(int fd, const std::uint8_t* payload, std::size_t n);
inline bool write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  return write_frame(fd, payload.data(), payload.size());
}

}  // namespace ibrar::serve::net
