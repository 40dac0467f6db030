#include "serve/net/wire.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <sys/socket.h>
#include <unistd.h>

namespace ibrar::serve::net {
namespace {

// Little-endian put/get via memcpy. The stack targets little-endian hosts on
// both ends (loopback or same rack); a big-endian port would add byte swaps
// here and nowhere else.
template <typename T>
void put(std::vector<std::uint8_t>& buf, T v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(T));
  std::memcpy(buf.data() + at, &v, sizeof(T));
}

/// Cursor-checked reads: every get() validates the remaining byte count, so a
/// truncated frame is always a clean throw, never an overread.
struct Cursor {
  const std::uint8_t* p;
  std::size_t left;

  template <typename T>
  T get() {
    if (left < sizeof(T)) {
      throw std::runtime_error("wire: truncated frame");
    }
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    left -= sizeof(T);
    return v;
  }

  void get_floats(float* dst, std::size_t count) {
    const std::size_t bytes = count * sizeof(float);
    if (left < bytes) {
      throw std::runtime_error("wire: truncated frame");
    }
    if (bytes != 0) std::memcpy(dst, p, bytes);  // empty dst may be null
    p += bytes;
    left -= bytes;
  }
};

bool read_exact(int fd, std::uint8_t* dst, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, dst + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;  // EOF or hard error mid-read
  }
  return true;
}

}  // namespace

bool write_all(int fd, const std::uint8_t* src, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t w = ::send(fd, src + sent, n - sent, MSG_NOSIGNAL);
    if (w > 0) {
      sent += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

WireStatus to_wire(ReplyStatus s) {
  switch (s) {
    case ReplyStatus::kOk:
      return WireStatus::kOk;
    case ReplyStatus::kRejectedShutdown:
      return WireStatus::kRejectedShutdown;
    case ReplyStatus::kRejectedStaleShape:
      return WireStatus::kRejectedStaleShape;
    case ReplyStatus::kBusyRetryAfter:
      return WireStatus::kBusyRetryAfter;
  }
  return WireStatus::kBadRequest;  // unreachable with a valid enum
}

ReplyFrame make_reply_frame(std::uint64_t id, const Reply& reply) {
  ReplyFrame f;
  f.id = id;
  f.status = to_wire(reply.status);
  f.model_version = reply.model_version;
  f.argmax = reply.argmax;
  f.queue_ns = reply.queue_ns;
  f.compute_ns = reply.compute_ns;
  f.batch_size = reply.batch_size;
  f.trigger = static_cast<std::uint8_t>(reply.trigger);
  f.sampled = reply.telemetry.sampled;
  f.suspicion = reply.telemetry.suspicion;
  f.score_epoch = reply.telemetry.score_epoch;
  f.cached = reply.cached;
  f.retry_after_ms = reply.retry_after_ms;
  // rank() > 0 is the emptiness convention: a default Tensor is a rank-0
  // scalar with numel() == 1, and a failure reply must not ship that byte
  // pattern as a one-float logit vector.
  if (reply.logits.rank() > 0 && reply.logits.numel() > 0) {
    f.logits.assign(reply.logits.data().begin(), reply.logits.data().end());
  }
  return f;
}

std::vector<std::uint8_t> encode_submit(const SubmitFrame& f) {
  if (f.input.rank() != 3) {
    throw std::invalid_argument("encode_submit: input must be (C, H, W)");
  }
  std::vector<std::uint8_t> buf;
  buf.reserve(1 + 8 + 8 + 12 +
              sizeof(float) * static_cast<std::size_t>(f.input.numel()));
  put<std::uint8_t>(buf, kFrameSubmit);
  put<std::uint64_t>(buf, f.id);
  put<std::uint64_t>(buf, f.client_id);
  for (int d = 0; d < 3; ++d) {
    put<std::uint32_t>(buf, static_cast<std::uint32_t>(f.input.dim(d)));
  }
  const std::size_t at = buf.size();
  const std::size_t bytes =
      sizeof(float) * static_cast<std::size_t>(f.input.numel());
  buf.resize(at + bytes);
  std::memcpy(buf.data() + at, f.input.data().data(), bytes);
  if (buf.size() > kMaxFrameBytes) {
    throw std::runtime_error("encode_submit: frame exceeds kMaxFrameBytes");
  }
  return buf;
}

std::vector<std::uint8_t> encode_reply(const ReplyFrame& f) {
  std::vector<std::uint8_t> buf;
  buf.reserve(64 + sizeof(float) * f.logits.size());
  put<std::uint8_t>(buf, kFrameReply);
  put<std::uint64_t>(buf, f.id);
  put<std::uint8_t>(buf, static_cast<std::uint8_t>(f.status));
  put<std::uint64_t>(buf, f.model_version);
  put<std::int64_t>(buf, f.argmax);
  put<std::int64_t>(buf, f.queue_ns);
  put<std::int64_t>(buf, f.compute_ns);
  put<std::int64_t>(buf, f.batch_size);
  put<std::uint8_t>(buf, f.trigger);
  put<std::uint8_t>(buf, f.sampled ? 1 : 0);
  put<float>(buf, f.suspicion);
  put<std::uint64_t>(buf, f.score_epoch);
  put<std::uint8_t>(buf, f.cached ? 1 : 0);
  put<std::uint32_t>(buf, f.retry_after_ms);
  put<std::uint32_t>(buf, static_cast<std::uint32_t>(f.logits.size()));
  // insert, not memcpy: a busy or failed reply's empty logits have a null
  // data(), which memcpy may not be given even for zero bytes.
  const auto* raw = reinterpret_cast<const std::uint8_t*>(f.logits.data());
  buf.insert(buf.end(), raw, raw + sizeof(float) * f.logits.size());
  if (buf.size() > kMaxFrameBytes) {
    throw std::runtime_error("encode_reply: frame exceeds kMaxFrameBytes");
  }
  return buf;
}

SubmitFrame decode_submit(const std::uint8_t* p, std::size_t n) {
  Cursor c{p, n};
  if (c.get<std::uint8_t>() != kFrameSubmit) {
    throw std::runtime_error("decode_submit: not a submit frame");
  }
  SubmitFrame f;
  f.id = c.get<std::uint64_t>();
  f.client_id = c.get<std::uint64_t>();
  Shape shape(3);
  std::int64_t numel = 1;
  for (int d = 0; d < 3; ++d) {
    const auto v = c.get<std::uint32_t>();
    if (v == 0 || v > (1u << 16)) {
      throw std::runtime_error("decode_submit: implausible dimension");
    }
    shape[static_cast<std::size_t>(d)] = static_cast<std::int64_t>(v);
    numel *= shape[static_cast<std::size_t>(d)];
  }
  if (static_cast<std::size_t>(numel) * sizeof(float) > kMaxFrameBytes) {
    throw std::runtime_error("decode_submit: tensor exceeds frame cap");
  }
  f.input = Tensor(shape);
  c.get_floats(f.input.data().data(), static_cast<std::size_t>(numel));
  if (c.left != 0) {
    throw std::runtime_error("decode_submit: trailing bytes");
  }
  return f;
}

ReplyFrame decode_reply(const std::uint8_t* p, std::size_t n) {
  Cursor c{p, n};
  if (c.get<std::uint8_t>() != kFrameReply) {
    throw std::runtime_error("decode_reply: not a reply frame");
  }
  ReplyFrame f;
  f.id = c.get<std::uint64_t>();
  const auto status = c.get<std::uint8_t>();
  if (status == 1 ||
      status > static_cast<std::uint8_t>(WireStatus::kBusyRetryAfter)) {
    throw std::runtime_error("decode_reply: unknown status");
  }
  f.status = static_cast<WireStatus>(status);
  f.model_version = c.get<std::uint64_t>();
  f.argmax = c.get<std::int64_t>();
  f.queue_ns = c.get<std::int64_t>();
  f.compute_ns = c.get<std::int64_t>();
  f.batch_size = c.get<std::int64_t>();
  f.trigger = c.get<std::uint8_t>();
  f.sampled = c.get<std::uint8_t>() != 0;
  f.suspicion = c.get<float>();
  f.score_epoch = c.get<std::uint64_t>();
  f.cached = c.get<std::uint8_t>() != 0;
  f.retry_after_ms = c.get<std::uint32_t>();
  const auto num_logits = c.get<std::uint32_t>();
  if (static_cast<std::size_t>(num_logits) * sizeof(float) > kMaxFrameBytes) {
    throw std::runtime_error("decode_reply: logits exceed frame cap");
  }
  f.logits.resize(num_logits);
  c.get_floats(f.logits.data(), num_logits);
  if (c.left != 0) {
    throw std::runtime_error("decode_reply: trailing bytes");
  }
  return f;
}

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint8_t prefix[4];
  if (!read_exact(fd, prefix, sizeof prefix)) return false;
  std::uint32_t len;
  std::memcpy(&len, prefix, sizeof len);
  if (len == 0 || len > kMaxFrameBytes) {
    // A corrupt or hostile length prefix: there is no recovering the stream,
    // and trusting it would mean a len-sized allocation. Treat as EOF.
    return false;
  }
  payload.resize(len);
  return read_exact(fd, payload.data(), len);
}

bool write_frame(int fd, const std::uint8_t* payload, std::size_t n) {
  if (n == 0 || n > kMaxFrameBytes) return false;
  const std::uint32_t len = static_cast<std::uint32_t>(n);
  std::uint8_t prefix[4];
  std::memcpy(prefix, &len, sizeof len);
  if (!write_all(fd, prefix, sizeof prefix)) return false;
  return write_all(fd, payload, n);
}

}  // namespace ibrar::serve::net
