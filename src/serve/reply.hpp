#pragma once
// Per-request serving result types, shared by the queue, batcher, and server.
//
// A Reply is everything one submitted sample gets back: its logits row (by
// the determinism contract, bit-identical to a batch-of-1 forward of the same
// input through the same model version), the argmax class, which immutable
// model version served it, timing split into queue wait vs micro-batch
// compute, and — when the request was picked by the telemetry sampler — an
// online robustness reading derived from the paper's Eq. (3) channel scores.

#include <cstdint>

#include "tensor/tensor.hpp"

namespace ibrar::serve {

enum class ReplyStatus {
  kOk = 0,
  kRejectedShutdown,    ///< server no longer accepting (draining or stopped)
  /// The request was admitted against an older model version whose input
  /// layout no longer matches the snapshot serving its batch (a hot-swap
  /// changed the expected (C, H, W) while the request sat queued).
  kRejectedStaleShape,
  /// Overloaded (queue full) or this client is over its fair share (token
  /// bucket / in-flight cap) — come back in Reply::retry_after_ms. The CUPS
  /// server-error-busy shape: the server says WHEN, not just no.
  kBusyRetryAfter,
};

/// Why the micro-batch this request rode in was released to the model.
enum class BatchTrigger {
  kSize = 0,  ///< batch reached max_batch
  kDeadline,  ///< deadline_us elapsed since the batch's first request
  kDrain,     ///< queue closed during assembly; flushed without waiting
};

/// Online robustness telemetry for one sampled request (see serve/telemetry).
struct RequestTelemetry {
  bool sampled = false;       ///< this request was picked by the Kth sampler
  /// Fraction of the last-conv activation energy carried by the currently
  /// low-scoring ("non-robust") channels, in [0, 1]; high values flag inputs
  /// leaning on channels with weak HSIC(f_c, Y) dependence — adversarially
  /// suspicious traffic. Negative until the first scoring window completes.
  float suspicion = -1.0f;
  /// Scoring-window generation the suspicion was computed against (0 = no
  /// score vector existed yet when this request was sampled).
  std::uint64_t score_epoch = 0;
};

struct Reply {
  ReplyStatus status = ReplyStatus::kOk;
  Tensor logits;                    ///< (num_classes); empty on rejection
  std::int64_t argmax = -1;         ///< predicted class; -1 on rejection
  std::uint64_t model_version = 0;  ///< registry version that served this row
  std::int64_t queue_ns = 0;        ///< admission -> micro-batch assembly
  std::int64_t compute_ns = 0;      ///< wall time of the micro-batch forward
  std::int64_t batch_size = 0;      ///< rows in the micro-batch served with
  BatchTrigger trigger = BatchTrigger::kSize;
  RequestTelemetry telemetry;
  /// Served from the duplicate-request reply cache (hit or in-flight join).
  /// Cached logits are memcmp-identical to a recompute by contract;
  /// queue_ns/compute_ns/batch_size read 0 — no compute was spent on this
  /// request.
  bool cached = false;
  /// With kBusyRetryAfter: suggested back-off before retrying, derived from
  /// queue depth / measured service rate (or the client's token deficit).
  std::uint32_t retry_after_ms = 0;

  bool ok() const { return status == ReplyStatus::kOk; }
};

}  // namespace ibrar::serve
