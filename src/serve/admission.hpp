#pragma once
// Admission control: per-client token-bucket fairness + retry-after hints.
//
// Reject-on-full treats every client the same and tells none of them when to
// come back. This controller upgrades the front door in the spirit of CUPS's
// server-error-busy retry protocol:
//
//   * Per-client token buckets (keyed on the wire frame's client id): each
//     client accrues cfg.client_rate tokens/sec up to a burst cap, one token
//     per admitted request. One chatty client exhausts ITS bucket and gets
//     kBusyRetryAfter while everyone else keeps flowing — fairness by
//     isolation, not by global throttling.
//   * An optional per-client in-flight cap (cfg.max_inflight_per_client),
//     released as replies resolve, bounding how much queue one client can
//     own at once.
//   * A computed retry-after hint: the server measures its service rate (an
//     EWMA over micro-batch completions) and converts the current queue
//     depth into "the backlog ahead of you drains in ~this long" — clamped
//     to [1 ms, 5 s]. Clients that honor it (net::Client's
//     honor-retry-after mode) convert overload from tail-latency chaos into
//     paced retries.
//
// The controller itself holds no obs handles: the Server records
// serve.admission.busy / serve.admission.throttled and the
// serve.admission.retry_after_ms histogram at the call sites, keeping one
// owner for counter semantics.
//
// Thread safety: all methods are safe from any thread (one small mutex; the
// admission path already serializes on the queue mutex right after).

#include <cstdint>
#include <mutex>
#include <unordered_map>

namespace ibrar::serve {

struct AdmissionConfig {
  /// Sustained per-client admission rate, requests/sec. 0 = unlimited.
  double client_rate = 0.0;
  /// Token bucket depth (burst allowance). <= 0 derives max(client_rate, 1).
  double client_burst = 0.0;
  /// Max requests one client may have in flight (admitted, not yet replied).
  /// 0 = unlimited.
  std::int64_t max_inflight_per_client = 0;
};

class AdmissionController {
 public:
  struct Decision {
    bool admit = true;
    /// When denied: suggested client back-off, ms, clamped to [1, 5000].
    std::uint32_t retry_after_ms = 0;
  };

  explicit AdmissionController(AdmissionConfig cfg);

  /// Whether any per-client policy is active. When false, try_admit always
  /// admits and release is a no-op — but note_batch/retry_after_ms still
  /// work, so queue-full busy replies carry a real hint regardless.
  bool enabled() const {
    return cfg_.client_rate > 0.0 || cfg_.max_inflight_per_client > 0;
  }

  /// Consume one token (and an in-flight slot) for `client_id`, or deny with
  /// a retry-after hint. `now_ns` is a steady-clock stamp.
  Decision try_admit(std::uint64_t client_id, std::int64_t now_ns);

  /// Release the in-flight slot taken by try_admit — call exactly once per
  /// admitted request when its reply resolves (served OR failed).
  void release(std::uint64_t client_id);

  /// Feed the service-rate EWMA: one micro-batch of `rows` completed at
  /// `now_ns`. Called by workers per batch.
  void note_batch(std::int64_t rows, std::int64_t now_ns);

  /// Backlog-drain estimate for a queue currently `queue_depth` deep, from
  /// the measured service rate (fallback before any batch completed), ms in
  /// [1, 5000].
  std::uint32_t retry_after_ms(std::size_t queue_depth) const;

  const AdmissionConfig& config() const { return cfg_; }

 private:
  struct ClientState {
    double tokens = 0.0;
    std::int64_t last_refill_ns = 0;
    std::int64_t inflight = 0;
  };

  AdmissionConfig cfg_;
  double burst_ = 0.0;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, ClientState> clients_;
  double rate_rows_per_sec_ = 0.0;  ///< EWMA; guarded by mu_
  std::int64_t last_batch_ns_ = 0;
};

}  // namespace ibrar::serve
