#include "serve/admission.hpp"

#include <algorithm>
#include <cmath>

namespace ibrar::serve {
namespace {

constexpr std::uint32_t kMinRetryMs = 1;
constexpr std::uint32_t kMaxRetryMs = 5000;
/// Hint before any service-rate measurement exists (first batches of a cold
/// server): long enough to shed a thundering herd, short enough to not
/// strand a lone client.
constexpr std::uint32_t kColdRetryMs = 50;
/// EWMA weight for the newest inter-batch rate sample.
constexpr double kRateAlpha = 0.2;

std::uint32_t clamp_ms(double ms) {
  if (!(ms > 0.0)) return kMinRetryMs;
  return static_cast<std::uint32_t>(
      std::min<double>(kMaxRetryMs, std::max<double>(kMinRetryMs, ms)));
}

}  // namespace

AdmissionController::AdmissionController(AdmissionConfig cfg) : cfg_(cfg) {
  burst_ = cfg_.client_burst > 0.0 ? cfg_.client_burst
                                   : std::max(cfg_.client_rate, 1.0);
}

AdmissionController::Decision AdmissionController::try_admit(
    std::uint64_t client_id, std::int64_t now_ns) {
  Decision d;
  if (!enabled()) return d;
  std::lock_guard<std::mutex> lk(mu_);
  auto [it, fresh] = clients_.try_emplace(client_id);
  ClientState& st = it->second;
  if (fresh) {
    st.tokens = burst_;
    st.last_refill_ns = now_ns;
  }
  if (cfg_.max_inflight_per_client > 0 &&
      st.inflight >= cfg_.max_inflight_per_client) {
    d.admit = false;
    // The client's own backlog has to drain first; one admitted-request
    // service time is the natural pacing unit.
    const double rate = rate_rows_per_sec_;
    d.retry_after_ms =
        rate > 0.0 ? clamp_ms(1000.0 * static_cast<double>(st.inflight) / rate)
                   : kColdRetryMs;
    return d;
  }
  if (cfg_.client_rate > 0.0) {
    const double dt_s =
        static_cast<double>(now_ns - st.last_refill_ns) * 1e-9;
    st.tokens = std::min(burst_, st.tokens + dt_s * cfg_.client_rate);
    st.last_refill_ns = now_ns;
    if (st.tokens < 1.0) {
      d.admit = false;
      // Time until the bucket accrues the missing fraction of a token.
      d.retry_after_ms =
          clamp_ms(1000.0 * (1.0 - st.tokens) / cfg_.client_rate);
      return d;
    }
    st.tokens -= 1.0;
  }
  st.inflight += 1;
  return d;
}

void AdmissionController::release(std::uint64_t client_id) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto it = clients_.find(client_id);
  if (it != clients_.end() && it->second.inflight > 0) {
    it->second.inflight -= 1;
  }
}

void AdmissionController::note_batch(std::int64_t rows, std::int64_t now_ns) {
  std::lock_guard<std::mutex> lk(mu_);
  if (last_batch_ns_ != 0 && now_ns > last_batch_ns_) {
    const double inst =
        static_cast<double>(rows) /
        (static_cast<double>(now_ns - last_batch_ns_) * 1e-9);
    rate_rows_per_sec_ = rate_rows_per_sec_ > 0.0
                             ? kRateAlpha * inst +
                                   (1.0 - kRateAlpha) * rate_rows_per_sec_
                             : inst;
  }
  last_batch_ns_ = now_ns;
}

std::uint32_t AdmissionController::retry_after_ms(
    std::size_t queue_depth) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (rate_rows_per_sec_ <= 0.0) return kColdRetryMs;
  // "The backlog ahead of you (plus you) drains in about this long."
  return clamp_ms(1000.0 * static_cast<double>(queue_depth + 1) /
                  rate_rows_per_sec_);
}

}  // namespace ibrar::serve
