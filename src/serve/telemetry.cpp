#include "serve/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mi/channel_score.hpp"
#include "runtime/scratch_arena.hpp"

namespace ibrar::serve {

namespace {

// The drift detector's control band.
constexpr double kDecay = 0.8;       ///< weight kept on the old mean/var
constexpr double kBandSigma = 4.0;   ///< band half-width in baseline stddevs
constexpr double kMinBand = 0.05;    ///< absolute floor on the half-width
constexpr std::int64_t kWarmup = 4;  ///< observations before bands arm

/// Bottom fraction of channels (by current score) counted as suspicious —
/// the paper's Eq. (3) drop fraction.
constexpr float kSuspiciousFraction = 0.25f;

}  // namespace

double DriftDetector::stddev() const { return std::sqrt(std::max(var_, 0.0)); }

void DriftDetector::reset() {
  mean_ = 0.0;
  var_ = 0.0;
  n_ = 0;
  state_ = kStable;
}

int DriftDetector::observe(double v) {
  ++n_;
  if (n_ == 1) {
    mean_ = v;
    var_ = 0.0;
    return state_;
  }
  const bool armed = n_ > kWarmup;
  const double band = std::max(kBandSigma * stddev(), kMinBand);
  if (armed && std::abs(v - mean_) > band) {
    // Out-of-band: flag it, and keep the baseline frozen so a persistent
    // shift stays flagged instead of being learned as normal.
    state_ = kDrift;
    return state_;
  }
  state_ = kStable;
  const double d = v - mean_;
  mean_ += (1.0 - kDecay) * d;
  var_ = kDecay * (var_ + (1.0 - kDecay) * d * d);
  return state_;
}

RobustnessMonitor::RobustnessMonitor(TelemetryConfig cfg) : cfg_(cfg) {
  if (cfg_.sample_every < 0) {
    throw std::invalid_argument("RobustnessMonitor: sample_every must be >= 0");
  }
  cfg_.window = std::max<std::int64_t>(cfg_.window, 2);
  cfg_.ewma_decay = std::clamp(cfg_.ewma_decay, 0.0f, 0.99f);
}

RequestTelemetry RobustnessMonitor::observe(const float* tap_row,
                                            std::int64_t channels,
                                            std::int64_t spatial,
                                            std::int64_t pred,
                                            std::int64_t num_classes) {
  RequestTelemetry out;
  out.sampled = true;
  const std::int64_t width = channels * spatial;

  // Per-channel activation energy of THIS request, staged in the arena's
  // telemetry slot. The handle is distinct from the GEMM pack slots and the
  // sym-Gram tile, so the buffer stays valid across the nested channel-score
  // kernels the window refresh below runs on this same thread.
  float* energy = runtime::lane_arena().floats(
      runtime::Scratch::kServeTelemetry, static_cast<std::size_t>(channels));
  float total = 0.0f;
  for (std::int64_t c = 0; c < channels; ++c) {
    float acc = 0.0f;
    const float* row = tap_row + c * spatial;
    for (std::int64_t s = 0; s < spatial; ++s) acc += row[s] * row[s];
    energy[c] = acc;
    total += acc;
  }

  std::unique_lock<std::mutex> lk(mu_);
  if (channels_ == 0) {
    channels_ = channels;
    spatial_ = spatial;
    window_taps_.resize(
        static_cast<std::size_t>(cfg_.window) * static_cast<std::size_t>(width));
    window_preds_.resize(static_cast<std::size_t>(cfg_.window));
  } else if (channels != channels_ || spatial != spatial_) {
    // A hot-swap changed the tap geometry: restart the window for the new
    // architecture (old scores are meaningless for it).
    channels_ = channels;
    spatial_ = spatial;
    fill_ = 0;
    scores_.clear();
    suspicious_mask_ = Tensor({0});
    win_susp_sum_ = 0.0;
    win_susp_n_ = 0;
    drift_.reset();  // the suspicion baseline belonged to the old geometry
    window_taps_.assign(
        static_cast<std::size_t>(cfg_.window) * static_cast<std::size_t>(width),
        0.0f);
    window_preds_.assign(static_cast<std::size_t>(cfg_.window), 0);
  }

  std::copy_n(tap_row, width,
              window_taps_.data() + fill_ * width);
  window_preds_[static_cast<std::size_t>(fill_)] = pred;
  ++fill_;
  ++samples_;

  if (fill_ == cfg_.window) {
    // One drift observation per completed window: the mean suspicion of the
    // samples scored during it (none before the first epoch — no score
    // vector existed to read suspicion against).
    if (win_susp_n_ > 0) {
      drift_.observe(win_susp_sum_ / static_cast<double>(win_susp_n_));
      win_susp_sum_ = 0.0;
      win_susp_n_ = 0;
    }
    // Window full: refresh the Eq. (3) scores from the sampled taps, labeled
    // by the model's own predictions. The features view is (n, C, spatial, 1)
    // so conv taps keep their channel axis; NC taps pass spatial == 1.
    //
    // The re-score runs OUTSIDE mu_ on a double-buffered copy of the window:
    // channel_label_scores is the expensive part (per-channel HSIC over the
    // whole window), and holding the lock across it would stall every other
    // worker's sampled request for the full re-score. Copy the window out,
    // free the live window for new samples, compute unlocked, then
    // re-install under the lock.
    Tensor feats({cfg_.window, channels_, spatial_, 1});
    std::copy(window_taps_.begin(), window_taps_.end(), feats.data().begin());
    std::vector<std::int64_t> preds = window_preds_;
    const std::int64_t gen_channels = channels_;
    const std::int64_t gen_spatial = spatial_;
    fill_ = 0;
    lk.unlock();

    auto scores = mi::channel_label_scores(feats, preds, num_classes);

    lk.lock();
    // Install only if the tap geometry is still the one this window was
    // sampled under: a concurrent hot-swap may have restarted the window for
    // a new architecture, and these scores would be meaningless for it.
    if (channels_ == gen_channels && spatial_ == gen_spatial) {
      // Blend into the previous epoch, then derive the suspicious set from
      // the blended scores (cheap: one O(C log C) sort under the lock). At
      // decay 0 the blend returns the window's scores bit for bit (0 * prev
      // + s == s for finite prev and any s but -0, which an HSIC score never
      // is), so tumbling needs no branch of its own.
      if (scores_.size() == scores.size()) {
        const float d = cfg_.ewma_decay;
        for (std::size_t i = 0; i < scores.size(); ++i) {
          scores[i] = d * scores_[i] + (1.0f - d) * scores[i];
        }
      }
      suspicious_mask_ = mi::mask_from_scores(scores, kSuspiciousFraction);
      scores_ = std::move(scores);
      ++epoch_;
    }
  }

  if (!scores_.empty() &&
      suspicious_mask_.numel() == channels) {
    float suspicious_energy = 0.0f;
    for (std::int64_t c = 0; c < channels; ++c) {
      if (suspicious_mask_[c] == 0.0f) suspicious_energy += energy[c];
    }
    out.suspicion = total > 0.0f ? suspicious_energy / total : 0.0f;
    out.score_epoch = epoch_;
    win_susp_sum_ += static_cast<double>(out.suspicion);
    ++win_susp_n_;
  }
  return out;
}

std::uint64_t RobustnessMonitor::score_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

std::vector<float> RobustnessMonitor::channel_scores() const {
  std::lock_guard<std::mutex> lk(mu_);
  return scores_;
}

std::int64_t RobustnessMonitor::window_fill() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fill_;
}

std::uint64_t RobustnessMonitor::samples() const {
  std::lock_guard<std::mutex> lk(mu_);
  return samples_;
}

int RobustnessMonitor::drift_state() const {
  std::lock_guard<std::mutex> lk(mu_);
  return drift_.state();
}

}  // namespace ibrar::serve
