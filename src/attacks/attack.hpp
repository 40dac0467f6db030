#pragma once
// Common white-box attack interface.
//
// All attacks follow the Torchattacks conventions the paper uses: inputs in
// [0,1], Linf budget eps = 8/255, step alpha = 2/255 unless noted. perturb()
// temporarily switches the model to eval mode and pauses parameter gradients
// (only input gradients are needed), restoring both before returning.

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "models/classifier.hpp"
#include "util/rng.hpp"

namespace ibrar::attacks {

/// Which iterate an engine-driven attack returns (see attacks/engine.hpp).
enum class BestMode {
  kAuto,         ///< attack-specific seed-parity default (PGD: per-restart
                 ///< margin tracking when restarts > 1, else last iterate)
  kLastIterate,  ///< classic PGD: whatever the last step produced
  kPerRestart,   ///< lowest-margin trajectory endpoint across restarts
  kPerStep,      ///< lowest-margin iterate across every step and restart
};

struct AttackConfig {
  float eps = 8.0f / 255.0f;    ///< Linf radius (CW interprets it loosely)
  float alpha = 2.0f / 255.0f;  ///< per-step size
  std::int64_t steps = 10;
  std::int64_t restarts = 1;    ///< PGD random restarts (keep best margin)
  float clip_lo = 0.0f;
  float clip_hi = 1.0f;
  bool random_start = true;     ///< PGD-style random init in the eps-ball
  std::uint64_t seed = 0xa77ac4;
  /// Active-set batch scheduler: drop already-misclassified examples from the
  /// working batch after each step so compute tracks the surviving set.
  /// Implies kPerStep tracking (retired examples keep their min-margin
  /// iterate), so against a best=step full-batch run it is cost-only.
  /// Rejected (throw) by batch-coupled compositions (MI/NI, adaptive).
  bool active_set = false;
  BestMode track_best = BestMode::kAuto;
};

class Attack {
 public:
  explicit Attack(AttackConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}
  virtual ~Attack() = default;

  virtual std::string name() const = 0;

  /// Adversarial version of batch `x` (same shape), targeting labels `y`.
  virtual Tensor perturb(models::TapClassifier& model, const Tensor& x,
                         const std::vector<std::int64_t>& y) = 0;

  const AttackConfig& config() const { return cfg_; }

 protected:
  AttackConfig cfg_;
  Rng rng_;
};

using AttackPtr = std::unique_ptr<Attack>;

/// RAII: set eval mode + pause parameter grads for attack-time forwards.
class AttackModeGuard {
 public:
  explicit AttackModeGuard(models::TapClassifier& model);
  ~AttackModeGuard();
  AttackModeGuard(const AttackModeGuard&) = delete;
  AttackModeGuard& operator=(const AttackModeGuard&) = delete;

 private:
  models::TapClassifier& model_;
  bool was_training_;
  std::vector<ag::NodePtr> paused_;
};

/// Gradient of mean CE loss at `x` (eval-mode forward), via one backward pass.
Tensor input_gradient(models::TapClassifier& model, const Tensor& x,
                      const std::vector<std::int64_t>& y);

/// Clip `adv` to the Linf eps-ball around `x` and to [lo, hi], in place.
void project_linf(Tensor& adv, const Tensor& x, float eps, float lo, float hi);

/// Per-sample margin z_y - max_{j != y} z_j of a logits batch (negative means
/// misclassified). Shared by the margin-driven attacks (Square, PGD restarts).
std::vector<float> margin_loss(const Tensor& logits,
                               const std::vector<std::int64_t>& y);

/// Predicted class per row of a (possibly adversarial) batch: the const eval
/// forward, no grad.
std::vector<std::int64_t> predict(const models::TapClassifier& model,
                                  const Tensor& x);

/// Fraction of `y` predicted correctly on `x` (no grad).
double accuracy(const models::TapClassifier& model, const Tensor& x,
                const std::vector<std::int64_t>& y);

}  // namespace ibrar::attacks
