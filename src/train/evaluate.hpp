#pragma once
// Batched robust evaluation over datasets.
//
// One driver — evaluate_robust() — runs the clean pass and an arbitrary
// attack suite over the dataset in a single batched sweep and returns a
// RobustReport: clean accuracy, per-attack robust accuracy and timing, the
// per-example worst-case mask across the whole suite, and (for composite
// specs like "fgsm→pgd→cw") per-stage statistics. An empty suite scores clean
// accuracy alone.

#include <string>

#include "attacks/attack.hpp"
#include "data/dataset.hpp"

namespace ibrar::train {

/// Robust accuracy of one suite entry; `stages` is non-empty when the entry
/// is a CompositeAttack (cumulative accuracy after each stage).
struct AttackResult {
  std::string name;
  double robust_acc = 0.0;
  double seconds = 0.0;          ///< total perturb+predict wall time
  double ns_per_example = 0.0;
  struct Stage {
    std::string name;
    std::int64_t forwarded = 0;  ///< examples entering the stage
    std::int64_t fooled = 0;     ///< newly misclassified by the stage
    double robust_acc = 0.0;     ///< cumulative accuracy after the stage
  };
  std::vector<Stage> stages;
};

/// One-pass robust evaluation summary.
struct RobustReport {
  std::int64_t examples = 0;
  double clean_acc = 0.0;  ///< -1 when the clean pass was skipped
  std::vector<AttackResult> per_attack;
  /// Per example: correctly classified clean AND under every attack.
  std::vector<std::uint8_t> worst_case_correct;
  double worst_case_acc = 0.0;
  double seconds = 0.0;
};

struct RobustEvalConfig {
  std::int64_t batch_size = 100;  ///< must be > 0
  std::int64_t max_samples = -1;  ///< <= 0 = whole dataset
  /// Run the clean prediction pass (clean_acc + its contribution to the
  /// worst-case mask). Callers that score clean accuracy on a different
  /// sample count than the attacks turn it off and make a separate
  /// empty-suite call, so no forward pass is discarded.
  bool with_clean = true;
};

/// Run the suite over (at most max_samples of) `ds` in one batched sweep.
/// Throws std::invalid_argument when cfg.batch_size <= 0.
RobustReport evaluate_robust(models::TapClassifier& model,
                             const data::Dataset& ds,
                             const std::vector<attacks::Attack*>& suite,
                             const RobustEvalConfig& cfg = {});

/// Spec-string convenience: each entry goes through attacks::parse_spec
/// (composites allowed), with `defaults` seeding every stage.
RobustReport evaluate_robust(models::TapClassifier& model,
                             const data::Dataset& ds,
                             const std::vector<std::string>& specs,
                             const RobustEvalConfig& cfg = {},
                             const attacks::AttackConfig& defaults = {});

/// Predictions on adversarial examples (for Table 5 confusion analysis).
/// Throws std::invalid_argument when batch_size <= 0.
std::vector<std::int64_t> adversarial_predictions(
    models::TapClassifier& model, const data::Dataset& ds,
    attacks::Attack& attack, std::int64_t batch_size = 100,
    std::int64_t max_samples = -1);

}  // namespace ibrar::train
