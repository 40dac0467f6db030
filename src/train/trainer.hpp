#pragma once
// The epoch/batch training loop with pluggable objective, StepLR schedule,
// per-epoch hooks (IB-RAR uses one to refresh the feature mask) and optional
// per-epoch evaluation for convergence curves (paper Fig. 4).

#include <functional>
#include <optional>

#include "data/loader.hpp"
#include "train/objective.hpp"
#include "train/optimizer.hpp"

namespace ibrar::train {

struct TrainConfig {
  std::int64_t epochs = 10;
  std::int64_t batch_size = 100;
  float lr = 0.01f;          // paper hyperparameters
  float momentum = 0.9f;
  float weight_decay = 1e-2f;
  std::int64_t lr_step = 20;
  float lr_gamma = 0.2f;
  std::uint64_t seed = 42;
  bool verbose = false;
};

struct EpochStats {
  std::int64_t epoch = 0;
  double mean_loss = 0.0;
  double train_acc = 0.0;   ///< accuracy on training batches (post-hoc
                            ///< logits)
  double test_acc = -1.0;   ///< -1 when no eval requested
  double adv_acc = -1.0;
  double seconds = 0.0;
};

class Trainer {
 public:
  Trainer(models::TapClassifierPtr model, ObjectivePtr objective,
          TrainConfig cfg);

  /// Run the full schedule; returns one stats row per epoch. When `test` is
  /// non-null, clean test accuracy is recorded each epoch; when `eval_attack`
  /// is also set, adversarial accuracy on (a subset of) the test set too.
  std::vector<EpochStats> fit(const data::Dataset& train,
                              const data::Dataset* test = nullptr,
                              attacks::Attack* eval_attack = nullptr,
                              std::int64_t eval_adv_samples = 200);

  /// Called after every epoch (mask refresh, recorders, ...).
  std::function<void(std::int64_t epoch, models::TapClassifier&)> epoch_hook;

  /// Called on every batch AFTER the optimizer step (information-plane
  /// recording for Fig. 5).
  std::function<void(std::int64_t epoch, std::int64_t batch,
                     models::TapClassifier&, const data::Batch&)> batch_hook;

  models::TapClassifier& model() { return *model_; }
  SGD& optimizer() { return *opt_; }

 private:
  models::TapClassifierPtr model_;
  ObjectivePtr objective_;
  TrainConfig cfg_;
  std::unique_ptr<SGD> opt_;
};

}  // namespace ibrar::train
