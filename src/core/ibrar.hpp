#pragma once
// IB-RAR facade: the paper's full method as a composable objective.
//
//   IBRARObjective = base objective (CE / PGD-AT / TRADES / MART)
//                  + MI loss (Eq. 1/2) on the selected layers of a CLEAN
//                    forward pass (Sec. 3.1.1: "we use clean examples to
//                    compute MI in Eq. (2)")
//                  + the feature-channel mask (Eq. 3), refreshed per epoch
//                    via make_mask_hook.
//
// Typical use:
//   auto base = std::make_shared<train::PGDATObjective>(inner_cfg);
//   auto obj  = std::make_shared<core::IBRARObjective>(base, mi_cfg);
//   train::Trainer t(model, obj, train_cfg);
//   t.epoch_hook = core::make_mask_hook(mask_cfg, train_set);
//   t.fit(train_set, &test_set);

#include "core/feature_mask.hpp"
#include "core/mi_loss.hpp"
#include "train/trainer.hpp"

namespace ibrar::core {

class IBRARObjective : public train::Objective {
 public:
  /// `base` may be null, meaning plain IB-RAR training on clean data (the
  /// CE term then reuses the same tapped forward pass as the MI term).
  IBRARObjective(train::ObjectivePtr base, MILossConfig mi_cfg)
      : base_(std::move(base)), mi_cfg_(std::move(mi_cfg)) {}

  std::string name() const override {
    return (base_ ? base_->name() : std::string("plain")) + " (IB-RAR)";
  }

  ag::Var compute(models::TapClassifier& model,
                  const data::Batch& batch) override;

 private:
  train::ObjectivePtr base_;
  MILossConfig mi_cfg_;
};

/// Epoch hook refreshing the Eq. (3) mask from `scoring_set` after each
/// epoch. Skips epoch 0 so scores reflect an MI-regularized network (the
/// paper notes the mask is only meaningful on top of the MI loss).
std::function<void(std::int64_t, models::TapClassifier&)> make_mask_hook(
    FeatureMaskConfig cfg, const data::Dataset& scoring_set,
    std::int64_t first_epoch = 1);

}  // namespace ibrar::core
