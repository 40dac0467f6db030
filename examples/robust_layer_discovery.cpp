// Robust-layer discovery example: runs the paper's Table 3 procedure on a
// MiniVGG — train one probe network per hidden layer with the IB loss on that
// single layer, measure PGD accuracy, and report which layers are "robust".
// Finishes by training an IB-RAR model restricted to the discovered layers.

#include <algorithm>
#include <cstdio>

#include "analysis/capture.hpp"
#include "analysis/driver.hpp"
#include "attacks/registry.hpp"
#include "core/ibrar.hpp"
#include "core/robust_layers.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "train/evaluate.hpp"
#include "util/table.hpp"

using namespace ibrar;

int main() {
  const auto data = data::make_dataset("synth-cifar10", 600, 250);
  models::ModelSpec spec;  // MiniVGG

  core::RobustLayerConfig cfg;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 100;
  cfg.eval_attack.steps = 10;
  cfg.eval_samples = 150;

  core::RobustLayerSelector selector(
      [&](Rng& rng) { return models::make_model(spec, rng); }, cfg);
  const auto report = selector.select(data.train, data.test);

  Table table({"Layer", "Adv. acc %", "Test acc %", "Robust?"});
  for (const auto& r : report.per_layer) {
    table.add_row({r.layer, Table::num(100 * r.adv_acc, 2),
                   Table::num(100 * r.test_acc, 2), r.robust ? "yes" : "no"});
  }
  table.print();
  std::printf("CE baseline: adv %.2f%%, clean %.2f%%\n",
              100 * report.baseline_adv_acc, 100 * report.baseline_test_acc);
  std::printf("Robust layers:");
  for (const auto& l : report.robust_layers) std::printf(" %s", l.c_str());
  std::printf("  (paper found conv_block5, fc1, fc2 for VGG16)\n\n");

  // Train the final model on the discovered set.
  Rng rng(7);
  auto model = models::make_model(spec, rng);
  core::MILossConfig mi;
  mi.selection = core::LayerSelection::kExplicit;
  mi.layers = report.robust_layers;
  auto obj = std::make_shared<core::IBRARObjective>(nullptr, mi);
  train::TrainConfig tc = cfg.train;
  tc.epochs = 4;
  train::Trainer trainer(model, obj, tc);
  trainer.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                            data.train);
  trainer.fit(data.train);

  // Final report through the registry + one-pass robust driver: PGD with the
  // active-set scheduler (cost tracks the surviving examples) plus FGSM, and
  // the worst case across both.
  // Clean accuracy over the whole test set (comparable with the CE-baseline
  // figure above); the attack suite samples 150 examples like the probes did.
  const double clean =
      train::evaluate_robust(*model, data.test, std::vector<attacks::Attack*>{})
          .clean_acc;
  const auto robust = train::evaluate_robust(
      *model, data.test,
      std::vector<std::string>{"pgd:steps=10,active_set=1,best=step", "fgsm"},
      {100, 150, /*with_clean=*/false});
  std::printf("IB-RAR(discovered layers): clean %.2f%%", 100 * clean);
  for (const auto& a : robust.per_attack) {
    std::printf("  %s %.2f%%", a.name.c_str(), 100 * a.robust_acc);
  }
  std::printf("  worst-case %.2f%%\n", 100 * robust.worst_case_acc);

  // Eq. (3) view of the trained model: one tapped capture, then per-channel
  // HSIC(f_c, Y) of the last conv block — the scores the feature mask drops
  // its bottom 5% by.
  const auto dump = analysis::capture_taps(*model, data.test, 150);
  const auto scores =
      analysis::last_conv_channel_scores(dump, *model, model->num_classes());
  auto sorted = scores;
  std::sort(sorted.begin(), sorted.end());
  std::printf("Eq. 3 channel scores over %zu channels: min %.4g, median %.4g, "
              "max %.4g (lowest 5%% are masked)\n",
              scores.size(), sorted.front(), sorted[sorted.size() / 2],
              sorted.back());
  return 0;
}
