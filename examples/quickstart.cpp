// Quickstart: train a MiniVGG on the synthetic CIFAR-10 stand-in with the
// full IB-RAR recipe (MI loss on robust layers + feature-channel mask) and
// compare its PGD robustness against a plain CE-trained twin.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <utility>

#include "core/ibrar.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "train/evaluate.hpp"
#include "util/stopwatch.hpp"

using namespace ibrar;

int main() {
  // 1. Data: procedural CIFAR-10-like images (see src/data/synthetic.hpp).
  const auto data = data::make_dataset("synth-cifar10", /*train=*/800,
                                       /*test=*/300);
  std::printf("dataset: %lld train / %lld test, %lld classes\n",
              static_cast<long long>(data.train.size()),
              static_cast<long long>(data.test.size()),
              static_cast<long long>(data.train.num_classes));

  train::TrainConfig tc;
  tc.epochs = 5;
  tc.batch_size = 100;
  tc.verbose = true;

  attacks::AttackConfig pgd_cfg;  // eps 8/255, alpha 2/255, 10 steps
  attacks::PGD pgd(pgd_cfg);

  Stopwatch sw;

  // 2. Baseline: plain cross-entropy.
  models::ModelSpec spec;  // vgg16, 10 classes, 16x16 RGB
  Rng rng_a(1);
  auto ce_model = models::make_model(spec, rng_a);
  {
    train::Trainer trainer(ce_model, std::make_shared<train::CEObjective>(), tc);
    trainer.fit(data.train);
  }
  std::printf("[%.1fs] CE model trained (%lld params)\n", sw.reset(),
              static_cast<long long>(ce_model->num_parameters()));

  // 3. IB-RAR: MI loss (Eq. 1) on the robust layers + Eq. (3) channel mask.
  Rng rng_b(1);
  auto ib_model = models::make_model(spec, rng_b);
  {
    core::MILossConfig mi;  // calibrated alpha/beta, robust layers
    auto objective = std::make_shared<core::IBRARObjective>(nullptr, mi);
    train::Trainer trainer(ib_model, objective, tc);
    trainer.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                              data.train);
    trainer.fit(data.train);
  }
  std::printf("[%.1fs] IB-RAR model trained\n", sw.reset());

  // 4. Evaluate both: clean accuracy over the whole test set, PGD-10 over
  //    its first 200 examples.
  auto evaluate = [&](models::TapClassifier& m) {
    const double clean =
        train::evaluate_robust(m, data.test, std::vector<attacks::Attack*>{})
            .clean_acc;
    const double adv =
        train::evaluate_robust(m, data.test, {&pgd},
                               {100, 200, /*with_clean=*/false})
            .per_attack.front()
            .robust_acc;
    return std::make_pair(clean, adv);
  };
  const auto [ce_clean, ce_adv] = evaluate(*ce_model);
  std::printf("[%.1fs] CE      : clean %.2f%%  PGD10 %.2f%%\n", sw.reset(),
              100 * ce_clean, 100 * ce_adv);
  const auto [ib_clean, ib_adv] = evaluate(*ib_model);
  std::printf("[%.1fs] IB-RAR  : clean %.2f%%  PGD10 %.2f%%\n", sw.reset(),
              100 * ib_clean, 100 * ib_adv);
  std::printf("IB-RAR should retain noticeably more accuracy under attack.\n");
  return 0;
}
