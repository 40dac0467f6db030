// Adversarial training example: PGD-AT, TRADES, and MART, each with and
// without IB-RAR, on the synthetic CIFAR-10 stand-in — a miniature of the
// paper's Table 1 protocol with a readable command-line interface.
//
// Usage:
//   ./adversarial_training [method] [epochs]
//   method in {pgd, trades, mart}, default pgd.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/ibrar.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "attacks/fgsm.hpp"
#include "train/evaluate.hpp"
#include "train/mart.hpp"
#include "train/trades.hpp"

using namespace ibrar;

namespace {

train::ObjectivePtr base_objective(const std::string& method,
                                   const attacks::AttackConfig& inner) {
  if (method == "trades") return std::make_shared<train::TRADESObjective>(inner);
  if (method == "mart") return std::make_shared<train::MARTObjective>(inner);
  return std::make_shared<train::PGDATObjective>(inner);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string method = argc > 1 ? argv[1] : "pgd";
  const std::int64_t epochs = argc > 2 ? std::atol(argv[2]) : 4;

  const auto data = data::make_dataset("synth-cifar10", 800, 300);
  models::ModelSpec spec;  // MiniVGG
  train::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 100;
  tc.verbose = true;

  attacks::AttackConfig inner;
  inner.steps = 4;  // inner maximization steps during training

  std::printf("== %s adversarial training (%lld epochs) ==\n", method.c_str(),
              static_cast<long long>(epochs));

  // Baseline adversarial training.
  Rng r1(42);
  auto base_model = models::make_model(spec, r1);
  train::Trainer(base_model, base_objective(method, inner), tc)
      .fit(data.train);

  // Same, wrapped with IB-RAR (Eq. 2 MI loss + Eq. 3 channel mask).
  Rng r2(42);
  auto ib_model = models::make_model(spec, r2);
  {
    auto obj = std::make_shared<core::IBRARObjective>(
        base_objective(method, inner), core::MILossConfig{});
    train::Trainer trainer(ib_model, obj, tc);
    trainer.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                              data.train);
    trainer.fit(data.train);
  }

  // Evaluate both under a reduced version of the paper's attack battery.
  auto report = [&](const std::string& name, models::TapClassifier& m) {
    attacks::AttackConfig pc;
    pc.steps = 10;
    attacks::PGD pgd(pc);
    attacks::FGSM fgsm(attacks::AttackConfig{});
    // Clean accuracy over the whole test set; the attacks over its first 200.
    const double natural =
        train::evaluate_robust(m, data.test, std::vector<attacks::Attack*>{})
            .clean_acc;
    const auto adv = train::evaluate_robust(m, data.test, {&pgd, &fgsm},
                                            {100, 200, /*with_clean=*/false});
    std::printf("%-18s natural %.2f%%  PGD10 %.2f%%  FGSM %.2f%%\n",
                name.c_str(), 100 * natural,
                100 * adv.per_attack[0].robust_acc,
                100 * adv.per_attack[1].robust_acc);
  };
  report(method, *base_model);
  report(method + " (IB-RAR)", *ib_model);
  return 0;
}
