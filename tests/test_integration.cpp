// End-to-end integration: the paper's central claims at miniature scale.
// These are slower than unit tests (a few seconds each) but pin the
// qualitative results every bench relies on.

#include <gtest/gtest.h>

#include "attacks/adaptive.hpp"
#include "core/ibrar.hpp"
#include "core/robust_layers.hpp"
#include "data/registry.hpp"
#include "mi/objective.hpp"
#include "mi/tsne.hpp"
#include "models/registry.hpp"
#include "train/evaluate.hpp"

namespace ibrar {
namespace {

struct Env {
  // 800 training samples: the IB-vs-CE robustness gap is scale-sensitive and
  // only emerges once the models actually fit the data (cf. quickstart).
  data::SyntheticData data = data::make_dataset("synth-cifar10", 800, 200);
  models::ModelSpec vgg;

  Env() { vgg.name = "vgg16"; }

  train::TrainConfig tc(std::int64_t epochs = 5) {
    train::TrainConfig t;
    t.epochs = epochs;
    t.batch_size = 100;
    return t;
  }
};

Env& env() {
  static Env e;
  return e;
}

double clean_acc(models::TapClassifier& m) {
  return train::evaluate_robust(m, env().data.test,
                                std::vector<attacks::Attack*>{})
      .clean_acc;
}

double pgd_acc(models::TapClassifier& m, std::int64_t steps = 10,
               std::int64_t samples = 150) {
  attacks::AttackConfig c;
  c.steps = steps;
  attacks::PGD pgd(c);
  return train::evaluate_robust(m, env().data.test, {&pgd},
                                {100, samples, /*with_clean=*/false})
      .per_attack.front()
      .robust_acc;
}

/// Claim 1 (Table 4 / Fig. 2): IB-RAR without adversarial training is more
/// robust than CE-only training.
TEST(Integration, IBRARBeatsCEUnderPGD) {
  // The per-seed delta at this scale is a few percentage points with noise
  // of similar size, so the claim is pinned on the two-seed mean (the bench
  // harness shows the same averaging caveat; see EXPERIMENTS.md).
  double ce_adv = 0, ib_adv = 0, ce_clean = 0, ib_clean = 0;
  const std::vector<std::uint64_t> seeds = {1, 2};
  for (const auto seed : seeds) {
    auto tc = env().tc(6);
    tc.seed = seed;
    Rng r1(seed);
    auto ce = models::make_model(env().vgg, r1);
    train::Trainer(ce, std::make_shared<train::CEObjective>(), tc)
        .fit(env().data.train);

    Rng r2(seed);
    auto ib = models::make_model(env().vgg, r2);
    {
      auto obj = std::make_shared<core::IBRARObjective>(nullptr,
                                                        core::MILossConfig{});
      train::Trainer t(ib, obj, tc);
      t.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                          env().data.train);
      t.fit(env().data.train);
    }
    ce_clean += clean_acc(*ce);
    ib_clean += clean_acc(*ib);
    ce_adv += pgd_acc(*ce);
    ib_adv += pgd_acc(*ib);
  }
  const double n = static_cast<double>(seeds.size());
  EXPECT_GT(ib_adv / n, ce_adv / n - 1e-9);      // the robustness delta
  EXPECT_GT(ib_clean / n, ce_clean / n - 0.10);  // no clean-accuracy price
}

/// Claim 2 (Tables 1-2): IB-RAR composes with PGD adversarial training
/// without degrading robustness (paper: it improves it).
TEST(Integration, IBRARComposesWithAdversarialTraining) {
  attacks::AttackConfig inner;
  inner.steps = 4;

  Rng r1(2);
  auto at = models::make_model(env().vgg, r1);
  train::Trainer(at, std::make_shared<train::PGDATObjective>(inner),
                 env().tc())
      .fit(env().data.train);

  Rng r2(2);
  auto at_ib = models::make_model(env().vgg, r2);
  {
    auto base = std::make_shared<train::PGDATObjective>(inner);
    auto obj = std::make_shared<core::IBRARObjective>(base,
                                                      core::MILossConfig{});
    train::Trainer t(at_ib, obj, env().tc());
    t.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                        env().data.train);
    t.fit(env().data.train);
  }
  const double at_adv = pgd_acc(*at);
  const double at_ib_adv = pgd_acc(*at_ib);
  // Both must be far above undefended levels; IB-RAR must not break AT.
  EXPECT_GT(at_adv, 0.15);
  EXPECT_GT(at_ib_adv, at_adv - 0.08);
}

/// Claim 3 (Table 3): for VGG-like networks, the deep layers (conv block 5 /
/// fc) are where single-layer IB regularization yields robustness.
TEST(Integration, DeepLayersAreMoreRobustThanShallow) {
  auto probe = [&](const std::string& layer) {
    Rng rng(3);
    auto model = models::make_model(env().vgg, rng);
    core::MILossConfig mi;
    mi.selection = core::LayerSelection::kExplicit;
    mi.layers = {layer};
    auto obj = std::make_shared<core::IBRARObjective>(nullptr, mi);
    train::Trainer(model, obj, env().tc()).fit(env().data.train);
    return pgd_acc(*model, 10, 100);
  };
  const double shallow = probe("conv_block1");
  const double deep_fc = probe("fc1");
  const double deep_conv = probe("conv_block5");
  // The deep layers should not lose to the shallow one (paper: 9.85 / 8.25
  // vs 0.04); ties can occur at this scale, hence >=.
  EXPECT_GE(deep_fc + deep_conv, shallow * 2 - 0.02);
}

/// Claim 4 (Sec. A.2 / Table 6): the adaptive attack on the IB-RAR loss does
/// not break an adversarially-trained IB-RAR model below its PGD level by a
/// large margin.
TEST(Integration, AdaptiveAttackDoesNotCollapseATIBRAR) {
  attacks::AttackConfig inner;
  inner.steps = 4;
  Rng rng(4);
  auto model = models::make_model(env().vgg, rng);
  auto base = std::make_shared<train::PGDATObjective>(inner);
  core::MILossConfig mi;
  auto obj = std::make_shared<core::IBRARObjective>(base, mi);
  train::Trainer t(model, obj, env().tc());
  t.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                      env().data.train);
  t.fit(env().data.train);

  attacks::AttackConfig ac;
  ac.steps = 10;
  attacks::AdaptivePGD adaptive(ac, core::to_ib_config(mi, *model));
  const double adaptive_acc =
      train::evaluate_robust(*model, env().data.test, {&adaptive},
                             {100, 120, /*with_clean=*/false})
          .per_attack.front()
          .robust_acc;
  const double pgd = pgd_acc(*model, 10, 120);
  EXPECT_GT(adaptive_acc, pgd - 0.15);
  EXPECT_GT(adaptive_acc, 0.10);
}

/// Claim 5 (Fig. 3): IB-RAR increases feature-space class separation.
TEST(Integration, IBRARImprovesClusterSeparation) {
  Rng r1(5);
  auto ce = models::make_model(env().vgg, r1);
  train::Trainer(ce, std::make_shared<train::CEObjective>(), env().tc())
      .fit(env().data.train);
  Rng r2(5);
  auto ib = models::make_model(env().vgg, r2);
  {
    core::MILossConfig mi;
    mi.beta = 0.5f;  // a stronger relevance term sharpens the effect
    auto obj = std::make_shared<core::IBRARObjective>(nullptr, mi);
    train::Trainer t(ib, obj, env().tc());
    t.fit(env().data.train);
  }
  auto features = [&](models::TapClassifier& m) {
    ag::NoGradGuard ng;
    m.set_training(false);
    std::vector<std::int64_t> idx(100);
    for (std::int64_t i = 0; i < 100; ++i) idx[static_cast<std::size_t>(i)] = i;
    const auto batch = data::make_batch(env().data.test, idx);
    auto out = m.forward_with_taps(ag::Var::constant(batch.x));
    const Tensor& t = out.taps.back().value();
    return std::pair{t.reshape({t.dim(0), t.numel() / t.dim(0)}), batch.y};
  };
  const auto [fce, yce] = features(*ce);
  const auto [fib, yib] = features(*ib);
  const auto mce = mi::cluster_metrics(fce, yce);
  const auto mib = mi::cluster_metrics(fib, yib);
  // Allow slack: at miniature scale the effect is noisy but should not invert
  // badly.
  EXPECT_GT(mib.separation_ratio, mce.separation_ratio * 0.8);
}

/// Checkpointing survives a full train/attack cycle (used by downstream
/// consumers of the library).
TEST(Integration, SaveLoadPreservesBehaviour) {
  Rng rng(6);
  auto model = models::make_model(env().vgg, rng);
  train::Trainer(model, std::make_shared<train::CEObjective>(), env().tc(2))
      .fit(env().data.train);
  const std::string path = "/tmp/ibrar_integration_ckpt.bin";
  nn::save_model(*model, path);

  Rng rng2(77);
  auto clone = models::make_model(env().vgg, rng2);
  nn::load_model(*clone, path);
  std::remove(path.c_str());

  std::vector<std::int64_t> idx(50);
  for (std::int64_t i = 0; i < 50; ++i) idx[static_cast<std::size_t>(i)] = i;
  const auto batch = data::make_batch(env().data.test, idx);
  const auto pa = attacks::predict(*model, batch.x);
  const auto pb = attacks::predict(*clone, batch.x);
  EXPECT_EQ(pa, pb);
}

}  // namespace
}  // namespace ibrar
