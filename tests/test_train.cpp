// Training stack: SGD mechanics, StepLR schedule, metrics, objectives
// (CE / PGD-AT / TRADES / MART / HBaR / VIB), trainer loop + hooks.

#include <gtest/gtest.h>

#include "core/ibrar.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "train/evaluate.hpp"
#include "train/hbar.hpp"
#include "train/mart.hpp"
#include "train/metrics.hpp"
#include "train/trades.hpp"
#include "train/trainer.hpp"
#include "train/vib.hpp"

namespace ibrar::train {
namespace {

TEST(SGDOpt, GradientDescentStep) {
  ag::Var w = ag::Var::param(Tensor({2}, {1.0f, -2.0f}));
  SGD opt({w}, {/*lr=*/0.1f, /*momentum=*/0.0f, /*weight_decay=*/0.0f});
  w.zero_grad();
  ag::Var loss = ag::mean(ag::square(w));  // dL/dw = w
  loss.backward();
  opt.step();
  EXPECT_NEAR(w.value()[0], 1.0f - 0.1f * 1.0f, 1e-6);
  EXPECT_NEAR(w.value()[1], -2.0f + 0.1f * 2.0f, 1e-6);
}

TEST(SGDOpt, MomentumAccumulates) {
  ag::Var w = ag::Var::param(Tensor({1}, {1.0f}));
  SGD opt({w}, {0.1f, 0.9f, 0.0f});
  for (int i = 0; i < 2; ++i) {
    opt.zero_grad();
    ag::Var loss = ag::sum(w);  // grad = 1
    loss.backward();
    opt.step();
  }
  // step1: v=1, w=1-0.1; step2: v=1.9, w=0.9-0.19.
  EXPECT_NEAR(w.value()[0], 0.71f, 1e-5);
}

TEST(SGDOpt, WeightDecayPullsTowardZero) {
  ag::Var w = ag::Var::param(Tensor({1}, {2.0f}));
  SGD opt({w}, {0.1f, 0.0f, 0.5f});
  opt.zero_grad();  // zero gradient: only decay acts
  opt.step();
  EXPECT_NEAR(w.value()[0], 2.0f - 0.1f * 0.5f * 2.0f, 1e-6);
}

TEST(SGDOpt, ConvergesOnQuadratic) {
  ag::Var w = ag::Var::param(Tensor({3}, {5.0f, -4.0f, 2.0f}));
  SGD opt({w}, {0.2f, 0.5f, 0.0f});
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    ag::Var loss = ag::mean(ag::square(w));
    loss.backward();
    opt.step();
  }
  for (std::int64_t i = 0; i < 3; ++i) EXPECT_NEAR(w.value()[i], 0.0f, 1e-3);
}

TEST(Scheduler, StepLRDecaysOnSchedule) {
  ag::Var w = ag::Var::param(Tensor({1}));
  SGD opt({w}, {1.0f, 0.0f, 0.0f});
  StepLR sched(opt, /*step_size=*/2, /*gamma=*/0.1f);
  sched.epoch_end();
  EXPECT_FLOAT_EQ(opt.lr(), 1.0f);
  sched.epoch_end();
  EXPECT_FLOAT_EQ(opt.lr(), 0.1f);
  sched.epoch_end();
  sched.epoch_end();
  EXPECT_NEAR(opt.lr(), 0.01f, 1e-7);
}

TEST(Metrics, AccuracyAndConfusion) {
  const std::vector<std::int64_t> pred = {0, 1, 1, 2};
  const std::vector<std::int64_t> truth = {0, 1, 2, 2};
  const auto counts = confusion_counts(pred, truth, 3);
  EXPECT_EQ(counts[2][1], 1);
  EXPECT_EQ(counts[2][2], 1);
  EXPECT_EQ(counts[0][0], 1);
  const auto top = top_confusions(counts, 2);
  EXPECT_EQ(top[2][0].first, 1);  // class 2 most confused with 1
  EXPECT_EQ(top[2][0].second, 1);
}

struct TrainSetup {
  data::SyntheticData data = data::make_dataset("synth-cifar10", 250, 100);
  models::ModelSpec spec;
  TrainSetup() { spec.name = "mlp"; }

  models::TapClassifierPtr fresh_model(std::uint64_t seed = 1) {
    Rng rng(seed);
    return models::make_model(spec, rng);
  }

  TrainConfig tc(std::int64_t epochs = 3) {
    TrainConfig t;
    t.epochs = epochs;
    t.batch_size = 50;
    return t;
  }
};

TEST(TrainerLoop, CEObjectiveLearnsSeparableData) {
  TrainSetup s;
  auto model = s.fresh_model();
  Trainer trainer(model, std::make_shared<CEObjective>(), s.tc(5));
  const auto hist = trainer.fit(s.data.train, &s.data.test);
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_LT(hist.back().mean_loss, hist.front().mean_loss);
  EXPECT_GT(hist.back().test_acc, 0.5);
  EXPECT_FALSE(model->training());  // left in eval mode
}

TEST(TrainerLoop, EpochAndBatchHooksFire) {
  TrainSetup s;
  auto model = s.fresh_model();
  Trainer trainer(model, std::make_shared<CEObjective>(), s.tc(2));
  std::int64_t epochs_seen = 0, batches_seen = 0;
  trainer.epoch_hook = [&](std::int64_t, models::TapClassifier&) {
    ++epochs_seen;
  };
  trainer.batch_hook = [&](std::int64_t, std::int64_t, models::TapClassifier&,
                           const data::Batch&) { ++batches_seen; };
  trainer.fit(s.data.train);
  EXPECT_EQ(epochs_seen, 2);
  EXPECT_EQ(batches_seen, 2 * 5);  // 250 / 50 per epoch
}

TEST(TrainerLoop, AdversarialEvalRecordedWhenRequested) {
  TrainSetup s;
  auto model = s.fresh_model();
  Trainer trainer(model, std::make_shared<CEObjective>(), s.tc(1));
  attacks::AttackConfig pc;
  pc.steps = 2;
  attacks::PGD pgd(pc);
  const auto hist = trainer.fit(s.data.train, &s.data.test, &pgd, 50);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_GE(hist[0].adv_acc, 0.0);
  EXPECT_LE(hist[0].adv_acc, hist[0].test_acc + 1e-9);
}

TEST(Objectives, PGDATImprovesRobustnessOverCE) {
  // Conv model + enough data/epochs: PGD-AT needs both to pull ahead of CE
  // on the hard synthetic set (an underfit AT model is not robust).
  const auto data = data::make_dataset("synth-cifar10", 600, 150);
  models::ModelSpec vgg;
  vgg.name = "vgg16";
  attacks::AttackConfig inner;
  inner.steps = 4;
  TrainConfig tc;
  tc.epochs = 6;
  tc.batch_size = 100;

  Rng r1(7), r2(7);
  auto ce_model = models::make_model(vgg, r1);
  Trainer(ce_model, std::make_shared<CEObjective>(), tc).fit(data.train);

  auto at_model = models::make_model(vgg, r2);
  Trainer(at_model, std::make_shared<PGDATObjective>(inner), tc)
      .fit(data.train);

  attacks::AttackConfig ec;
  ec.steps = 10;
  attacks::PGD eval_pgd(ec);
  auto pgd_acc = [&](models::TapClassifier& m) {
    return evaluate_robust(m, data.test, {&eval_pgd},
                           {100, 150, /*with_clean=*/false})
        .per_attack.front()
        .robust_acc;
  };
  const double ce_adv = pgd_acc(*ce_model);
  const double at_adv = pgd_acc(*at_model);
  EXPECT_GT(at_adv, ce_adv);
}

TEST(Objectives, TRADESProducesFiniteLossAndTrains) {
  TrainSetup s;
  attacks::AttackConfig inner;
  inner.steps = 3;
  auto model = s.fresh_model();
  Trainer trainer(model, std::make_shared<TRADESObjective>(inner), s.tc(4));
  const auto hist = trainer.fit(s.data.train, &s.data.test);
  EXPECT_TRUE(std::isfinite(hist.back().mean_loss));
  // Above-chance (10 classes) learning is what this wiring test pins down.
  EXPECT_GT(hist.back().test_acc, 0.2);
}

TEST(Objectives, MARTProducesFiniteLossAndTrains) {
  TrainSetup s;
  attacks::AttackConfig inner;
  inner.steps = 3;
  auto model = s.fresh_model();
  Trainer trainer(model, std::make_shared<MARTObjective>(inner), s.tc(6));
  const auto hist = trainer.fit(s.data.train, &s.data.test);
  EXPECT_TRUE(std::isfinite(hist.back().mean_loss));
  // MART's weighted objective converges slowest of the AT family; this is a
  // wiring test: the loss must fall and accuracy must clear collapse level.
  EXPECT_LT(hist.back().mean_loss, hist.front().mean_loss);
  EXPECT_GT(hist.back().test_acc, 0.08);
}

TEST(Objectives, HBaRTrains) {
  TrainSetup s;
  auto model = s.fresh_model();
  Trainer trainer(model, std::make_shared<HBaRObjective>(), s.tc(3));
  const auto hist = trainer.fit(s.data.train, &s.data.test);
  EXPECT_GT(hist.back().test_acc, 0.35);
}

TEST(Objectives, VIBSetsNoiseAndTrains) {
  TrainSetup s;
  auto model = s.fresh_model();
  auto vib = std::make_shared<VIBObjective>(*model, 1e-3f, 0.1f);
  EXPECT_FLOAT_EQ(model->penultimate_noise(), 0.1f);
  Trainer trainer(model, vib, s.tc(3));
  const auto hist = trainer.fit(s.data.train, &s.data.test);
  EXPECT_GT(hist.back().test_acc, 0.35);
}

TEST(Objectives, NamesAreStable) {
  attacks::AttackConfig c;
  EXPECT_EQ(CEObjective().name(), "CE");
  EXPECT_EQ(PGDATObjective(c).name(), "PGD-AT");
  EXPECT_EQ(TRADESObjective(c).name(), "TRADES");
  EXPECT_EQ(MARTObjective(c).name(), "MART");
  EXPECT_EQ(HBaRObjective().name(), "HBaR");
}

TEST(TrainerLoop, DeterministicGivenSeeds) {
  TrainSetup s;
  auto m1 = s.fresh_model(5);
  auto m2 = s.fresh_model(5);
  Trainer(m1, std::make_shared<CEObjective>(), s.tc(2)).fit(s.data.train);
  Trainer(m2, std::make_shared<CEObjective>(), s.tc(2)).fit(s.data.train);
  const auto p1 = m1->parameters();
  const auto p2 = m2->parameters();
  for (std::size_t i = 0; i < p1.size(); ++i) {
    for (std::int64_t k = 0; k < p1[i].numel(); ++k) {
      ASSERT_FLOAT_EQ(p1[i].value()[k], p2[i].value()[k]);
    }
  }
}

}  // namespace
}  // namespace ibrar::train
