// Attack suite invariants: eps-ball containment, [0,1] clipping, loss/error
// increase, step monotonicity, determinism, and the adaptive attack.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "attacks/adaptive.hpp"
#include "attacks/cw.hpp"
#include "attacks/fab.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/nifgsm.hpp"
#include "attacks/pgd.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "tensor/ops.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

namespace ibrar::attacks {
namespace {

/// Shared fixture: a small model trained briefly on synthetic data so attacks
/// have real gradients to follow. Built once for the whole test binary.
struct TrainedSetup {
  data::SyntheticData data = data::make_dataset("synth-cifar10", 300, 120);
  models::TapClassifierPtr model;

  TrainedSetup() {
    Rng rng(3);
    models::ModelSpec spec;
    spec.name = "mlp";  // fast; attacks only need differentiable logits
    model = models::make_model(spec, rng);
    train::TrainConfig tc;
    tc.epochs = 5;
    tc.batch_size = 50;
    train::Trainer trainer(model, std::make_shared<train::CEObjective>(), tc);
    trainer.fit(data.train);
  }
};

TrainedSetup& setup() {
  static TrainedSetup s;
  return s;
}

data::Batch eval_batch(std::int64_t n = 60) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  return data::make_batch(setup().data.test, idx);
}

void expect_in_ball(const Tensor& adv, const Tensor& x, float eps) {
  float max_d = 0;
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    max_d = std::max(max_d, std::fabs(adv[i] - x[i]));
    EXPECT_GE(adv[i], 0.0f);
    EXPECT_LE(adv[i], 1.0f);
  }
  EXPECT_LE(max_d, eps + 1e-5);
}

TEST(Common, ProjectLinf) {
  Tensor x({4}, {0.5f, 0.0f, 1.0f, 0.2f});
  Tensor adv({4}, {0.9f, -0.5f, 1.5f, 0.21f});
  project_linf(adv, x, 0.1f, 0.0f, 1.0f);
  EXPECT_FLOAT_EQ(adv[0], 0.6f);
  EXPECT_FLOAT_EQ(adv[1], 0.0f);
  EXPECT_FLOAT_EQ(adv[2], 1.0f);
  EXPECT_FLOAT_EQ(adv[3], 0.21f);
}

TEST(Common, InputGradientNonzeroAndShaped) {
  auto b = eval_batch(20);
  const Tensor g = input_gradient(*setup().model, b.x, b.y);
  EXPECT_EQ(g.shape(), b.x.shape());
  EXPECT_GT(sum_all(abs(g)), 0.0f);
}

TEST(Common, AttackModeGuardRestoresState) {
  auto& model = *setup().model;
  model.set_training(true);
  {
    AttackModeGuard guard(model);
    EXPECT_FALSE(model.training());
    for (auto& p : model.parameters()) EXPECT_FALSE(p.node()->requires_grad);
  }
  EXPECT_TRUE(model.training());
  for (auto& p : model.parameters()) EXPECT_TRUE(p.node()->requires_grad);
  model.set_training(false);
}

TEST(Common, AccuracyHelperMatchesManualCount) {
  auto b = eval_batch(30);
  const double acc = accuracy(*setup().model, b.x, b.y);
  const auto pred = predict(*setup().model, b.x);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    correct += pred[i] == b.y[i] ? 1 : 0;
  }
  EXPECT_NEAR(acc, static_cast<double>(correct) / 30.0, 1e-9);
}

class LinfAttackSweep
    : public ::testing::TestWithParam<std::function<AttackPtr(AttackConfig)>> {};

TEST(FGSMTest, StaysInBallAndHurtsAccuracy) {
  auto b = eval_batch();
  AttackConfig cfg;
  FGSM fgsm(cfg);
  const Tensor adv = fgsm.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  const double clean = accuracy(*setup().model, b.x, b.y);
  const double attacked = accuracy(*setup().model, adv, b.y);
  EXPECT_LT(attacked, clean);
}

TEST(PGDTest, StaysInBallAndBeatsFGSM) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 10;
  PGD pgd(cfg);
  const Tensor adv = pgd.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  FGSM fgsm(AttackConfig{});
  const Tensor adv1 = fgsm.perturb(*setup().model, b.x, b.y);
  EXPECT_LE(accuracy(*setup().model, adv, b.y),
            accuracy(*setup().model, adv1, b.y) + 0.05);
}

TEST(PGDTest, MoreStepsNoWeaker) {
  auto b = eval_batch();
  AttackConfig c1;
  c1.steps = 1;
  c1.random_start = false;
  AttackConfig c10 = c1;
  c10.steps = 10;
  PGD p1(c1), p10(c10);
  const double a1 = accuracy(*setup().model, p1.perturb(*setup().model, b.x, b.y), b.y);
  const double a10 = accuracy(*setup().model, p10.perturb(*setup().model, b.x, b.y), b.y);
  EXPECT_LE(a10, a1 + 0.05);
}

TEST(PGDTest, DeterministicGivenSeed) {
  auto b = eval_batch(20);
  AttackConfig cfg;
  cfg.seed = 77;
  PGD a(cfg), c(cfg);
  const Tensor adv_a = a.perturb(*setup().model, b.x, b.y);
  const Tensor adv_c = c.perturb(*setup().model, b.x, b.y);
  for (std::int64_t i = 0; i < adv_a.numel(); ++i) {
    EXPECT_FLOAT_EQ(adv_a[i], adv_c[i]);
  }
}

TEST(PGDTest, ZeroEpsIsNoOp) {
  auto b = eval_batch(10);
  AttackConfig cfg;
  cfg.eps = 0.0f;
  cfg.alpha = 0.0f;
  PGD pgd(cfg);
  const Tensor adv = pgd.perturb(*setup().model, b.x, b.y);
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    EXPECT_NEAR(adv[i], b.x[i], 1e-6);
  }
}

TEST(NIFGSMTest, StaysInBallAndAttacks) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 10;
  NIFGSM ni(cfg);
  const Tensor adv = ni.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  EXPECT_LT(accuracy(*setup().model, adv, b.y),
            accuracy(*setup().model, b.x, b.y));
}

TEST(CWTest, ProducesMisclassificationWithSmallL2) {
  auto b = eval_batch(30);
  AttackConfig cfg;
  cfg.steps = 40;
  CW cw(cfg, /*c=*/5.0f);
  const Tensor adv = cw.perturb(*setup().model, b.x, b.y);
  // CW is an L2 attack: outputs must be valid images and lower accuracy.
  EXPECT_GE(min_all(adv), -1e-5f);
  EXPECT_LE(max_all(adv), 1.0f + 1e-5f);
  const double clean = accuracy(*setup().model, b.x, b.y);
  const double attacked = accuracy(*setup().model, adv, b.y);
  EXPECT_LT(attacked, clean);
  // Successful examples should not be wildly far from the originals.
  const std::int64_t img = b.x.numel() / b.x.dim(0);
  double mean_l2 = 0;
  for (std::int64_t i = 0; i < b.x.dim(0); ++i) {
    double l2 = 0;
    for (std::int64_t k = 0; k < img; ++k) {
      const double d = adv[i * img + k] - b.x[i * img + k];
      l2 += d * d;
    }
    mean_l2 += std::sqrt(l2);
  }
  mean_l2 /= b.x.dim(0);
  EXPECT_LT(mean_l2, 10.0);
}

TEST(FABTest, StaysInBallAndAttacks) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 8;
  FAB fab(cfg);
  const Tensor adv = fab.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  EXPECT_LT(accuracy(*setup().model, adv, b.y),
            accuracy(*setup().model, b.x, b.y) + 1e-9);
}

TEST(AdaptiveTest, AttacksThroughIBObjective) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 5;
  mi::IBObjectiveConfig ib;
  ib.alpha = 1.0f;
  ib.beta = 0.1f;
  AdaptivePGD ad(cfg, ib);
  const Tensor adv = ad.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  EXPECT_LT(accuracy(*setup().model, adv, b.y),
            accuracy(*setup().model, b.x, b.y));
}

TEST(Names, ReflectStepCounts) {
  AttackConfig c;
  c.steps = 10;
  EXPECT_EQ(PGD(c).name(), "PGD10");
  EXPECT_EQ(NIFGSM(c).name(), "NIFGSM10");
  EXPECT_EQ(CW(c).name(), "CW10");
  EXPECT_EQ(FAB(c).name(), "FAB10");
  EXPECT_EQ(FGSM(c).name(), "FGSM");
  EXPECT_EQ(AdaptivePGD(c, {}).name(), "PGD10-AD");
}

TEST(Evaluate, AdversarialLowerThanClean) {
  AttackConfig cfg;
  cfg.steps = 5;
  PGD pgd(cfg);
  const auto report = train::evaluate_robust(*setup().model,
                                             setup().data.test, {&pgd},
                                             {50, 100});
  EXPECT_LT(report.per_attack.front().robust_acc, report.clean_acc);
}

TEST(Evaluate, RejectsNonPositiveBatchSize) {
  // A sweep that steps by batch_size could never finish.
  PGD pgd(AttackConfig{});
  for (const std::int64_t batch : {std::int64_t{0}, std::int64_t{-1}}) {
    EXPECT_THROW(train::evaluate_robust(*setup().model, setup().data.test,
                                        {&pgd}, {batch, 10}),
                 std::invalid_argument)
        << batch;
    EXPECT_THROW(train::evaluate_robust(*setup().model, setup().data.test,
                                        std::vector<Attack*>{}, {batch, 10}),
                 std::invalid_argument)
        << batch;
    EXPECT_THROW(train::adversarial_predictions(
                     *setup().model, setup().data.test, pgd, batch, 10),
                 std::invalid_argument)
        << batch;
  }
}

TEST(Evaluate, PredictionsCountMatchesRequest) {
  AttackConfig cfg;
  cfg.steps = 2;
  PGD pgd(cfg);
  const auto preds = train::adversarial_predictions(
      *setup().model, setup().data.test, pgd, 50, 70);
  EXPECT_EQ(preds.size(), 70u);
}

}  // namespace
}  // namespace ibrar::attacks
