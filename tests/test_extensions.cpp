// Extension attacks beyond the paper's evaluated battery: MI-FGSM and the
// black-box Square attack (gradient-masking control).

#include <gtest/gtest.h>

#include <cmath>

#include "attacks/mifgsm.hpp"
#include "attacks/pgd.hpp"
#include "attacks/square.hpp"
#include "data/registry.hpp"
#include "ibrar.hpp"  // umbrella header must compile standalone
#include "models/registry.hpp"
#include "train/trainer.hpp"

namespace ibrar {
namespace {

struct Setup {
  data::SyntheticData data = data::make_dataset("synth-cifar10", 400, 150);
  models::TapClassifierPtr model;

  Setup() {
    Rng rng(3);
    models::ModelSpec spec;
    spec.name = "vgg16";
    model = models::make_model(spec, rng);
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 100;
    train::Trainer(model, std::make_shared<train::CEObjective>(), tc)
        .fit(data.train);
  }
};

Setup& setup() {
  static Setup s;
  return s;
}

data::Batch probe_batch(std::int64_t n = 60) {
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  return data::make_batch(setup().data.test, idx);
}

void expect_in_ball(const Tensor& adv, const Tensor& x, float eps) {
  for (std::int64_t i = 0; i < adv.numel(); ++i) {
    EXPECT_LE(std::fabs(adv[i] - x[i]), eps + 1e-5);
    EXPECT_GE(adv[i], 0.0f);
    EXPECT_LE(adv[i], 1.0f);
  }
}

TEST(MIFGSMTest, StaysInBallAndAttacks) {
  auto b = probe_batch();
  attacks::AttackConfig cfg;
  cfg.steps = 10;
  attacks::MIFGSM atk(cfg);
  const Tensor adv = atk.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  EXPECT_LT(attacks::accuracy(*setup().model, adv, b.y),
            attacks::accuracy(*setup().model, b.x, b.y));
  EXPECT_EQ(atk.name(), "MIFGSM10");
}

TEST(MIFGSMTest, ComparableToNIFGSMFamily) {
  auto b = probe_batch();
  attacks::AttackConfig cfg;
  cfg.steps = 10;
  attacks::MIFGSM mi_atk(cfg);
  attacks::PGD pgd(cfg);
  const double mi_acc = attacks::accuracy(
      *setup().model, mi_atk.perturb(*setup().model, b.x, b.y), b.y);
  const double pgd_acc = attacks::accuracy(
      *setup().model, pgd.perturb(*setup().model, b.x, b.y), b.y);
  // Momentum FGSM should be in the same effectiveness league as PGD.
  EXPECT_LT(mi_acc, pgd_acc + 0.25);
}

TEST(SquareTest, BlackBoxStaysInBallAndAttacks) {
  auto b = probe_batch();
  attacks::AttackConfig cfg;
  cfg.steps = 150;  // queries
  attacks::SquareAttack atk(cfg);
  const Tensor adv = atk.perturb(*setup().model, b.x, b.y);
  expect_in_ball(adv, b.x, cfg.eps);
  EXPECT_LT(attacks::accuracy(*setup().model, adv, b.y),
            attacks::accuracy(*setup().model, b.x, b.y));
}

TEST(SquareTest, MoreQueriesNoWeaker) {
  auto b = probe_batch(40);
  attacks::AttackConfig c1;
  c1.steps = 30;
  c1.seed = 5;
  attacks::AttackConfig c2 = c1;
  c2.steps = 200;
  attacks::SquareAttack a1(c1), a2(c2);
  const double acc1 = attacks::accuracy(
      *setup().model, a1.perturb(*setup().model, b.x, b.y), b.y);
  const double acc2 = attacks::accuracy(
      *setup().model, a2.perturb(*setup().model, b.x, b.y), b.y);
  EXPECT_LE(acc2, acc1 + 0.08);
}

TEST(SquareTest, NoGradientMaskingInIBRAR) {
  // The gradient-masking control the Square attack exists for: a defense
  // whose white-box (PGD) accuracy vastly exceeds its black-box (Square)
  // accuracy is obfuscating gradients. IB-RAR should not show that pattern:
  // PGD must be at least as strong as (or close to) Square.
  auto b = probe_batch();
  attacks::AttackConfig pc;
  pc.steps = 10;
  attacks::PGD pgd(pc);
  attacks::AttackConfig sc;
  sc.steps = 200;
  attacks::SquareAttack square(sc);
  const double pgd_acc = attacks::accuracy(
      *setup().model, pgd.perturb(*setup().model, b.x, b.y), b.y);
  const double square_acc = attacks::accuracy(
      *setup().model, square.perturb(*setup().model, b.x, b.y), b.y);
  EXPECT_LE(pgd_acc, square_acc + 0.10);
}

}  // namespace
}  // namespace ibrar
