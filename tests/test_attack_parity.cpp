// Old-vs-new parity: the engine-composed attacks must reproduce the seed
// implementations bit-exactly at a fixed seed with the active set off, and
// must leave robust accuracy unchanged with the active set on.
//
// The reference functions below are verbatim copies of the pre-refactor
// perturb() bodies (seed commit a1173ce), expressed through the public
// helpers they used (input_gradient, project_linf, margin_loss, randn,
// rand_uniform). If the engine drifts by a single ulp, these tests fail.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "attacks/engine.hpp"
#include "attacks/fgsm.hpp"
#include "attacks/mifgsm.hpp"
#include "attacks/nifgsm.hpp"
#include "attacks/pgd.hpp"
#include "attacks/registry.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/reduce.hpp"
#include "train/evaluate.hpp"
#include "train/trades.hpp"
#include "train/trainer.hpp"

namespace ibrar::attacks {
namespace {

struct TrainedSetup {
  data::SyntheticData data = data::make_dataset("synth-cifar10", 300, 120);
  models::TapClassifierPtr model;

  TrainedSetup() {
    Rng rng(3);
    models::ModelSpec spec;
    spec.name = "mlp";
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

data::Batch eval_batch(std::int64_t n = 40) {
  return data::make_batch(setup().data.test, 0, n);
}

void expect_bit_equal(const Tensor& a, const Tensor& b, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at flat index " << i;
  }
}

// ---- reference (seed) implementations ---------------------------------------

Tensor seed_fgsm(models::TapClassifier& model, const Tensor& x,
                 const std::vector<std::int64_t>& y, const AttackConfig& cfg) {
  AttackModeGuard guard(model);
  const Tensor g = input_gradient(model, x, y);
  Tensor adv = add(x, mul_scalar(sign(g), cfg.eps));
  project_linf(adv, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
  return adv;
}

Tensor seed_pgd_trajectory(models::TapClassifier& model, const Tensor& x,
                           const std::vector<std::int64_t>& y, Tensor adv,
                           const AttackConfig& cfg) {
  for (std::int64_t s = 0; s < cfg.steps; ++s) {
    const Tensor g = input_gradient(model, adv, y);
    adv = add(adv, mul_scalar(sign(g), cfg.alpha));
    project_linf(adv, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
  }
  return adv;
}

Tensor seed_pgd(models::TapClassifier& model, const Tensor& x,
                const std::vector<std::int64_t>& y, const AttackConfig& cfg,
                Rng& rng) {
  AttackModeGuard guard(model);
  const std::int64_t restarts =
      cfg.random_start ? std::max<std::int64_t>(1, cfg.restarts) : 1;
  auto start_for_restart = [&]() {
    Tensor adv = x;
    if (cfg.random_start) {
      const Tensor noise = rand_uniform(x.shape(), rng, -cfg.eps, cfg.eps);
      adv = add(adv, noise);
      project_linf(adv, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
    }
    return adv;
  };
  if (restarts == 1) {
    return seed_pgd_trajectory(model, x, y, start_for_restart(), cfg);
  }
  const auto n = x.dim(0);
  const std::int64_t img = n > 0 ? x.numel() / n : 0;
  Tensor best_adv = x;
  std::vector<float> best(static_cast<std::size_t>(n),
                          std::numeric_limits<float>::infinity());
  for (std::int64_t r = 0; r < restarts; ++r) {
    const Tensor adv = seed_pgd_trajectory(model, x, y, start_for_restart(), cfg);
    std::vector<float> m;
    {
      ag::NoGradGuard ng;
      m = margin_loss(model.forward(ag::Var::constant(adv)).value(), y);
    }
    for (std::int64_t i = 0; i < n; ++i) {
      const auto u = static_cast<std::size_t>(i);
      if (m[u] < best[u]) {
        best[u] = m[u];
        std::copy_n(adv.data().begin() + i * img, img,
                    best_adv.data().begin() + i * img);
      }
    }
  }
  return best_adv;
}

Tensor seed_mifgsm(models::TapClassifier& model, const Tensor& x,
                   const std::vector<std::int64_t>& y, const AttackConfig& cfg,
                   float decay) {
  AttackModeGuard guard(model);
  Tensor adv = x;
  Tensor g_acc(x.shape());
  for (std::int64_t s = 0; s < cfg.steps; ++s) {
    Tensor g = input_gradient(model, adv, y);
    const float l1 = sum_all(abs(g)) / static_cast<float>(g.dim(0));
    if (l1 > 1e-12f) g = mul_scalar(g, 1.0f / l1);
    g_acc = add(mul_scalar(g_acc, decay), g);
    adv = add(adv, mul_scalar(sign(g_acc), cfg.alpha));
    project_linf(adv, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
  }
  return adv;
}

Tensor seed_nifgsm(models::TapClassifier& model, const Tensor& x,
                   const std::vector<std::int64_t>& y, const AttackConfig& cfg,
                   float momentum) {
  AttackModeGuard guard(model);
  Tensor adv = x;
  Tensor g_acc(x.shape());
  for (std::int64_t s = 0; s < cfg.steps; ++s) {
    Tensor nes = add(adv, mul_scalar(g_acc, cfg.alpha * momentum));
    project_linf(nes, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
    Tensor g = input_gradient(model, nes, y);
    const float l1 = sum_all(abs(g)) / static_cast<float>(g.dim(0));
    if (l1 > 1e-12f) g = mul_scalar(g, 1.0f / l1);
    g_acc = add(mul_scalar(g_acc, momentum), g);
    adv = add(adv, mul_scalar(sign(g_acc), cfg.alpha));
    project_linf(adv, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
  }
  return adv;
}

Tensor seed_trades_kl_pgd(models::TapClassifier& model, const Tensor& x,
                          const Tensor& p_clean, const AttackConfig& inner,
                          Rng& rng) {
  AttackModeGuard guard(model);
  Tensor adv = x;
  {
    Tensor noise = randn(x.shape(), rng, 0.0f, 1e-3f);
    adv = add(adv, noise);
    project_linf(adv, x, inner.eps, inner.clip_lo, inner.clip_hi);
  }
  const ag::Var p_const = ag::Var::constant(p_clean);
  for (std::int64_t s = 0; s < inner.steps; ++s) {
    ag::Var input = ag::Var::param(adv);
    ag::Var kl = ag::kl_div(p_const, ag::log_softmax(model.forward(input)));
    kl.backward();
    adv = add(adv, mul_scalar(sign(input.grad()), inner.alpha));
    project_linf(adv, x, inner.eps, inner.clip_lo, inner.clip_hi);
  }
  return adv;
}

// ---- bit-exact parity (active set off) --------------------------------------

TEST(Parity, FGSMBitExact) {
  auto b = eval_batch();
  AttackConfig cfg;
  FGSM fgsm(cfg);
  expect_bit_equal(fgsm.perturb(*setup().model, b.x, b.y),
                   seed_fgsm(*setup().model, b.x, b.y, cfg), "FGSM");
}

TEST(Parity, PGDSingleRestartBitExact) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 10;
  cfg.seed = 1234;
  PGD pgd(cfg);
  Rng ref_rng(cfg.seed);
  expect_bit_equal(pgd.perturb(*setup().model, b.x, b.y),
                   seed_pgd(*setup().model, b.x, b.y, cfg, ref_rng), "PGD10");
}

TEST(Parity, PGDNoRandomStartBitExact) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 5;
  cfg.random_start = false;
  cfg.restarts = 4;  // seed collapses restarts without random start
  PGD pgd(cfg);
  Rng ref_rng(cfg.seed);
  expect_bit_equal(pgd.perturb(*setup().model, b.x, b.y),
                   seed_pgd(*setup().model, b.x, b.y, cfg, ref_rng),
                   "PGD5 deterministic");
}

TEST(Parity, PGDMultiRestartBitExact) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 5;
  cfg.restarts = 3;
  cfg.seed = 99;
  PGD pgd(cfg);
  Rng ref_rng(cfg.seed);
  expect_bit_equal(pgd.perturb(*setup().model, b.x, b.y),
                   seed_pgd(*setup().model, b.x, b.y, cfg, ref_rng),
                   "PGD5x3 restarts");
}

TEST(Parity, PGDStreamPersistsAcrossBatches) {
  // The attack object's RNG stream must keep advancing across perturb calls
  // exactly like the seed implementation's member Rng did.
  auto b1 = eval_batch(20);
  auto b2 = data::make_batch(setup().data.test, 20, 40);
  AttackConfig cfg;
  cfg.steps = 3;
  PGD pgd(cfg);
  Rng ref_rng(cfg.seed);
  expect_bit_equal(pgd.perturb(*setup().model, b1.x, b1.y),
                   seed_pgd(*setup().model, b1.x, b1.y, cfg, ref_rng),
                   "PGD batch 1");
  expect_bit_equal(pgd.perturb(*setup().model, b2.x, b2.y),
                   seed_pgd(*setup().model, b2.x, b2.y, cfg, ref_rng),
                   "PGD batch 2");
}

TEST(Parity, MIFGSMBitExact) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 8;
  MIFGSM mi(cfg);
  expect_bit_equal(mi.perturb(*setup().model, b.x, b.y),
                   seed_mifgsm(*setup().model, b.x, b.y, cfg, 1.0f), "MIFGSM");
}

TEST(Parity, NIFGSMBitExact) {
  auto b = eval_batch();
  AttackConfig cfg;
  cfg.steps = 8;
  NIFGSM ni(cfg);
  expect_bit_equal(ni.perturb(*setup().model, b.x, b.y),
                   seed_nifgsm(*setup().model, b.x, b.y, cfg, 1.0f), "NIFGSM");
}

TEST(Parity, TRADESInnerKLPGDBitExact) {
  auto b = eval_batch(30);
  AttackConfig inner;
  inner.steps = 7;
  inner.seed = 4242;
  Tensor p_clean;
  {
    ag::NoGradGuard ng;
    setup().model->set_training(false);
    p_clean = softmax_rows(
        setup().model->forward(ag::Var::constant(b.x)).value());
  }
  train::TRADESObjective trades(inner);
  Rng ref_rng(inner.seed ^ 0x7d5u);  // the objective's documented stream
  expect_bit_equal(
      trades.kl_pgd(*setup().model, b.x, b.y, p_clean),
      seed_trades_kl_pgd(*setup().model, b.x, p_clean, inner, ref_rng),
      "TRADES inner KL-PGD");
}

// ---- active-set invariance --------------------------------------------------

double robust_acc(Attack& atk, const data::Batch& b) {
  const Tensor adv = atk.perturb(*setup().model, b.x, b.y);
  return accuracy(*setup().model, adv, b.y);
}

TEST(ActiveSet, RobustAccuracyUnchangedPGD) {
  auto b = eval_batch(60);
  AttackConfig cfg;
  cfg.steps = 10;
  cfg.track_best = BestMode::kPerStep;
  PGD full(cfg);
  AttackConfig cfg_as = cfg;
  cfg_as.active_set = true;
  PGD compact(cfg_as);
  EXPECT_DOUBLE_EQ(robust_acc(full, b), robust_acc(compact, b));
}

TEST(ActiveSet, RobustAccuracyUnchangedPGDRestarts) {
  auto b = eval_batch(60);
  AttackConfig cfg;
  cfg.steps = 5;
  cfg.restarts = 3;
  cfg.track_best = BestMode::kPerStep;
  PGD full(cfg);
  AttackConfig cfg_as = cfg;
  cfg_as.active_set = true;
  PGD compact(cfg_as);
  EXPECT_DOUBLE_EQ(robust_acc(full, b), robust_acc(compact, b));
}

TEST(ActiveSet, RobustAccuracyUnchangedFgsmThenPgdComposite) {
  // The composite through evaluate_robust's spec strings, with active_set=1
  // on each stage against none. best=step returns the min-margin iterate,
  // the mode under which accuracy equality is exact by construction.
  for (const std::string pgd : {"pgd:steps=5,best=step",
                                "pgd:steps=20,best=step"}) {
    const std::string fgsm = "fgsm:best=step";
    const auto full = train::evaluate_robust(
        *setup().model, setup().data.test,
        std::vector<std::string>{fgsm + "->" + pgd}, {40});
    const auto active = train::evaluate_robust(
        *setup().model, setup().data.test,
        std::vector<std::string>{fgsm + ",active_set=1->" + pgd +
                                 ",active_set=1"},
        {40});
    EXPECT_DOUBLE_EQ(full.per_attack.front().robust_acc,
                     active.per_attack.front().robust_acc)
        << pgd;
  }
}

TEST(ActiveSet, SurvivorRowsBitExact) {
  // Examples the attack never fools must come back bit-identical with the
  // active set on or off: eval-mode forwards are row-independent, so
  // compaction cannot perturb a survivor's trajectory.
  auto b = eval_batch(60);
  AttackConfig cfg;
  cfg.steps = 10;
  cfg.track_best = BestMode::kPerStep;
  PGD full(cfg);
  const Tensor adv_full = full.perturb(*setup().model, b.x, b.y);
  AttackConfig cfg_as = cfg;
  cfg_as.active_set = true;
  PGD compact(cfg_as);
  const Tensor adv_as = compact.perturb(*setup().model, b.x, b.y);
  const auto pred = predict(*setup().model, adv_as);
  const std::int64_t img = b.x.numel() / b.x.dim(0);
  std::int64_t survivors = 0;
  for (std::int64_t i = 0; i < b.x.dim(0); ++i) {
    if (pred[static_cast<std::size_t>(i)] != b.y[static_cast<std::size_t>(i)]) {
      continue;  // fooled rows legitimately stop at their first success
    }
    ++survivors;
    for (std::int64_t k = 0; k < img; ++k) {
      ASSERT_EQ(adv_full[i * img + k], adv_as[i * img + k])
          << "survivor row " << i << " diverged at offset " << k;
    }
  }
  EXPECT_GT(survivors, 0) << "probe model too weak for the invariance check";
}

TEST(ActiveSet, FullRetirementDoesNotShiftRNGStream) {
  // When every example retires early (here: labels chosen so the whole batch
  // is misclassified from the start), later restarts must still consume
  // their full-batch noise draws — otherwise the attack object's persistent
  // stream shifts and the NEXT batch diverges from the active_set=off run.
  auto wrong = eval_batch(20);
  {
    const auto pred = predict(*setup().model, wrong.x);
    for (std::size_t i = 0; i < wrong.y.size(); ++i) {
      wrong.y[i] = (pred[i] + 1) % 10;  // guaranteed misclassified at start
    }
  }
  auto b2 = data::make_batch(setup().data.test, 20, 60);

  AttackConfig cfg;
  cfg.steps = 3;
  cfg.restarts = 3;
  cfg.track_best = BestMode::kPerStep;
  PGD full(cfg);
  AttackConfig cfg_as = cfg;
  cfg_as.active_set = true;
  PGD compact(cfg_as);

  (void)full.perturb(*setup().model, wrong.x, wrong.y);
  (void)compact.perturb(*setup().model, wrong.x, wrong.y);
  const Tensor adv_full = full.perturb(*setup().model, b2.x, b2.y);
  const Tensor adv_as = compact.perturb(*setup().model, b2.x, b2.y);
  EXPECT_DOUBLE_EQ(accuracy(*setup().model, adv_full, b2.y),
                   accuracy(*setup().model, adv_as, b2.y));
  // Survivors of the second batch must still be bit-identical.
  const auto pred2 = predict(*setup().model, adv_as);
  const std::int64_t img = b2.x.numel() / b2.x.dim(0);
  for (std::int64_t i = 0; i < b2.x.dim(0); ++i) {
    if (pred2[static_cast<std::size_t>(i)] != b2.y[static_cast<std::size_t>(i)]) {
      continue;
    }
    for (std::int64_t k = 0; k < img; ++k) {
      ASSERT_EQ(adv_full[i * img + k], adv_as[i * img + k])
          << "batch-2 survivor row " << i << " diverged at offset " << k;
    }
  }
}

TEST(ActiveSet, RejectedForBatchCoupledAttacks) {
  auto b = eval_batch(10);
  AttackConfig cfg;
  cfg.steps = 2;
  cfg.active_set = true;
  MIFGSM mi(cfg);
  EXPECT_THROW(mi.perturb(*setup().model, b.x, b.y), std::invalid_argument);
  NIFGSM ni(cfg);
  EXPECT_THROW(ni.perturb(*setup().model, b.x, b.y), std::invalid_argument);
}

TEST(ActiveSet, SquareMatchesSeedRNGSchedule) {
  // Square's compaction is always on; determinism across runs of the same
  // object config must hold (the RNG draws only depend on the survivor set,
  // which is itself deterministic).
  auto b = eval_batch(20);
  AttackConfig cfg;
  cfg.steps = 30;
  auto a1 = make("square", cfg);
  auto a2 = make("square", cfg);
  expect_bit_equal(a1->perturb(*setup().model, b.x, b.y),
                   a2->perturb(*setup().model, b.x, b.y), "Square determinism");
}

}  // namespace
}  // namespace ibrar::attacks
