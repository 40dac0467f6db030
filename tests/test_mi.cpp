// MI machinery: kernels, HSIC properties and gradients, the Eq. (1)
// objective, per-channel scores + Eq. (3) mask, t-SNE.

#include <gtest/gtest.h>

#include <cmath>

#include "autograd/gradcheck.hpp"
#include "mi/channel_score.hpp"
#include "mi/hsic.hpp"
#include "mi/objective.hpp"
#include "mi/tsne.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace ibrar::mi {
namespace {

TEST(Kernels, GramGaussianProperties) {
  Rng rng(1);
  const Tensor x = randn({10, 4}, rng);
  const Tensor k = gram_gaussian(x, 2.0f);
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(k.at(i, i), 1.0f, 1e-6);  // zero self-distance
    for (std::int64_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(k.at(i, j), k.at(j, i), 1e-6);  // symmetry
      EXPECT_GE(k.at(i, j), 0.0f);
      EXPECT_LE(k.at(i, j), 1.0f + 1e-6);
    }
  }
}

TEST(Kernels, MedianSigmaPositive) {
  Rng rng(2);
  const Tensor x = randn({20, 6}, rng);
  EXPECT_GT(median_sigma(x), 0.0f);
  // Constant rows give the floor value, not zero / NaN.
  const Tensor c({5, 3}, 1.0f);
  EXPECT_GT(median_sigma(c), 0.0f);
}

TEST(Kernels, ScaledSigmaRule) {
  EXPECT_FLOAT_EQ(scaled_sigma(4, 5.0f), 10.0f);
  EXPECT_FLOAT_EQ(scaled_sigma(1, 1.0f), 1.0f);
}

TEST(Kernels, DifferentiableGramMatchesPlain) {
  Rng rng(3);
  const Tensor x = randn({8, 5}, rng);
  const Tensor plain = gram_gaussian(x, 1.5f);
  const ag::Var var = gram_gaussian(ag::Var::constant(x), 1.5f);
  for (std::int64_t i = 0; i < plain.numel(); ++i) {
    EXPECT_NEAR(plain[i], var.value()[i], 1e-4);
  }
}

TEST(HSIC, IndependentVariablesScoreNearZero) {
  // The biased estimator has O(1/m) bias, so use a larger sample and a
  // proportionate threshold.
  Rng rng(4);
  const Tensor x = randn({200, 3}, rng);
  const Tensor y = randn({200, 3}, rng);  // independent of x
  const float h_indep = hsic_gaussian(x, y, 1.0f, 1.0f);
  const float h_dep = hsic_gaussian(x, x, 1.0f, 1.0f);
  EXPECT_LT(std::fabs(h_indep), 0.25f * h_dep);
  EXPECT_GT(h_dep, 0.0f);
}

TEST(HSIC, DetectsFunctionalDependence) {
  Rng rng(5);
  const Tensor x = randn({50, 2}, rng);
  Tensor y({50, 2});
  for (std::int64_t i = 0; i < 50; ++i) {
    y.at(i, 0) = 2.0f * x.at(i, 0);
    y.at(i, 1) = -x.at(i, 1);
  }
  Tensor z = randn({50, 2}, rng);
  EXPECT_GT(hsic_gaussian(x, y, 1.0f, 1.0f), 3.0f * std::fabs(hsic_gaussian(x, z, 1.0f, 1.0f)));
}

TEST(HSIC, SymmetricInArguments) {
  Rng rng(6);
  const Tensor x = randn({20, 3}, rng);
  const Tensor y = randn({20, 4}, rng);
  const Tensor kx = gram_gaussian(x, 2.0f);
  const Tensor ky = gram_gaussian(y, 2.0f);
  EXPECT_NEAR(hsic(kx, ky), hsic(ky, kx), 1e-6);
}

TEST(HSIC, VarVersionMatchesPlain) {
  Rng rng(7);
  const Tensor x = randn({15, 4}, rng);
  const Tensor y = randn({15, 2}, rng);
  const Tensor kx = gram_gaussian(x, 1.0f);
  const Tensor ky = gram_gaussian(y, 1.0f);
  const float plain = hsic(kx, ky);
  const ag::Var v = hsic(ag::Var::constant(kx), ag::Var::constant(ky));
  EXPECT_NEAR(plain, v.value().item(), 1e-5);
}

TEST(HSIC, GradientFlowsThroughGram) {
  Rng rng(8);
  Tensor x = randn({8, 3}, rng);
  const Tensor y = randn({8, 2}, rng);
  const Tensor ky = gram_gaussian(y, 1.0f);
  auto fn = [&](const std::vector<ag::Var>& in) {
    return hsic(gram_gaussian(in[0], 1.0f), ag::Var::constant(ky));
  };
  const auto r = ag::gradcheck(fn, {ag::Var::param(x)}, 1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(IBObjective, SignsOfAlphaAndBeta) {
  // alpha term adds dependence on X; beta term subtracts dependence on Y.
  Rng rng(11);
  const Tensor x = rand_uniform({20, 3, 4, 4}, rng);
  std::vector<std::int64_t> labels(20);
  for (std::size_t i = 0; i < 20; ++i) labels[i] = static_cast<std::int64_t>(i % 4);
  // A tap that IS the input (max dependence on X).
  const ag::Var xv = ag::Var::constant(x);
  const std::vector<ag::Var> taps = {ag::flatten2d(xv)};
  IBObjectiveConfig only_alpha;
  only_alpha.alpha = 1.0f;
  only_alpha.beta = 0.0f;
  const float a_val = ib_objective(xv, taps, labels, 4, only_alpha).value().item();
  EXPECT_GT(a_val, 0.0f);

  IBObjectiveConfig only_beta;
  only_beta.alpha = 0.0f;
  only_beta.beta = 1.0f;
  const float b_val = ib_objective(xv, taps, labels, 4, only_beta).value().item();
  EXPECT_LE(b_val, 1e-6f);  // minus HSIC(Y, T) <= 0
}

TEST(IBObjective, LayerSubsetRestricts) {
  Rng rng(12);
  const Tensor x = rand_uniform({10, 3, 4, 4}, rng);
  std::vector<std::int64_t> labels(10, 0);
  for (std::size_t i = 0; i < 10; ++i) labels[i] = static_cast<std::int64_t>(i % 2);
  const ag::Var xv = ag::Var::constant(x);
  Rng rng2(13);
  const std::vector<ag::Var> taps = {
      ag::flatten2d(xv), ag::Var::constant(randn({10, 6}, rng2))};
  IBObjectiveConfig cfg;
  cfg.alpha = 1.0f;
  cfg.beta = 0.0f;
  cfg.layer_indices = {1};
  const float one = ib_objective(xv, taps, labels, 2, cfg).value().item();
  cfg.layer_indices = {};
  const float both = ib_objective(xv, taps, labels, 2, cfg).value().item();
  EXPECT_GT(both, one);  // tap 0 is x itself, so including it adds HSIC(X,X)
  cfg.layer_indices = {7};
  EXPECT_THROW(ib_objective(xv, taps, labels, 2, cfg), std::out_of_range);
}

TEST(ChannelScores, LabelCorrelatedChannelScoresHigher) {
  Rng rng(15);
  const std::int64_t n = 40;
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) labels[static_cast<std::size_t>(i)] = i % 2;
  // Channel 0 encodes the label, channel 1 is noise.
  Tensor feats({n, 2, 2, 2});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t k = 0; k < 4; ++k) {
      feats.data()[(i * 2 + 0) * 4 + k] =
          labels[static_cast<std::size_t>(i)] == 0 ? -1.0f : 1.0f;
      feats.data()[(i * 2 + 1) * 4 + k] = rng.normal();
    }
  }
  const auto scores = channel_label_scores(feats, labels, 2);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_GT(scores[0], scores[1]);
}

TEST(ChannelScores, MaskDropsLowestAndKeepsRest) {
  const std::vector<float> scores = {0.5f, 0.1f, 0.9f, 0.2f, 0.8f,
                                     0.7f, 0.6f, 0.3f, 0.4f, 0.05f};
  const Tensor mask = mask_from_scores(scores, 0.2f);  // drop 2 of 10
  EXPECT_FLOAT_EQ(mask[9], 0.0f);  // 0.05
  EXPECT_FLOAT_EQ(mask[1], 0.0f);  // 0.1
  float kept = 0;
  for (std::int64_t i = 0; i < 10; ++i) kept += mask[i];
  EXPECT_FLOAT_EQ(kept, 8.0f);
}

TEST(ChannelScores, MaskAlwaysDropsAtLeastOne) {
  const std::vector<float> scores = {0.5f, 0.6f, 0.7f, 0.8f};
  const Tensor mask = mask_from_scores(scores, 0.05f);  // 5% of 4 rounds to 0
  float kept = 0;
  for (std::int64_t i = 0; i < 4; ++i) kept += mask[i];
  EXPECT_FLOAT_EQ(kept, 3.0f);
}

TEST(ChannelScores, ZeroFractionKeepsAll) {
  const Tensor mask = mask_from_scores({0.1f, 0.2f}, 0.0f);
  EXPECT_FLOAT_EQ(mask[0] + mask[1], 2.0f);
}

TEST(TSNE, SeparatesWellSeparatedClusters) {
  Rng rng(17);
  const std::int64_t per = 20;
  Tensor x({3 * per, 5});
  std::vector<std::int64_t> labels(static_cast<std::size_t>(3 * per));
  for (std::int64_t c = 0; c < 3; ++c) {
    for (std::int64_t i = 0; i < per; ++i) {
      const auto row = c * per + i;
      labels[static_cast<std::size_t>(row)] = c;
      for (std::int64_t d = 0; d < 5; ++d) {
        x.at(row, d) = 8.0f * static_cast<float>(c == d) + rng.normal(0, 0.3f);
      }
    }
  }
  TSNEConfig cfg;
  cfg.iterations = 150;
  const Tensor emb = tsne(x, cfg);
  EXPECT_EQ(emb.shape(), (Shape{3 * per, 2}));
  EXPECT_TRUE(emb.all_finite());
  const auto m = cluster_metrics(emb, labels);
  EXPECT_GT(m.separation_ratio, 1.5);
  EXPECT_GT(m.silhouette, 0.3);
}

TEST(TSNE, RejectsTinyInputs) {
  EXPECT_THROW(tsne(Tensor({3, 2})), std::invalid_argument);
}

TEST(ClusterMetrics, PerfectVsRandomLabels) {
  Rng rng(18);
  Tensor pts({20, 2});
  std::vector<std::int64_t> good(20), bad(20);
  for (std::int64_t i = 0; i < 20; ++i) {
    const auto c = i < 10 ? 0 : 1;
    good[static_cast<std::size_t>(i)] = c;
    bad[static_cast<std::size_t>(i)] = i % 2;
    pts.at(i, 0) = static_cast<float>(c * 10) + rng.normal(0, 0.2f);
    pts.at(i, 1) = rng.normal(0, 0.2f);
  }
  const auto mg = cluster_metrics(pts, good);
  const auto mb = cluster_metrics(pts, bad);
  EXPECT_GT(mg.separation_ratio, 5.0);
  EXPECT_GT(mg.silhouette, 0.8);
  EXPECT_LT(mb.silhouette, 0.1);
}

}  // namespace
}  // namespace ibrar::mi
