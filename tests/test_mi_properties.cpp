// Property/invariant sweep for the rebuilt MI core: the symmetric blocked
// Gram driver, the fused-centering HSIC (plain + differentiable) and its
// >= 5x floor over the seed pipeline, the sampled median bandwidth, and the
// parallel channel scores.
// Complements tests/test_mi.cpp, which covers the estimators' statistical
// behavior.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/gradcheck.hpp"
#include "mi/channel_score.hpp"
#include "mi/hsic.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "timing.hpp"

namespace ibrar::mi {
namespace {

/// O(n^2 d) reference Gram, the seed's construction: per-pair distance
/// accumulated in double, no GEMM, no symmetry. Serial.
Tensor naive_gram_gaussian(const Tensor& x, float sigma) {
  const auto n = x.dim(0);
  const auto d = x.dim(1);
  const float scale = -1.0f / (2.0f * sigma * sigma);
  const float* px = x.data().data();
  Tensor k({n, n});
  for (std::int64_t i = 0; i < n; ++i) {
    const float* xi = px + i * d;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* xj = px + j * d;
      double s = 0.0;
      for (std::int64_t t = 0; t < d; ++t) {
        const double diff = static_cast<double>(xi[t]) - xj[t];
        s += diff * diff;
      }
      k[i * n + j] = std::exp(static_cast<float>(s) * scale);
    }
  }
  return k;
}

/// Reference HSIC with an explicit H and double-precision trace.
double explicit_center_hsic(const Tensor& kx, const Tensor& ky) {
  const auto m = kx.dim(0);
  std::vector<double> h(static_cast<std::size_t>(m * m));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < m; ++j) {
      h[static_cast<std::size_t>(i * m + j)] =
          (i == j ? 1.0 : 0.0) - 1.0 / static_cast<double>(m);
    }
  }
  std::vector<double> hk(static_cast<std::size_t>(m * m), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < m; ++p) {
      for (std::int64_t j = 0; j < m; ++j) {
        hk[static_cast<std::size_t>(i * m + j)] +=
            h[static_cast<std::size_t>(i * m + p)] * kx.at(p, j);
      }
    }
  }
  std::vector<double> hkh(static_cast<std::size_t>(m * m), 0.0);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t p = 0; p < m; ++p) {
      for (std::int64_t j = 0; j < m; ++j) {
        hkh[static_cast<std::size_t>(i * m + j)] +=
            hk[static_cast<std::size_t>(i * m + p)] *
            h[static_cast<std::size_t>(p * m + j)];
      }
    }
  }
  double tr = 0.0;
  for (std::int64_t i = 0; i < m * m; ++i) {
    tr += hkh[static_cast<std::size_t>(i)] * ky[i];
  }
  return tr / (static_cast<double>(m - 1) * static_cast<double>(m - 1));
}

/// The seed's HSIC, the baseline the 5x floor is timed against: H
/// materialized in float, centered with two naive GEMMs, then the trace. The
/// double-precision reference above would be slower and ease the floor.
float seed_hsic(const Tensor& kx, const Tensor& ky) {
  const auto m = kx.dim(0);
  Tensor h = Tensor::eye(m);
  const float inv_m = 1.0f / static_cast<float>(m);
  for (std::int64_t i = 0; i < m * m; ++i) h[i] -= inv_m;
  Tensor hk({m, m}), hkh({m, m});
  gemm_naive(h.data().data(), GemmLayout::kRowMajor, kx.data().data(),
             GemmLayout::kRowMajor, hk.data().data(), m, m, m);
  gemm_naive(hk.data().data(), GemmLayout::kRowMajor, h.data().data(),
             GemmLayout::kRowMajor, hkh.data().data(), m, m, m);
  double tr = 0.0;
  for (std::int64_t i = 0; i < m * m; ++i) {
    tr += static_cast<double>(hkh[i]) * ky[i];
  }
  return static_cast<float>(
      tr / (static_cast<double>(m - 1) * static_cast<double>(m - 1)));
}

/// A dependent y for x: its first `cols` columns.
Tensor first_columns(const Tensor& x, std::int64_t cols) {
  Tensor y({x.dim(0), cols});
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    for (std::int64_t j = 0; j < cols; ++j) y.at(i, j) = x.at(i, j);
  }
  return y;
}

TEST(MatmulNtSym, BitIdenticalToMatmulNtAtRaggedSizes) {
  const std::int64_t shapes[][2] = {{1, 3},   {2, 1},   {3, 5},    {5, 17},
                                    {17, 33}, {33, 64}, {64, 130}, {127, 63},
                                    {129, 257}, {200, 40}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s[0] * 131 + s[1]));
    const Tensor x = randn({s[0], s[1]}, rng);
    const Tensor ref = matmul_nt(x, x);
    const Tensor sym = matmul_nt_sym(x);
    ASSERT_TRUE(ref.same_shape(sym));
    EXPECT_EQ(std::memcmp(ref.data().data(), sym.data().data(),
                          sizeof(float) * static_cast<std::size_t>(ref.numel())),
              0)
        << "shape " << s[0] << "x" << s[1];
  }
}

TEST(MatmulNtSym, ThreadCountBitIdentical) {
  Rng rng(7);
  const Tensor x = randn({150, 70}, rng);
  runtime::set_num_threads(1);
  const Tensor one = matmul_nt_sym(x);
  runtime::set_num_threads(4);
  const Tensor four = matmul_nt_sym(x);
  runtime::set_num_threads(0);  // restore auto
  EXPECT_EQ(std::memcmp(one.data().data(), four.data().data(),
                        sizeof(float) * static_cast<std::size_t>(one.numel())),
            0);
}

TEST(GramBlocked, MatchesNaiveReferenceAtRaggedSizes) {
  const std::int64_t shapes[][2] = {{2, 1},   {3, 7},     {5, 64},  {33, 9},
                                    {65, 33}, {130, 257}, {64, 128}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s[0] * 17 + s[1]));
    const Tensor x = randn({s[0], s[1]}, rng);
    const float sigma = scaled_sigma(s[1]);
    const Tensor ref = naive_gram_gaussian(x, sigma);
    const Tensor got = gram_gaussian(x, sigma);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      EXPECT_NEAR(got[i], ref[i], 1e-4f) << "shape " << s[0] << "x" << s[1]
                                         << " elem " << i;
    }
  }
}

TEST(GramBlocked, ThreadCountBitIdentical) {
  Rng rng(9);
  const Tensor x = randn({170, 90}, rng);
  runtime::set_num_threads(1);
  const Tensor one = gram_gaussian(x, 5.0f);
  runtime::set_num_threads(4);
  const Tensor four = gram_gaussian(x, 5.0f);
  runtime::set_num_threads(0);
  EXPECT_EQ(std::memcmp(one.data().data(), four.data().data(),
                        sizeof(float) * static_cast<std::size_t>(one.numel())),
            0);
}

TEST(HsicFused, MatchesExplicitCenterReference) {
  Rng rng(11);
  for (const std::int64_t m : {2, 3, 17, 60}) {
    const Tensor x = randn({m, 6}, rng);
    const Tensor y = randn({m, 4}, rng);
    const Tensor kx = gram_gaussian(x, 2.0f);
    const Tensor ky = gram_gaussian(y, 2.0f);
    const double ref = explicit_center_hsic(kx, ky);
    const float got = hsic(kx, ky);
    EXPECT_NEAR(got, ref, std::max(1e-4 * std::fabs(ref), 1e-7)) << "m=" << m;
  }
  // The composed pipeline, both Grams included: n=64, d=128, y = the first
  // 16 columns of x, each side at its scaled bandwidth.
  const Tensor x = randn({64, 128}, rng);
  const Tensor y = first_columns(x, 16);
  const float sx = scaled_sigma(128), sy = scaled_sigma(16);
  const double ref = explicit_center_hsic(naive_gram_gaussian(x, sx),
                                          naive_gram_gaussian(y, sy));
  const float got = hsic(gram_gaussian(x, sx), gram_gaussian(y, sy));
  EXPECT_NEAR(got, ref, std::max(1e-4 * std::fabs(ref), 1e-7))
      << "composed n=64 d=128";
}

TEST(HsicFused, BlockedPipelineAtLeastFiveTimesTheSeedAtN512D4096) {
  // Single lane: blocked Grams + fused HSIC against the seed's pairwise
  // Grams + explicit-H HSIC, best of three each, at n=512 samples of a
  // d=4096 tap with y = its first 64 columns.
  Rng rng(0x1b2a4u);
  const Tensor x = randn({512, 4096}, rng);
  const Tensor y = first_columns(x, 64);
  const float sx = scaled_sigma(4096), sy = scaled_sigma(64);

  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  Tensor kx, ky;
  float h = 0.0f;
  const double blocked_ns = best_wall_ns(3, [&] {
    kx = gram_gaussian(x, sx);
    ky = gram_gaussian(y, sy);
    h = hsic(kx, ky);
  });
  // The same pipeline at 4 lanes is bit-identical; d crosses KC 16 times.
  runtime::set_num_threads(4);
  const Tensor kx4 = gram_gaussian(x, sx);
  const Tensor ky4 = gram_gaussian(y, sy);
  const float h4 = hsic(kx4, ky4);
  runtime::set_num_threads(lanes0);
  EXPECT_EQ(std::memcmp(kx.data().data(), kx4.data().data(),
                        sizeof(float) * static_cast<std::size_t>(kx.numel())),
            0);
  EXPECT_EQ(std::memcmp(ky.data().data(), ky4.data().data(),
                        sizeof(float) * static_cast<std::size_t>(ky.numel())),
            0);
  EXPECT_EQ(std::memcmp(&h, &h4, sizeof(float)), 0);
  SKIP_UNLESS_TIMING_BUILD() << blocked_ns * 1e-6
                             << " ms for the blocked pipeline (seed not run)";

  Tensor kx0, ky0;
  float h0 = 0.0f;
  const double seed_ns = best_wall_ns(3, [&] {
    kx0 = naive_gram_gaussian(x, sx);
    ky0 = naive_gram_gaussian(y, sy);
    h0 = seed_hsic(kx0, ky0);
  });
  EXPECT_NEAR(h, h0, std::max(1e-4 * std::max(std::fabs(h), std::fabs(h0)),
                              1e-7));
  double sum = 0.0, sum0 = 0.0;
  for (std::int64_t i = 0; i < kx.numel(); ++i) {
    sum += kx[i];
    sum0 += kx0[i];
  }
  EXPECT_NEAR(sum, sum0,
              std::max(1e-4 * std::max(std::fabs(sum), std::fabs(sum0)),
                       1e-6 * 512.0 * 512.0));
  EXPECT_GE(seed_ns / blocked_ns, 5.0)
      << "seed " << seed_ns * 1e-6 << " ms, blocked " << blocked_ns * 1e-6
      << " ms";
}

TEST(HsicFused, SymmetricInArguments) {
  Rng rng(12);
  const Tensor kx = gram_gaussian(randn({40, 3}, rng), 2.0f);
  const Tensor ky = gram_gaussian(randn({40, 5}, rng), 2.0f);
  EXPECT_NEAR(hsic(kx, ky), hsic(ky, kx), 1e-7);
}

TEST(HsicFused, ShiftInvarianceOfGaussianKernel) {
  // The Gaussian kernel sees only pairwise distances, so a constant feature
  // shift must not move HSIC (beyond float rounding in the Gram identity).
  Rng rng(13);
  const Tensor x = randn({60, 8}, rng);
  const Tensor y = randn({60, 5}, rng);
  Tensor x_shift = x;
  for (std::int64_t i = 0; i < x_shift.numel(); ++i) x_shift[i] += 3.0f;
  const float base = hsic_gaussian(x, y, 2.0f, 2.0f);
  const float shifted = hsic_gaussian(x_shift, y, 2.0f, 2.0f);
  EXPECT_NEAR(shifted, base, std::max(1e-4f * std::fabs(base), 1e-7f));
}

TEST(HsicFused, GradcheckOnGramInputs) {
  // The closed-form backward (g * H K H from row/col/grand sums) against
  // numeric differentiation, perturbing Gram entries directly (including
  // asymmetric perturbations — the formula never assumes symmetry).
  Rng rng(14);
  const Tensor kx = gram_gaussian(randn({7, 3}, rng), 1.0f);
  const Tensor ky = gram_gaussian(randn({7, 2}, rng), 1.0f);
  auto fn = [&](const std::vector<ag::Var>& in) {
    return hsic(in[0], in[1]);
  };
  const auto r =
      ag::gradcheck(fn, {ag::Var::param(kx), ag::Var::param(ky)}, 1e-3, 5e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

// ---- median_sigma (sampled vs exact) ---------------------------------------

TEST(MedianSigma, ExactPathBelowPairThreshold) {
  // Up to kMedianSigmaExactPairs pairs, median_sigma IS the exact median —
  // no sampling, bitwise the same as the reference path.
  Rng rng(3);
  const Tensor x = rand_uniform({64, 8}, rng, -1.0f, 1.0f);  // 2016 pairs
  EXPECT_EQ(median_sigma(x), median_sigma_exact(x));
}

TEST(MedianSigma, SampledEstimateWithinToleranceOfExact) {
  // Above the threshold the sampled median must track the exact one. 200
  // rows = 19900 pairs, well past kMedianSigmaExactPairs.
  Rng rng(11);
  const Tensor x = randn({200, 16}, rng);
  const float exact = median_sigma_exact(x);
  const float sampled = median_sigma(x);
  ASSERT_GT(exact, 0.0f);
  EXPECT_NEAR(sampled / exact, 1.0f, 0.1f);
  // Deterministic: the subsample is a fixed-seed function of the input.
  EXPECT_EQ(sampled, median_sigma(x));
}

// ---- channel_label_scores (parallel per-channel loop) ----------------------

TEST(ChannelScores, BitIdenticalAcrossLaneCounts) {
  Rng rng(21);
  const Tensor feats = randn({24, 6, 4, 4}, rng);
  std::vector<std::int64_t> labels(24);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % 3;
  }
  runtime::set_num_threads(1);
  const auto s1 = channel_label_scores(feats, labels, 3);
  runtime::set_num_threads(4);
  const auto s4 = channel_label_scores(feats, labels, 3);
  runtime::set_num_threads(0);
  ASSERT_EQ(s1.size(), s4.size());
  for (std::size_t c = 0; c < s1.size(); ++c) {
    EXPECT_EQ(s1[c], s4[c]) << "channel " << c;  // exact bits, not tolerance
  }
}

TEST(ChannelScores, NcFeaturesAndMaskContractUnchanged) {
  // Rank-2 features keep working after the parallel rewrite, and the Eq. (3)
  // mask still drops the lowest-scoring channels only.
  Rng rng(31);
  Tensor feats = randn({20, 5}, rng);
  std::vector<std::int64_t> labels(20);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<std::int64_t>(i) % 2;
  }
  const auto scores = channel_label_scores(feats, labels, 2);
  ASSERT_EQ(scores.size(), 5u);
  const Tensor mask = mask_from_scores(scores, 0.2f);
  std::int64_t kept = 0;
  for (std::int64_t c = 0; c < 5; ++c) kept += mask[c] == 1.0f ? 1 : 0;
  EXPECT_EQ(kept, 4);  // exactly one channel dropped at 20%
}

}  // namespace
}  // namespace ibrar::mi
