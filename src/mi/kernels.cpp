#include "mi/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "tensor/matmul.hpp"
#include "tensor/reduce.hpp"
#include "util/rng.hpp"

namespace ibrar::mi {

namespace {

/// sigma from a collection of squared distances (shared tail of both paths).
float sigma_from_sq_dists(std::vector<float>& vals) {
  if (vals.empty()) return 1.0f;
  std::nth_element(vals.begin(), vals.begin() + vals.size() / 2, vals.end());
  const float med = vals[vals.size() / 2];
  return std::sqrt(std::max(med / 2.0f, 1e-6f));
}

}  // namespace

float median_sigma_exact(const Tensor& x) {
  const Tensor d = pairwise_sq_dists(x);
  std::vector<float> vals;
  const auto m = d.dim(0);
  vals.reserve(static_cast<std::size_t>(m * (m - 1) / 2));
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = i + 1; j < m; ++j) vals.push_back(d.at(i, j));
  }
  return sigma_from_sq_dists(vals);
}

float median_sigma(const Tensor& x) {
  const auto m = x.dim(0);
  const std::int64_t pairs = m * (m - 1) / 2;
  if (pairs <= kMedianSigmaExactPairs) return median_sigma_exact(x);

  // Sampled median: draw a fixed-seed subsample of distinct-index pairs and
  // compute each squared distance directly from the rows — O(S*d) work and
  // O(S) memory, never the (m, m) matrix. The seed folds in m so the sample
  // is a pure function of the input shape: same data -> same sigma, and the
  // estimate is reproducible across runs and thread counts.
  const auto d = x.numel() / m;
  const float* px = x.data().data();
  Rng rng(0x5ed5u ^ static_cast<std::uint64_t>(m) * 0x9e3779b97f4a7c15ull);
  std::vector<float> vals;
  vals.reserve(static_cast<std::size_t>(kMedianSigmaSamplePairs));
  while (static_cast<std::int64_t>(vals.size()) < kMedianSigmaSamplePairs) {
    const std::int64_t i = rng.randint(0, m - 1);
    const std::int64_t j = rng.randint(0, m - 1);
    if (i == j) continue;
    const float* ri = px + i * d;
    const float* rj = px + j * d;
    float acc = 0.0f;
    for (std::int64_t t = 0; t < d; ++t) {
      const float diff = ri[t] - rj[t];
      acc += diff * diff;
    }
    vals.push_back(acc);
  }
  return sigma_from_sq_dists(vals);
}

float scaled_sigma(std::int64_t feature_dim, float mult) {
  return mult * std::sqrt(static_cast<float>(std::max<std::int64_t>(feature_dim, 1)));
}

Tensor gram_gaussian(const Tensor& x, float sigma) {
  // G = X X^T through the symmetric blocked GEMM (upper-triangle blocks into
  // arena tiles, mirrored), then one fused pass turns G into the kernel
  // matrix without materializing the distance matrix. The exp() calls
  // dominate Gram assembly for minibatch-sized m, so the fused pass also
  // exploits symmetry: each (i, j >= i) entry is evaluated once and mirrored,
  // halving the exp count of the dense sweep.
  const Tensor g = matmul_nt_sym(x);
  const auto m = g.dim(0);
  const float scale = -1.0f / (2.0f * sigma * sigma);
  Tensor k(g.shape());
  std::vector<float> diag(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) diag[static_cast<std::size_t>(i)] = g.at(i, i);
  const float* pg = g.data().data();
  float* pk = k.data().data();
  // Work item u owns the row pair (u, m-1-u): the long tail of row u plus the
  // short tail of its mirror row sum to m+1 exp calls per item, so equal
  // contiguous chunks carry equal work (a plain row split would hand the
  // first lane ~2x the exp count of the last). Each row writes its own tail
  // (i, j >= i) plus column i of rows j > i; all row indices across items are
  // distinct, so writes stay race-free and every element's value is
  // independent of the partition.
  auto fill_row = [&](std::int64_t i) {
    const float ri = diag[static_cast<std::size_t>(i)];
    for (std::int64_t j = i; j < m; ++j) {
      const float d = std::max(
          ri + diag[static_cast<std::size_t>(j)] - 2.0f * pg[i * m + j], 0.0f);
      const float v = std::exp(d * scale);
      pk[i * m + j] = v;
      pk[j * m + i] = v;
    }
  };
  runtime::parallel_for(
      0, (m + 1) / 2, runtime::grain_for(16 * m),
      [&](std::int64_t u0, std::int64_t u1) {
        for (std::int64_t u = u0; u < u1; ++u) {
          fill_row(u);
          if (m - 1 - u != u) fill_row(m - 1 - u);
        }
      });
  return k;
}

ag::Var gram_gaussian(const ag::Var& x, float sigma) {
  // ||xi - xj||^2 = r_i + r_j - 2 x_i . x_j, assembled from differentiable ops
  // so the HSIC regularizer backpropagates into the activations.
  ag::Var rs = ag::sum_axis(ag::square(x), 1, /*keepdim=*/true);      // (m,1)
  ag::Var gram = ag::matmul(x, ag::transpose(x));                     // (m,m)
  ag::Var d = ag::sub(ag::add(rs, ag::transpose(rs)),
                      ag::mul_scalar(gram, 2.0f));
  return ag::exp(ag::mul_scalar(d, -1.0f / (2.0f * sigma * sigma)));
}

}  // namespace ibrar::mi
