#pragma once
// Gaussian kernel Gram matrices — plain (Tensor) and differentiable (Var).

#include "autograd/ops.hpp"
#include "tensor/tensor.hpp"

namespace ibrar::mi {

/// Median heuristic bandwidth: sigma^2 = median(pairwise sq dists) / 2,
/// floored away from zero. Rows of `x` are samples.
///
/// When the number of pairs exceeds kMedianSigmaExactPairs the median is
/// estimated from a fixed seeded subsample of kMedianSigmaSamplePairs pairs
/// whose distances are computed directly (O(S*d) — no pairwise matrix is ever
/// materialized), so the per-channel bandwidth search inside
/// channel_label_scores drops from O(n^2*spatial) to O(S*spatial) per
/// channel. The subsample is deterministic (fixed seed, a function of n
/// only), so repeated calls on the same data give the same sigma.
float median_sigma(const Tensor& x);

/// The exact (pre-sampling) path: materializes all O(n^2) pairwise distances
/// and takes the true median. Kept as the reference the sampled estimate is
/// tolerance-tested against; median_sigma itself delegates here below the
/// pair threshold.
float median_sigma_exact(const Tensor& x);

/// Pair-count threshold up to which median_sigma is exact.
inline constexpr std::int64_t kMedianSigmaExactPairs = 8192;
/// Subsample size used above the threshold.
inline constexpr std::int64_t kMedianSigmaSamplePairs = 4096;

/// Bandwidth used by the HSIC-bottleneck line of work: sigma = mult*sqrt(d).
float scaled_sigma(std::int64_t feature_dim, float mult = 5.0f);

/// K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)), x is (m, d).
Tensor gram_gaussian(const Tensor& x, float sigma);

/// Differentiable version (gradient flows into x; sigma is a constant).
ag::Var gram_gaussian(const ag::Var& x, float sigma);

}  // namespace ibrar::mi
