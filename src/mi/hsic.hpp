#pragma once
// Hilbert-Schmidt Independence Criterion (Gretton et al. 2005), the MI proxy
// the paper uses ("we use HSIC as an alternative plan for I(.)", Sec. 2.2).
//
// Biased estimator: HSIC(K, L) = tr(K H L H) / (m-1)^2 with H = I - 11^T/m.
//
// Both the plain and differentiable paths use fused centering: the trace and
// its gradient are assembled from row/column/grand sums of the Gram matrices
// (tr(K H L H) = <K, L> - rowsums/m - colsums/m + totals/m^2), so neither H
// nor a centered matrix is ever materialized and the O(m^3) centering matmuls
// of the textbook formulation reduce to O(m^2) sweeps.

#include "autograd/ops.hpp"
#include "mi/kernels.hpp"

namespace ibrar::mi {

/// HSIC from precomputed Gram matrices (plain, non-differentiable).
float hsic(const Tensor& kx, const Tensor& ky);

/// Differentiable HSIC from Gram matrix Vars.
ag::Var hsic(const ag::Var& kx, const ag::Var& ky);

/// Convenience: HSIC between row-sample matrices with Gaussian kernels.
/// Bandwidths default to the scaled-sigma rule used by HSIC-bottleneck work.
float hsic_gaussian(const Tensor& x, const Tensor& y, float sigma_x = -1.0f,
                    float sigma_y = -1.0f);

}  // namespace ibrar::mi
