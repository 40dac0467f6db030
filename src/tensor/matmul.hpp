#pragma once
// GEMM entry points, backed by the cache-blocked packed micro-kernel in
// gemm_packed.*. The dense layers and the HSIC/Gram MI estimators run on
// them (convs run the same micro-kernel through tensor/conv_eval.cpp), so
// all three variants lower onto one panel-packed kernel that reuses
// per-lane scratch buffers and splits C row-panels across the pool with
// per-element arithmetic identical to the serial loop (bit-reproducible at
// any thread count).
//
// No zero-skip shortcuts: IEEE special values (NaN, Inf, signed zero)
// propagate exactly as in the textbook triple loop.

#include "tensor/tensor.hpp"

namespace ibrar {

/// C = A(m,k) * B(k,n).
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T(m,k) * B(... ) convenience forms used by backward passes.
Tensor matmul_tn(const Tensor& a, const Tensor& b);  ///< A^T * B, A is (k,m)
Tensor matmul_nt(const Tensor& a, const Tensor& b);  ///< A * B^T, B is (n,k)

/// C = A * A^T (m, m) — the row Gram matrix behind every pairwise-distance
/// and Gaussian-kernel computation in src/mi. Only the upper-triangle row
/// blocks are computed (each through the packed kernel, into a per-lane
/// scratch-arena tile) and mirrored, so it does ~half the FLOPs of
/// matmul_nt(a, a) while staying bit-identical to it: element (i, j) runs the
/// same ascending-p fma chain either way, and (j, i) multiplies the same
/// pairs in the same order (float multiplication commutes bitwise).
Tensor matmul_nt_sym(const Tensor& a);

}  // namespace ibrar
