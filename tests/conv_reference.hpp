#pragma once
// An independent conv lowering for the bit gates: materialized im2col
// columns, the naive GEMM with the columns as A and the transposed weight as
// B, a transpose back to NCHW, then a separate bias pass. ibrar::conv2d,
// ag::conv2d and ConvEvalPlan all run one implicit-im2col driver, so tests
// compare that driver with this path instead of with itself. Each element is
// the same ascending-p chain over the same operand values, so the two are
// memcmp-equal (tensor/conv_eval.hpp states the contract).

#include <cstdint>

#include "tensor/gemm_packed.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace ibrar {

inline Tensor reference_conv2d(const Tensor& x, const Tensor& w,
                               const Tensor* bias, const Conv2dSpec& spec) {
  const Tensor cols = im2col(x, spec);
  const std::int64_t n = x.dim(0), f = w.dim(0);
  const std::int64_t oh = conv_out_dim(x.dim(2), spec.kernel, spec.stride,
                                       spec.pad);
  const std::int64_t ow = conv_out_dim(x.dim(3), spec.kernel, spec.stride,
                                       spec.pad);
  const std::int64_t spatial = oh * ow;
  Tensor prod({n * spatial, f});
  gemm_naive(cols.data().data(), GemmLayout::kRowMajor, w.data().data(),
             GemmLayout::kTransposed, prod.data().data(), n * spatial,
             cols.dim(1), f);
  Tensor out({n, f, oh, ow});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t s = 0; s < spatial; ++s) {
      for (std::int64_t of = 0; of < f; ++of) {
        out[(i * f + of) * spatial + s] = prod[(i * spatial + s) * f + of];
      }
    }
    if (bias == nullptr) continue;
    for (std::int64_t of = 0; of < f; ++of) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        out[(i * f + of) * spatial + s] += (*bias)[of];
      }
    }
  }
  return out;
}

}  // namespace ibrar
