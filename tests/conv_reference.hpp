#pragma once
// An independent conv lowering for the bit gates: materialized im2col
// columns, the naive GEMM, a transpose back to NCHW, then a separate bias
// pass for the forward; the materialized (N*OH*OW, F) gradient, the naive
// GEMM and a row-major col2im for the backward. The library never builds
// columns: ibrar::conv2d, ag::conv2d and ConvEvalPlan run one implicit-im2col
// driver, and the three backward kernels run the same packed micro-kernel
// (src/tensor/conv_eval.cpp). Tests compare those with this path instead of
// with themselves. Each element is the same ascending chain over the same
// operand values, so the two are memcmp-equal (tensor/conv_eval.hpp states
// the contract).

#include <cstdint>

#include "tensor/conv.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/tensor.hpp"

namespace ibrar {

/// x (N,C,H,W) -> columns (N*OH*OW, C*K*K): row (image, oy, ox), column
/// (ic, ky, kx), zero where the window hangs off the input.
inline Tensor im2col(const Tensor& x, const Conv2dSpec& spec) {
  const std::int64_t n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t k = spec.kernel;
  const std::int64_t oh = conv_out_dim(h, k, spec.stride, spec.pad);
  const std::int64_t ow = conv_out_dim(w, k, spec.stride, spec.pad);
  Tensor cols({n * oh * ow, c * k * k});
  float* row = cols.data().data();
  for (std::int64_t in_n = 0; in_n < n; ++in_n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        for (std::int64_t ic = 0; ic < c; ++ic) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = oy * spec.stride - spec.pad + ky;
              const std::int64_t ix = ox * spec.stride - spec.pad + kx;
              const bool in_bounds = iy >= 0 && iy < h && ix >= 0 && ix < w;
              *row++ = in_bounds ? x.at(in_n, ic, iy, ix) : 0.0f;
            }
          }
        }
      }
    }
  }
  return cols;
}

/// Adjoint of im2col: columns (N*OH*OW, C*K*K) scatter-added, row by row,
/// into a zeroed (N,C,H,W). Each input element sums its contributors in
/// ascending (oy, ox) order.
inline Tensor col2im(const Tensor& cols, const Shape& x_shape,
                     const Conv2dSpec& spec) {
  const std::int64_t n = x_shape[0], c = x_shape[1], h = x_shape[2],
                     w = x_shape[3];
  const std::int64_t k = spec.kernel;
  const std::int64_t oh = conv_out_dim(h, k, spec.stride, spec.pad);
  const std::int64_t ow = conv_out_dim(w, k, spec.stride, spec.pad);
  Tensor x(x_shape);
  const float* row = cols.data().data();
  for (std::int64_t in_n = 0; in_n < n; ++in_n) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        for (std::int64_t ic = 0; ic < c; ++ic) {
          for (std::int64_t ky = 0; ky < k; ++ky) {
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t iy = oy * spec.stride - spec.pad + ky;
              const std::int64_t ix = ox * spec.stride - spec.pad + kx;
              const float v = *row++;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                x[((in_n * c + ic) * h + iy) * w + ix] += v;
              }
            }
          }
        }
      }
    }
  }
  return x;
}

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

/// Gradients of L = sum(conv2d(x, w, b) * g) with respect to x, w and b.
struct ConvGrads {
  Tensor gx;  ///< (N,C,H,W)
  Tensor gw;  ///< (F,C,K,K)
  Tensor gb;  ///< (F)
};

/// gprod is g in the GEMM's (N*OH*OW, F) layout. The input gradient is
/// gprod * w followed by col2im; the weight gradient gprod^T * im2col(x),
/// reduced over (image, oy, ox) in ascending order; the bias gradient
/// gprod^T * 1 in that same order.
inline ConvGrads reference_conv2d_grads(const Tensor& x, const Tensor& w,
                                        const Tensor& g,
                                        const Conv2dSpec& spec) {
  const std::int64_t n = g.dim(0), f = g.dim(1), spatial = g.dim(2) * g.dim(3);
  const std::int64_t rows = n * spatial;
  const std::int64_t ckk = w.numel() / f;
  Tensor gprod({rows, f});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t of = 0; of < f; ++of) {
      for (std::int64_t s = 0; s < spatial; ++s) {
        gprod[(i * spatial + s) * f + of] = g[(i * f + of) * spatial + s];
      }
    }
  }
  Tensor gcols({rows, ckk});
  gemm_naive(gprod.data().data(), GemmLayout::kRowMajor, w.data().data(),
             GemmLayout::kRowMajor, gcols.data().data(), rows, f, ckk);
  ConvGrads ref;
  ref.gx = col2im(gcols, x.shape(), spec);
  ref.gw = Tensor(w.shape());
  gemm_naive(gprod.data().data(), GemmLayout::kTransposed,
             im2col(x, spec).data().data(), GemmLayout::kRowMajor,
             ref.gw.data().data(), f, rows, ckk);
  ref.gb = Tensor({f});
  gemm_naive(gprod.data().data(), GemmLayout::kTransposed,
             Tensor({rows, 1}, 1.0f).data().data(), GemmLayout::kRowMajor,
             ref.gb.data().data(), f, rows, 1);
  return ref;
}

}  // namespace ibrar
