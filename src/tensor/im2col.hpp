#pragma once
// Convolution & pooling kernels on NCHW tensors.
//
// conv2d runs the one conv driver (tensor/conv_eval.hpp), which gathers its
// GEMM operand straight from the input and never builds im2col columns.
// im2col and col2im serve ag::conv2d's backward: im2col lowers the input for
// the weight gradient, col2im (its adjoint) scatters the input gradient.
// Max/avg pooling store argmax indices so autograd can route gradients.

#include <vector>

#include "tensor/tensor.hpp"

namespace ibrar {

struct Conv2dSpec {
  std::int64_t kernel = 3;
  std::int64_t stride = 1;
  std::int64_t pad = 1;
};

/// Output spatial size for one dimension, (in + 2*pad - kernel) / stride + 1.
/// Every conv and pool sizes its output here. Throws std::invalid_argument
/// when kernel < 1, stride < 1, pad < 0, or the window is larger than the
/// padded input.
std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                          std::int64_t pad);

/// im2col: x (N,C,H,W) -> columns (N*OH*OW, C*K*K).
Tensor im2col(const Tensor& x, const Conv2dSpec& spec);

/// col2im adjoint: columns (N*OH*OW, C*K*K) -> (N,C,H,W) accumulated.
Tensor col2im(const Tensor& cols, const Shape& x_shape, const Conv2dSpec& spec);

/// Forward conv: x (N,C,H,W), w (F,C,K,K), bias (F) optional -> (N,F,OH,OW).
/// Packs w per call into the caller's scratch arena and runs the one conv
/// driver, which adds the bias in its NCHW scatter. memcmp-equal to
/// im2col -> GEMM (columns as A, w transposed as B) -> NCHW transpose ->
/// bias pass. Defined in tensor/conv_eval.cpp beside the driver.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
              const Conv2dSpec& spec);

struct PoolResult {
  Tensor out;                      ///< (N,C,OH,OW)
  std::vector<std::int64_t> argmax;  ///< flat input index per output element
};

/// 2-D max pooling (kernel=stride window, no padding).
PoolResult maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);

/// Scatter pooled gradients back through stored argmax indices.
Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax);

/// Global average pool (N,C,H,W) -> (N,C).
Tensor global_avg_pool(const Tensor& x);

/// Adjoint of global_avg_pool.
Tensor global_avg_pool_backward(const Tensor& grad_out, const Shape& x_shape);

}  // namespace ibrar
