#pragma once
// Convolution & pooling kernels on NCHW tensors.
//
// conv2d and its three gradients run on the one conv driver
// (tensor/conv_eval.hpp). The forward and the weight gradient read x's taps
// from one zero-padded copy of x, in place or packed through a table of the
// output positions; the input gradient reads g in place from its planes
// when they hold whole NR-column strips. So no (N*OH*OW, C*K*K) im2col
// matrix is ever built, and no bound is checked per element. Pooling
// keeps no argmax: max pooling's backward finds each window's winner again
// in the input it is given, with the forward's branch-free window chain.

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

/// Forward conv: x (N,C,H,W), w (F,C,K,K), bias (F) optional -> (N,F,OH,OW).
/// Packs w and copies x zero-padded per call into the caller's scratch
/// arena and runs the one conv driver, which adds the bias in its NCHW
/// scatter. memcmp-equal to
/// im2col -> GEMM (columns as A, w transposed as B) -> NCHW transpose ->
/// bias pass. Defined in tensor/conv_eval.cpp beside the driver, as are the
/// three gradients below.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
              const Conv2dSpec& spec);

/// Input gradient of conv2d: g (N,F,OH,OW) -> (N,C,H,W) for an input of
/// shape x_shape. memcmp-equal to col2im(gprod * w), gprod being g as the
/// (N*OH*OW, F) matrix: each column of w^T * g is the ascending-F chain, and
/// each input element sums its contributors in ascending (oy, ox) order. A
/// stride-1 conv whose output is its input's size gathers each input
/// element's taps in a register and writes it once; other convs scatter
/// into a zeroed result. Either way every element is a sum started from +0,
/// so none is -0 or a signalling NaN. Throws
/// std::invalid_argument when g's shape disagrees with x_shape, w and spec.
Tensor conv2d_input_grad(const Tensor& g, const Shape& x_shape,
                         const Tensor& w, const Conv2dSpec& spec);

/// Weight gradient of conv2d: g (N,F,OH,OW), x (N,C,H,W) -> (F,C,K,K) of
/// shape w_shape. memcmp-equal to gprod^T * im2col(x): each element is one
/// chain over (image, oy, ox) in ascending order, computed as
/// im2col(x)^T * gprod with the taps read in place. Throws
/// std::invalid_argument when g's shape disagrees with x, w_shape and spec.
Tensor conv2d_weight_grad(const Tensor& g, const Tensor& x,
                          const Shape& w_shape, const Conv2dSpec& spec);

/// Bias gradient of conv2d: g (N,F,OH,OW) -> (F), each channel's planes
/// summed in (image, spatial) order, as sum_axis(gprod, 0) adds them; the
/// channels' chains run side by side in the lanes of a vector.
Tensor conv2d_bias_grad(const Tensor& g);

/// 2-D max pooling, no padding: x (N,C,H,W) -> (N,C,OH,OW). Each window
/// runs a first-maximum-wins chain from -inf in row-major order, so a window
/// in which nothing beats -inf (all NaN or all -inf) pools to -inf. The
/// chain selects on bit patterns, without a branch. A 2x2 window at
/// stride 2 whose rows hold an even number of windows (vgg16's pools) runs
/// the same chain on four windows' 128-bit lanes at once; any other shape
/// runs it one window at a time. The one pool kernel: autograd's forward
/// and the InferencePlan's pool step both call it. Planes split across the
/// pool. Throws std::invalid_argument unless x is NCHW and the window fits.
Tensor maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride);

/// Input gradient of maxpool2d: walks x's windows again with the forward's
/// chain and gives each window's grad_out to the element that won it (the
/// window's first element when nothing beats -inf, so the gradient stays
/// inside the window). On the four-lane shapes (2x2 at stride 2, an even
/// number of windows per row) no two windows share an element, and every
/// element of the result is written once into an unfilled tensor: 0 + g at
/// a winner, +0 everywhere else, rows and columns in no window included.
/// Any other shape, overlapping windows included, adds g at each winner
/// into a zeroed result, windows in output order. Both leave what adding
/// into zeros leaves, so no element is -0 or a signalling NaN. Throws
/// std::invalid_argument when grad_out is not maxpool2d(x)'s shape.
Tensor maxpool2d_backward(const Tensor& grad_out, const Tensor& x,
                          std::int64_t kernel, std::int64_t stride);

/// Global average pool (N,C,H,W) -> (N,C).
Tensor global_avg_pool(const Tensor& x);

/// Adjoint of global_avg_pool.
Tensor global_avg_pool_backward(const Tensor& grad_out, const Shape& x_shape);

}  // namespace ibrar
