#pragma once
// The IB regularizer of paper Eq. (1)/(2):
//   alpha * sum_l I(X, T_l)  -  beta * sum_l I(Y, T_l)
// with I(.) realized as Gaussian-kernel HSIC over a minibatch. Shared by the
// IB-RAR trainer (src/core) and the adaptive white-box attack (Sec. A.2),
// which maximizes the same quantity.

#include <vector>

#include "autograd/ops.hpp"
#include "mi/hsic.hpp"

namespace ibrar::mi {

struct IBObjectiveConfig {
  float alpha = 1.0f;                      ///< weight on sum_l I(X, T_l)
  float beta = 0.1f;                       ///< weight on sum_l I(Y, T_l)
  std::vector<std::size_t> layer_indices;  ///< taps to include (empty = all)
  float sigma_mult = 5.0f;                 ///< bandwidth rule for X and T
  float sigma_mult_y = 1.0f;               ///< bandwidth rule for labels
};

/// Differentiable Eq. (1) regularizer value for one minibatch.
/// `x` is the (possibly requires-grad) input batch; `taps` the hidden-layer
/// activations; `labels` the integer targets. Gradients flow into x and taps.
ag::Var ib_objective(const ag::Var& x, const std::vector<ag::Var>& taps,
                     const std::vector<std::int64_t>& labels,
                     std::int64_t num_classes, const IBObjectiveConfig& cfg);

}  // namespace ibrar::mi
