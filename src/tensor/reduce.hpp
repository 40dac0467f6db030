#pragma once
// Reductions and row-wise normalizations used throughout the stack.

#include <vector>

#include "tensor/tensor.hpp"

namespace ibrar {

/// Sum over all elements into a scalar tensor.
Tensor sum(const Tensor& a);

/// Mean over all elements into a scalar tensor.
Tensor mean(const Tensor& a);

/// Sum along `axis`, keeping or dropping that dimension.
Tensor sum_axis(const Tensor& a, std::int64_t axis, bool keepdim = false);

/// Row-wise argmax of a 2-D tensor.
std::vector<std::int64_t> argmax_rows(const Tensor& a);

/// Row-wise softmax of a 2-D tensor (numerically stabilized).
Tensor softmax_rows(const Tensor& a);

/// Row-wise log-softmax of a 2-D tensor.
Tensor log_softmax_rows(const Tensor& a);

/// Pairwise squared Euclidean distances between rows: (m, m).
Tensor pairwise_sq_dists(const Tensor& a);

}  // namespace ibrar
