#pragma once
// Tensor kernels: broadcast elementwise arithmetic, unary maps, shape
// utilities, and the gradient reduction used to undo broadcasting.
//
// These are the non-differentiable building blocks; src/autograd wraps them
// with backward rules. Each elementwise op is one pass with its element
// expression inlined into the loop: no std::function or other indirect call
// per element. A one-element operand (a scalar tensor) runs as a flat map.

#include "tensor/tensor.hpp"

namespace ibrar {

// ---- broadcast binary arithmetic -------------------------------------------

Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);
Tensor maximum(const Tensor& a, const Tensor& b);
Tensor minimum(const Tensor& a, const Tensor& b);

// ---- scalar variants --------------------------------------------------------

Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// ---- unary maps -------------------------------------------------------------

Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);          ///< natural log; log(0) clamps to -87.
Tensor abs(const Tensor& a);
Tensor sign(const Tensor& a);         ///< -1/0/+1 per element.
Tensor relu(const Tensor& a);
Tensor tanh(const Tensor& a);
Tensor square(const Tensor& a);
Tensor clamp(const Tensor& a, float lo, float hi);

/// ReLU's input gradient in one pass: g * (x > 0 ? 1 : 0). g and x share a
/// shape; NaN or -0 in x selects 0, and the product keeps g's NaN and sign.
Tensor relu_backward(const Tensor& g, const Tensor& x);

// ---- comparisons (result is 0/1 float mask) ---------------------------------

Tensor greater(const Tensor& a, const Tensor& b);

// ---- shape / assembly -------------------------------------------------------

/// 2-D transpose.
Tensor transpose2d(const Tensor& a);

/// Select rows of a 2-D (or N-d, axis 0) tensor by index.
Tensor take_rows(const Tensor& a, const std::vector<std::int64_t>& idx);

/// Scatter `src` rows into `dst` at axis-0 positions `idx` (the inverse of
/// take_rows): dst[idx[r]] = src[r]. Indices must be unique — duplicate
/// targets would race across the row-parallel copies. Trailing dims of `dst`
/// and `src` must match.
void put_rows(Tensor& dst, const std::vector<std::int64_t>& idx,
              const Tensor& src);

/// One-hot encode integer labels into (n, num_classes).
Tensor one_hot(const std::vector<std::int64_t>& labels, std::int64_t num_classes);

/// Broadcast `a` to `target` shape explicitly (copying). Throws
/// std::invalid_argument unless a's shape broadcasts to `target`.
Tensor broadcast_to(const Tensor& a, const Shape& target);

/// Sum-reduce `g` down to `target` shape — the adjoint of broadcasting.
/// Throws std::invalid_argument unless `target` broadcasts to g's shape.
Tensor reduce_to_shape(const Tensor& g, const Shape& target);

// ---- scalar folds ------------------------------------------------------------

float sum_all(const Tensor& a);
float mean_all(const Tensor& a);
float max_all(const Tensor& a);
float min_all(const Tensor& a);
float dot(const Tensor& a, const Tensor& b);
float l2_norm(const Tensor& a);
float linf_norm(const Tensor& a);

}  // namespace ibrar
