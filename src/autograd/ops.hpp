#pragma once
// Differentiable operations on ag::Var.
//
// Each op computes its value with the tensor kernels and registers a backward
// closure that routes the output gradient to the parents (with broadcast
// adjoints where applicable). Implementations are grouped by theme across the
// ops_*.cpp translation units.

#include <vector>

#include "autograd/var.hpp"
#include "tensor/conv.hpp"
#include "util/rng.hpp"

namespace ibrar::ag {

// ---- elementwise arithmetic (NumPy broadcasting) ----------------------------

Var add(const Var& a, const Var& b);
Var sub(const Var& a, const Var& b);
Var mul(const Var& a, const Var& b);
Var add_scalar(const Var& a, float s);
Var mul_scalar(const Var& a, float s);
Var neg(const Var& a);

// ---- elementwise maps --------------------------------------------------------

Var exp(const Var& a);
Var log(const Var& a);        ///< clamped log for numerical safety
Var square(const Var& a);
Var relu(const Var& a);
Var tanh(const Var& a);

// ---- linear algebra ----------------------------------------------------------

Var matmul(const Var& a, const Var& b);   ///< (m,k) x (k,n)
Var transpose(const Var& a);              ///< 2-D transpose

// ---- shape -------------------------------------------------------------------

Var reshape(const Var& a, Shape new_shape);
Var flatten2d(const Var& a);              ///< (N, ...) -> (N, rest)

/// Pick one column per row: out(i) = a(i, idx[i]) -> shape (n, 1).
Var gather_cols(const Var& a, const std::vector<std::int64_t>& idx);

// ---- reductions --------------------------------------------------------------

Var sum(const Var& a);                    ///< scalar
Var mean(const Var& a);                   ///< scalar
Var sum_axis(const Var& a, std::int64_t axis, bool keepdim = false);

// ---- convolution / pooling ---------------------------------------------------

Var conv2d(const Var& x, const Var& w, const Var& bias, const Conv2dSpec& spec);
Var maxpool2d(const Var& x, std::int64_t kernel, std::int64_t stride);
Var global_avg_pool(const Var& x);

// ---- normalization / regularization -----------------------------------------

/// Batch norm over (N,H,W) per channel, followed by ReLU when `relu`. In
/// training mode uses batch moments and updates running stats in place; in
/// eval mode it is batch_norm2d_eval. Both fold their moments with
/// fold_batch_norm and run the one batch-norm kernel (tensor/conv_eval.hpp),
/// and record one node whether or not the ReLU is fused in: with it, the
/// node's value, and the gradients it hands x, gamma and beta, are the bits
/// of relu(batch_norm2d(...)), and its backward reads the ReLU mask from
/// its own output (In-Place Activated BatchNorm, arXiv:1712.02616), so one
/// activation tensor is kept instead of two. The backward builds the
/// per-channel sums only for gamma's or beta's gradient or for training's
/// input gradient, so an eval-mode input gradient with gamma and beta
/// paused (an attack step) runs one pass. Throws std::invalid_argument
/// when gamma, beta or the running stats do not hold one value per channel
/// of x.
Var batch_norm2d(const Var& x, const Var& gamma, const Var& beta,
                 Tensor& running_mean, Tensor& running_var, bool training,
                 float momentum = 0.1f, float eps = 1e-5f, bool relu = false);

/// Strictly-const eval-mode batch norm (then ReLU when `relu`): reads the
/// frozen running stats and never writes them. This is what lets a
/// published ModelSnapshot's forward be const-qualified and therefore safe
/// under concurrent serving workers.
Var batch_norm2d_eval(const Var& x, const Var& gamma, const Var& beta,
                      const Tensor& running_mean, const Tensor& running_var,
                      float eps = 1e-5f, bool relu = false);

/// Inverted dropout; identity when !training or p == 0.
Var dropout(const Var& x, float p, bool training, Rng& rng);

// ---- classification heads ----------------------------------------------------

Var softmax(const Var& logits);           ///< row-wise, 2-D
Var log_softmax(const Var& logits);       ///< row-wise, 2-D

/// Mean cross-entropy of logits (n, c) against integer labels.
Var cross_entropy(const Var& logits, const std::vector<std::int64_t>& labels);

/// Mean KL(p || q) with p, q row-wise distributions given as probabilities
/// (p) and log-probabilities (log_q). Differentiable through both.
Var kl_div(const Var& p, const Var& log_q);

}  // namespace ibrar::ag
