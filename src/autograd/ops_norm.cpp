#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <type_traits>

#include "autograd/ops.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {

namespace {

/// The gradient at batch norm's output for element e of a backward whose
/// node got g: with the ReLU fused in, what relu's backward and a first
/// accumulate leave of it, 0 + g * (y > 0 ? 1 : 0), the mask read from the
/// node's own output y (y > 0 exactly when the pre-activation is) and the
/// select made on the bits of 1.0f as relu_backward makes it; g itself
/// without.
template <bool kRelu>
inline float bn_grad(const float* g, const float* y, std::int64_t e) {
  if constexpr (kRelu) {
    const std::uint32_t keep = -static_cast<std::uint32_t>(y[e] > 0.0f);
    const auto one = std::bit_cast<std::uint32_t>(1.0f);
    return 0.0f + g[e] * std::bit_cast<float>(keep & one);
  } else {
    return g[e];
  }
}

/// 0.0f + v for any v that arithmetic made (so never a signalling NaN): -0
/// becomes +0, anything else stays. A select, not an add: GCC contracts
/// 0.0f + a * b into one FMA, whose single rounding leaves -0 where a * b
/// underflows below zero.
inline float plus_zero(float v) { return v == 0.0f ? 0.0f : v; }

/// Autograd node of batch norm on folded per-channel constants, with a ReLU
/// after it when `relu`. The forward is the one batch-norm kernel. The
/// backward keeps only the channels' mean and inv_std: it recomputes
/// xh = (x - mu) * is from the parent's value with the forward's
/// expression, and reads the ReLU mask from the node's own output, so one
/// activation tensor serves both. It computes the per-channel sums only
/// when something reads them: gamma's or beta's gradient, or training's
/// input gradient. Which parents require grad is read when the backward
/// runs, so a parameter un-paused after the forward gets its gradient.
/// The input gradient pass writes 0 + gam_is * (...) itself, and the
/// result is adopted as is. Both passes split x's (image, channel) planes
/// across the pool, and each channel folds its planes' double chains in
/// image order on the calling lane, so no bit depends on the lane count.
Var batch_norm2d_apply(const Var& x, const Var& gamma, const Var& beta,
                       FoldedBn bn, bool training, bool relu) {
  Tensor out = batch_norm_relu(x.value(), bn, relu);
  return make_op(std::move(out), {x, gamma, beta},
                 [mean = std::move(bn.mean), inv_std = std::move(bn.inv_std),
                  training, relu](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const std::int64_t nN = xv.dim(0), c = xv.dim(1);
    const std::int64_t spatial = xv.dim(2) * xv.dim(3);
    const bool grad_x = n.parents[0]->requires_grad;
    const bool grad_gamma = n.parents[1]->requires_grad;
    const bool grad_beta = n.parents[2]->requires_grad;
    const bool need_g = grad_beta || (training && grad_x);
    const bool need_gx = grad_gamma || (training && grad_x);
    const float* px = xv.data().data();
    const float* py = n.value.data().data();
    const float* pg = n.grad.data().data();
    // f(kRelu, i) on every plane i = image * C + channel, planes split
    // across the pool, with the ReLU's presence as a compile-time constant.
    const auto each_plane = [&](const auto& f) {
      runtime::parallel_for(0, nN * c, runtime::grain_for(spatial),
                            [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          if (relu) {
            f(std::true_type{}, i);
          } else {
            f(std::false_type{}, i);
          }
        }
      });
    };

    Tensor sum_g({c}), sum_gx({c});
    if (need_g || need_gx) {
      // Each plane's double chains of gz and of gz * xh, rounded to float,
      // then folded per channel in image order.
      Tensor sg = Tensor::unfilled({nN * c}), sgx = Tensor::unfilled({nN * c});
      each_plane([&](auto kRelu, std::int64_t i) {
        const std::int64_t ic = i % c, off = i * spatial;
        const float mu = mean[ic], is = inv_std[ic];
        double s = 0.0, sx = 0.0;
        for (std::int64_t k = 0; k < spatial; ++k) {
          const float gz = bn_grad<kRelu.value>(pg, py, off + k);
          s += gz;
          if (need_gx) {
            const float xh = (px[off + k] - mu) * is;
            sx += double(gz) * xh;
          }
        }
        sg[i] = static_cast<float>(s);
        sgx[i] = static_cast<float>(sx);
      });
      for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
        for (std::int64_t ic = 0; ic < c; ++ic) {
          sum_g[ic] += sg[in_n * c + ic];
          sum_gx[ic] += sgx[in_n * c + ic];
        }
      }
    }

    if (grad_x) {
      Tensor gx = Tensor::unfilled(xv.shape());
      float* pgx = gx.data().data();
      const float m = static_cast<float>(nN * spatial);
      const float* pgam = n.parents[1]->value.data().data();
      each_plane([&](auto kRelu, std::int64_t i) {
        const std::int64_t ic = i % c, off = i * spatial;
        const float mu = mean[ic], is = inv_std[ic];
        const float gam_is = pgam[ic] * is;
        if (training) {
          const float mg = sum_g[ic] / m;
          const float mgx = sum_gx[ic] / m;
          for (std::int64_t k = 0; k < spatial; ++k) {
            const float xh = (px[off + k] - mu) * is;
            const float gz = bn_grad<kRelu.value>(pg, py, off + k);
            pgx[off + k] = plus_zero(gam_is * (gz - mg - xh * mgx));
          }
        } else {
          // Running stats are constants in eval mode.
          for (std::int64_t k = 0; k < spatial; ++k) {
            pgx[off + k] =
                plus_zero(gam_is * bn_grad<kRelu.value>(pg, py, off + k));
          }
        }
      });
      n.parents[0]->accumulate_as_is(std::move(gx));
    }
    if (grad_gamma) n.parents[1]->accumulate(std::move(sum_gx));
    if (grad_beta) n.parents[2]->accumulate(std::move(sum_g));
  });
}

}  // namespace

Var batch_norm2d(const Var& x, const Var& gamma, const Var& beta,
                 Tensor& running_mean, Tensor& running_var, bool training,
                 float momentum, float eps, bool relu) {
  if (!training) {
    return batch_norm2d_eval(x, gamma, beta, running_mean, running_var, eps,
                             relu);
  }
  const Tensor& xv = x.value();
  if (xv.rank() != 4) throw std::invalid_argument("batch_norm2d: NCHW only");
  const auto nN = xv.dim(0), c = xv.dim(1);
  const auto spatial = xv.dim(2) * xv.dim(3);
  const std::int64_t per_channel = nN * spatial;

  // One double chain per channel over (image, spatial), channels split
  // across the pool.
  Tensor mean_c = Tensor::unfilled({c});
  Tensor var_c = Tensor::unfilled({c});
  const float* px = xv.data().data();
  runtime::parallel_for(
      0, c, runtime::grain_for(per_channel),
      [&](std::int64_t c0, std::int64_t c1) {
        for (std::int64_t ic = c0; ic < c1; ++ic) {
          double s = 0.0, s2 = 0.0;
          for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
            const float* plane = px + (in_n * c + ic) * spatial;
            for (std::int64_t k = 0; k < spatial; ++k) {
              s += plane[k];
              s2 += double(plane[k]) * plane[k];
            }
          }
          const double mu = s / per_channel;
          mean_c[ic] = static_cast<float>(mu);
          var_c[ic] =
              static_cast<float>(std::max(0.0, s2 / per_channel - mu * mu));
        }
      });
  // Folding checks gamma and beta before the running stats are written.
  FoldedBn bn =
      fold_batch_norm(gamma.value(), beta.value(), mean_c, var_c, eps);
  if (running_mean.numel() != c || running_var.numel() != c) {
    throw std::invalid_argument("batch_norm2d: running stats channel count");
  }
  for (std::int64_t ic = 0; ic < c; ++ic) {
    running_mean[ic] = (1 - momentum) * running_mean[ic] + momentum * mean_c[ic];
    running_var[ic] = (1 - momentum) * running_var[ic] + momentum * var_c[ic];
  }
  return batch_norm2d_apply(x, gamma, beta, std::move(bn), /*training=*/true,
                            relu);
}

Var batch_norm2d_eval(const Var& x, const Var& gamma, const Var& beta,
                      const Tensor& running_mean, const Tensor& running_var,
                      float eps, bool relu) {
  return batch_norm2d_apply(
      x, gamma, beta,
      fold_batch_norm(gamma.value(), beta.value(), running_mean, running_var,
                      eps),
      /*training=*/false, relu);
}

Var dropout(const Var& x, float p, bool training, Rng& rng) {
  if (!training || p <= 0.0f) return x;
  if (p >= 1.0f) throw std::invalid_argument("dropout: p must be < 1");
  Tensor mask(x.shape());
  const float scale = 1.0f / (1.0f - p);
  for (auto& m : mask.data()) m = rng.bernoulli(1.0 - p) ? scale : 0.0f;
  Tensor out = ibrar::mul(x.value(), mask);
  return make_op(std::move(out), {x}, [mask = std::move(mask)](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(ibrar::mul(n.grad, mask));
  });
}

}  // namespace ibrar::ag
