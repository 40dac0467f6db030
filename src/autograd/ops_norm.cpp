#include <algorithm>
#include <stdexcept>

#include "autograd/ops.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {

namespace {

/// Autograd node of batch norm on folded per-channel constants. The forward
/// is the one batch-norm kernel. The backward keeps only the channels'
/// mean and inv_std and recomputes xh = (x - mu) * is from the parent's
/// value with the forward's expression, so it sees the forward's bits.
Var batch_norm2d_apply(const Var& x, const Var& gamma, const Var& beta,
                       FoldedBn bn, bool training) {
  Tensor out = batch_norm_relu(x.value(), bn, /*relu=*/false);
  return make_op(std::move(out), {x, gamma, beta},
                 [mean = std::move(bn.mean), inv_std = std::move(bn.inv_std),
                  training](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const auto nN = xv.dim(0), c = xv.dim(1), spatial = xv.dim(2) * xv.dim(3);
    const bool grad_x = n.parents[0]->requires_grad;
    const bool need_gx = n.parents[1]->requires_grad || (training && grad_x);
    const float* px = xv.data().data();
    const float* pg = n.grad.data().data();
    const float* pgam = n.parents[1]->value.data().data();

    // Per-channel sums of g and, when a consumer reads it, g*xhat.
    Tensor sum_g({c}), sum_gx({c});
    for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const std::int64_t off = (in_n * c + ic) * spatial;
        const float mu = mean[ic], is = inv_std[ic];
        double sg = 0.0, sgx = 0.0;
        for (std::int64_t k = 0; k < spatial; ++k) {
          sg += pg[off + k];
          if (need_gx) {
            const float xh = (px[off + k] - mu) * is;
            sgx += double(pg[off + k]) * xh;
          }
        }
        sum_g[ic] += static_cast<float>(sg);
        sum_gx[ic] += static_cast<float>(sgx);
      }
    }

    if (n.parents[1]->requires_grad) n.parents[1]->accumulate(sum_gx);
    if (n.parents[2]->requires_grad) n.parents[2]->accumulate(sum_g);

    if (grad_x) {
      Tensor gx = Tensor::unfilled(xv.shape());
      float* pgx = gx.data().data();
      const float m = static_cast<float>(nN * spatial);
      for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
        for (std::int64_t ic = 0; ic < c; ++ic) {
          const std::int64_t off = (in_n * c + ic) * spatial;
          const float mu = mean[ic], is = inv_std[ic];
          const float gam_is = pgam[ic] * is;
          if (training) {
            const float mg = sum_g[ic] / m;
            const float mgx = sum_gx[ic] / m;
            for (std::int64_t k = 0; k < spatial; ++k) {
              const float xh = (px[off + k] - mu) * is;
              pgx[off + k] = gam_is * (pg[off + k] - mg - xh * mgx);
            }
          } else {
            // Running stats are constants in eval mode.
            for (std::int64_t k = 0; k < spatial; ++k) {
              pgx[off + k] = gam_is * pg[off + k];
            }
          }
        }
      }
      n.parents[0]->accumulate(std::move(gx));
    }
  });
}

}  // namespace

Var batch_norm2d(const Var& x, const Var& gamma, const Var& beta,
                 Tensor& running_mean, Tensor& running_var, bool training,
                 float momentum, float eps) {
  if (!training) {
    return batch_norm2d_eval(x, gamma, beta, running_mean, running_var, eps);
  }
  const Tensor& xv = x.value();
  if (xv.rank() != 4) throw std::invalid_argument("batch_norm2d: NCHW only");
  const auto nN = xv.dim(0), c = xv.dim(1);
  const auto spatial = xv.dim(2) * xv.dim(3);
  const std::int64_t per_channel = nN * spatial;

  Tensor mean_c = Tensor::unfilled({c});
  Tensor var_c = Tensor::unfilled({c});
  const float* px = xv.data().data();
  for (std::int64_t ic = 0; ic < c; ++ic) {
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
    var_c[ic] = static_cast<float>(std::max(0.0, s2 / per_channel - mu * mu));
  }
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
  return batch_norm2d_apply(x, gamma, beta, std::move(bn), /*training=*/true);
}

Var batch_norm2d_eval(const Var& x, const Var& gamma, const Var& beta,
                      const Tensor& running_mean, const Tensor& running_var,
                      float eps) {
  return batch_norm2d_apply(
      x, gamma, beta,
      fold_batch_norm(gamma.value(), beta.value(), running_mean, running_var,
                      eps),
      /*training=*/false);
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
