#include <cmath>
#include <stdexcept>

#include "autograd/ops.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {

namespace {

/// xhat = (x - mean) * inv_std per channel, into `xhat` when non-null, and
/// gamma * xhat + beta into `out` when non-null. The forward and a backward
/// that must recompute xhat share this loop, so both see the same bits.
void normalize(const Tensor& x, const Tensor& mean_c, const Tensor& inv_std,
               const float* gamma, const float* beta, float* out, float* xhat) {
  const auto nN = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
  const float* px = x.data().data();
  for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const std::int64_t off = (in_n * c + ic) * spatial;
      const float mu = mean_c[ic], is = inv_std[ic];
      const float g = out != nullptr ? gamma[ic] : 0.0f;
      const float b = out != nullptr ? beta[ic] : 0.0f;
      for (std::int64_t k = 0; k < spatial; ++k) {
        const float xh = (px[off + k] - mu) * is;
        if (xhat != nullptr) xhat[off + k] = xh;
        if (out != nullptr) out[off + k] = g * xh + b;
      }
    }
  }
}

/// Shared normalize + autograd tail of batch norm, applied to per-channel
/// moments computed by either entry point. Keeping one body is what makes
/// batch_norm2d_eval bit-identical to batch_norm2d with training=false.
Var batch_norm2d_apply(const Var& x, const Var& gamma, const Var& beta,
                       const Tensor& mean_c, const Tensor& var_c,
                       bool training, float eps) {
  const Tensor& xv = x.value();
  const auto c = xv.dim(1);

  Tensor inv_std({c});
  for (std::int64_t ic = 0; ic < c; ++ic) {
    inv_std[ic] = 1.0f / std::sqrt(var_c[ic] + eps);
  }

  // xhat is read only by gamma's gradient and the training-mode input
  // gradient; keep it only when one of them will be recorded.
  std::vector<Var> parents = {x, gamma, beta};
  const bool keep_xhat = will_record(parents) &&
                         (gamma.requires_grad() || (training && x.requires_grad()));
  Tensor xhat = keep_xhat ? Tensor::unfilled(xv.shape()) : Tensor();
  Tensor out = Tensor::unfilled(xv.shape());
  normalize(xv, mean_c, inv_std, gamma.value().data().data(),
            beta.value().data().data(), out.data().data(),
            keep_xhat ? xhat.data().data() : nullptr);

  return make_op(std::move(out), std::move(parents),
                 [xhat = std::move(xhat), keep_xhat, mean_c,
                  inv_std = std::move(inv_std), training](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const auto nN = xv.dim(0), c = xv.dim(1), spatial = xv.dim(2) * xv.dim(3);
    const bool grad_x = n.parents[0]->requires_grad;
    const bool need_gx = n.parents[1]->requires_grad || (training && grad_x);
    // A gamma un-paused after the forward finds no kept xhat; recompute it
    // from the input rather than return a wrong gradient.
    Tensor recomputed;
    if (need_gx && !keep_xhat) {
      recomputed = Tensor::unfilled(xv.shape());
      normalize(xv, mean_c, inv_std, nullptr, nullptr, nullptr,
                recomputed.data().data());
    }
    const float* pg = n.grad.data().data();
    const float* ph = keep_xhat ? xhat.data().data() : recomputed.data().data();
    const float* pgam = n.parents[1]->value.data().data();

    // Per-channel sums of g and, when a consumer reads it, g*xhat.
    Tensor sum_g({c});
    Tensor sum_gx({c});
    for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
      for (std::int64_t ic = 0; ic < c; ++ic) {
        const std::int64_t off = (in_n * c + ic) * spatial;
        double sg = 0.0, sgx = 0.0;
        for (std::int64_t k = 0; k < spatial; ++k) {
          sg += pg[off + k];
          if (need_gx) sgx += double(pg[off + k]) * ph[off + k];
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
          const float gam_is = pgam[ic] * inv_std[ic];
          if (training) {
            const float mg = sum_g[ic] / m;
            const float mgx = sum_gx[ic] / m;
            for (std::int64_t k = 0; k < spatial; ++k) {
              pgx[off + k] = gam_is * (pg[off + k] - mg - ph[off + k] * mgx);
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
  const Tensor& xv = x.value();
  if (xv.rank() != 4) throw std::invalid_argument("batch_norm2d: NCHW only");
  const auto nN = xv.dim(0), c = xv.dim(1), h = xv.dim(2), w = xv.dim(3);
  const std::int64_t per_channel = nN * h * w;
  const auto spatial = h * w;

  Tensor mean_c({c});
  Tensor var_c({c});
  if (training) {
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
    for (std::int64_t ic = 0; ic < c; ++ic) {
      running_mean[ic] = (1 - momentum) * running_mean[ic] + momentum * mean_c[ic];
      running_var[ic] = (1 - momentum) * running_var[ic] + momentum * var_c[ic];
    }
  } else {
    mean_c = running_mean;
    var_c = running_var;
  }
  return batch_norm2d_apply(x, gamma, beta, mean_c, var_c, training, eps);
}

Var batch_norm2d_eval(const Var& x, const Var& gamma, const Var& beta,
                      const Tensor& running_mean, const Tensor& running_var,
                      float eps) {
  if (x.value().rank() != 4) {
    throw std::invalid_argument("batch_norm2d_eval: NCHW only");
  }
  return batch_norm2d_apply(x, gamma, beta, running_mean, running_var,
                            /*training=*/false, eps);
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
