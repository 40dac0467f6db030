#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "autograd/ops.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"

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

/// f(std::bool_constant<a>{}, std::bool_constant<b>{}) for runtime flags
/// a and b: a loop that tests them per element is compiled once per pair.
template <typename F>
void with_flags(bool a, bool b, const F& f) {
  using T = std::true_type;
  using U = std::false_type;
  if (a) {
    b ? f(T{}, T{}) : f(T{}, U{});
  } else {
    b ? f(U{}, T{}) : f(U{}, U{});
  }
}

/// One chain per lane of a register of doubles; the floats a step of them
/// reads, in as many lanes (tensor/simd.hpp).
using simd::Doubles;
using simd::HalfFloats;
constexpr std::int64_t kLanes = simd::kDoubles;

/// Autograd node of batch norm on folded per-channel constants, with a ReLU
/// after it when `relu`. The forward is the one batch-norm kernel. The
/// backward keeps only the channels' mean and inv_std: it recomputes
/// xh = (x - mu) * is from the parent's value with the forward's
/// expression, and reads the ReLU mask from the node's own output, so one
/// activation tensor serves both. It computes the per-channel sums only
/// when something reads them: gamma's or beta's gradient, or training's
/// input gradient. Which parents require grad is read when the backward
/// runs, so a parameter un-paused after the forward gets its gradient.
///
/// The sums are one double chain per (image, channel) plane, run kLanes
/// planes side by side in the lanes of a register, each lane exactly its
/// plane's chain; the groups of planes split across the pool, and each
/// channel folds its planes' sums in image order on the calling lane. The
/// input gradient pass writes 0 + gam_is * (...) itself, and the result is
/// adopted as is. It splits x's (image, channel) planes across the pool, or,
/// on planes shorter than a register, its images, each looping over C*H*W
/// elements with the per-channel constants expanded over a plane once per
/// call. No bit depends on the lane count.
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

    Tensor sum_g({c}), sum_gx({c});
    if (need_g || need_gx) {
      // Each plane's double chains of gz and of gz * xh, rounded to float,
      // then folded per channel in image order. Lanes past the last plane
      // repeat it and are dropped.
      const std::int64_t planes = nN * c;
      Tensor sg = Tensor::unfilled({planes}), sgx = Tensor::unfilled({planes});
      const std::int64_t groups = (planes + kLanes - 1) / kLanes;
      runtime::parallel_for(
          0, groups, runtime::grain_for(kLanes * spatial),
          [&](std::int64_t g0, std::int64_t g1) {
        for (std::int64_t grp = g0; grp < g1; ++grp) {
          std::int64_t at[kLanes];
          HalfFloats mu, is;
          for (std::int64_t l = 0; l < kLanes; ++l) {
            const std::int64_t i = std::min(grp * kLanes + l, planes - 1);
            at[l] = i * spatial;
            mu[l] = mean[i % c];
            is[l] = inv_std[i % c];
          }
          Doubles s = {}, sx = {};
          const auto step = [&](HalfFloats gz, HalfFloats y, HalfFloats xv) {
            if (relu) {
              // bn_grad's 0 + g * (y > 0 ? 1 : 0), lane by lane.
              const simd::HalfInts one = std::bit_cast<std::int32_t>(1.0f) +
                                         simd::HalfInts{};
              gz = 0.0f + gz * std::bit_cast<HalfFloats>((y > 0.0f) & one);
            }
            const Doubles gzd = __builtin_convertvector(gz, Doubles);
            s += gzd;
            if (need_gx) {
              const HalfFloats xh = (xv - mu) * is;
              sx += gzd * __builtin_convertvector(xh, Doubles);
            }
          };
          std::int64_t k = 0;
          for (; k + kLanes <= spatial; k += kLanes) {
            HalfFloats gz[kLanes], y[kLanes] = {}, xv[kLanes] = {};
            simd::columns(pg, at, k, gz);
            if (relu) simd::columns(py, at, k, y);
            if (need_gx) simd::columns(px, at, k, xv);
            for (std::int64_t j = 0; j < kLanes; ++j) step(gz[j], y[j], xv[j]);
          }
          for (; k < spatial; ++k) {
            step(simd::column<HalfFloats>(pg, at, k),
                 relu ? simd::column<HalfFloats>(py, at, k) : HalfFloats{},
                 need_gx ? simd::column<HalfFloats>(px, at, k) : HalfFloats{});
          }
          for (std::int64_t l = 0; l < kLanes; ++l) {
            const std::int64_t i = grp * kLanes + l;
            if (i >= planes) break;
            sg[i] = static_cast<float>(s[l]);
            sgx[i] = static_cast<float>(sx[l]);
          }
        }
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
      // The constants of channel ic: mu, is, gam_is, mg and mgx.
      constexpr std::int64_t kConsts = 5;
      std::vector<float> per_channel(static_cast<std::size_t>(kConsts * c));
      for (std::int64_t ic = 0; ic < c; ++ic) {
        float* k = per_channel.data() + kConsts * ic;
        k[0] = mean[ic];
        k[1] = inv_std[ic];
        k[2] = pgam[ic] * inv_std[ic];
        k[3] = training ? sum_g[ic] / m : 0.0f;
        k[4] = training ? sum_gx[ic] / m : 0.0f;
      }
      // Planes shorter than a register: each image is one run of C*H*W
      // elements, with every constant expanded over the plane.
      const bool small = spatial < simd::kFloats;
      const std::int64_t run = small ? c * spatial : spatial;
      std::vector<float> expanded;
      if (small) {
        expanded.resize(static_cast<std::size_t>(kConsts * run));
        for (std::int64_t j = 0; j < kConsts; ++j) {
          for (std::int64_t e = 0; e < run; ++e) {
            expanded[j * run + e] = per_channel[kConsts * (e / spatial) + j];
          }
        }
      }
      with_flags(relu, small, [&](auto kRelu, auto kSmall) {
        runtime::parallel_for(
            0, kSmall ? nN : nN * c, runtime::grain_for(run),
            [&](std::int64_t r0, std::int64_t r1) {
          // Element e of the run at off, on its channel's constants.
          const auto element = [&](std::int64_t off, std::int64_t e, float mu,
                                   float is, float gam_is, float mg,
                                   float mgx) {
            const float gz = bn_grad<kRelu.value>(pg, py, off + e);
            if (!training) {
              // Running stats are constants in eval mode.
              pgx[off + e] = plus_zero(gam_is * gz);
              return;
            }
            const float xh = (px[off + e] - mu) * is;
            pgx[off + e] = plus_zero(gam_is * (gz - mg - xh * mgx));
          };
          for (std::int64_t r = r0; r < r1; ++r) {
            const std::int64_t off = r * run;
            if constexpr (kSmall.value) {
              const float* ex = expanded.data();
              for (std::int64_t e = 0; e < run; ++e) {
                element(off, e, ex[e], ex[run + e], ex[2 * run + e],
                        ex[3 * run + e], ex[4 * run + e]);
              }
            } else {
              const float* k = per_channel.data() + kConsts * (r % c);
              const float mu = k[0], is = k[1], gam_is = k[2], mg = k[3],
                          mgx = k[4];
              for (std::int64_t e = 0; e < run; ++e) {
                element(off, e, mu, is, gam_is, mg, mgx);
              }
            }
          }
        });
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

  // One double chain per channel over (image, spatial), kLanes channels
  // side by side in the lanes of a register, each lane exactly its
  // channel's chain; the groups of channels split across the pool. Lanes
  // past the last channel repeat it and are dropped.
  Tensor mean_c = Tensor::unfilled({c});
  Tensor var_c = Tensor::unfilled({c});
  const float* px = xv.data().data();
  runtime::parallel_for(
      0, (c + kLanes - 1) / kLanes, runtime::grain_for(kLanes * per_channel),
      [&](std::int64_t g0, std::int64_t g1) {
        for (std::int64_t grp = g0; grp < g1; ++grp) {
          std::int64_t at[kLanes];
          for (std::int64_t l = 0; l < kLanes; ++l) {
            at[l] = std::min(grp * kLanes + l, c - 1) * spatial;
          }
          Doubles s = {}, s2 = {};
          for (std::int64_t in_n = 0; in_n < nN; ++in_n) {
            simd::each_column<HalfFloats>(px + in_n * c * spatial, at,
                                          spatial, [&](HalfFloats x) {
              const Doubles v = __builtin_convertvector(x, Doubles);
              s += v;
              s2 += v * v;
            });
          }
          for (std::int64_t l = 0; l < kLanes; ++l) {
            const std::int64_t ic = grp * kLanes + l;
            if (ic >= c) break;
            const double mu = s[l] / per_channel;
            mean_c[ic] = static_cast<float>(mu);
            var_c[ic] = static_cast<float>(
                std::max(0.0, s2[l] / per_channel - mu * mu));
          }
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
