#include "tensor/conv_eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scratch_arena.hpp"
#include "tensor/gemm_packed.hpp"

namespace ibrar {
namespace {

inline std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

/// Implicit-im2col B pack: fill the packed block for depth rows [pc, pc+kc)
/// and global columns [j0, j0+tc) straight from the NCHW input, in the exact
/// NR-column-strip p-major layout gemm_detail::micro_kernel consumes
/// (dst[jr*kc + p*NR + jj] = cols(j0+jr+jj, pc+p)). Global column
/// j = image * OH*OW + (oy*OW + ox); the gathered value is exactly what
/// im2col would have written for that (row, p) — including the zero padding
/// ring — so the micro-kernel sees the same operand values as the reference
/// path without the columns tensor ever existing. Columns past `total_cols`
/// are zero-filled (they land in padded output the epilogue never reads).
void pack_b_cols(const float* x, std::int64_t c, std::int64_t in_h,
                 std::int64_t in_w, const Conv2dSpec& spec, std::int64_t ow,
                 std::int64_t spatial, std::int64_t total_cols, std::int64_t pc,
                 std::int64_t kc, std::int64_t j0, std::int64_t tc, float* bp) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv_eval/pack_b");
  obs::ProfileScope prof_scope(prof);
  const std::int64_t k = spec.kernel;
  const std::int64_t plane = in_h * in_w;
  for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
    float* dst = bp + jr * kc;
    // Per-column source geometry, hoisted out of the depth walk.
    const float* xbase[kGemmNR];
    std::int64_t iy0[kGemmNR];
    std::int64_t ix0[kGemmNR];
    for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
      const std::int64_t col = j0 + jr + jj;
      if (col < total_cols) {
        const std::int64_t in_n = col / spatial;
        const std::int64_t s = col % spatial;
        xbase[jj] = x + in_n * c * plane;
        iy0[jj] = (s / ow) * spec.stride - spec.pad;
        ix0[jj] = (s % ow) * spec.stride - spec.pad;
      } else {
        xbase[jj] = nullptr;
      }
    }
    // Walk p = ic*K*K + ky*K + kx with carried counters (im2col's row order).
    std::int64_t ic = pc / (k * k);
    std::int64_t rem = pc % (k * k);
    std::int64_t ky = rem / k;
    std::int64_t kx = rem % k;
    for (std::int64_t p = 0; p < kc; ++p) {
      float* row = dst + p * kGemmNR;
      const std::int64_t plane_off = ic * plane;
      for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
        if (xbase[jj] == nullptr) {
          row[jj] = 0.0f;
          continue;
        }
        const std::int64_t iy = iy0[jj] + ky;
        const std::int64_t ix = ix0[jj] + kx;
        const bool in_bounds = static_cast<std::uint64_t>(iy) <
                                   static_cast<std::uint64_t>(in_h) &&
                               static_cast<std::uint64_t>(ix) <
                                   static_cast<std::uint64_t>(in_w);
        row[jj] = in_bounds ? xbase[jj][plane_off + iy * in_w + ix] : 0.0f;
      }
      if (++kx == k) {
        kx = 0;
        if (++ky == k) {
          ky = 0;
          ++ic;
        }
      }
    }
  }
}

/// Floats of a conv's packed weight panels: F rows padded up to MR, times
/// the reduction depth.
std::size_t panel_floats(std::int64_t f, std::int64_t ckk) {
  return static_cast<std::size_t>(round_up(f, kGemmMR) * ckk);
}

/// Pack weight (F,C,K,K), read as the (F, CKK) row-major matrix it already
/// is, as gemm_packed packs A: depth block pc becomes one panel of MR-row
/// strips at offset pc * round_up(F, MR), its strip for rows [ir, ir+MR) at
/// ir * kc within the panel, rows past F zero-filled.
void pack_weights(const Tensor& w, float* panels) {
  const std::int64_t f = w.dim(0);
  const std::int64_t ckk = w.dim(1) * w.dim(2) * w.dim(3);
  const std::int64_t fp = round_up(f, kGemmMR);
  for (std::int64_t pc = 0; pc < ckk; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, ckk - pc);
    gemm_detail::pack_a(w.data().data(), ckk, /*trans=*/false, 0, f, pc, kc,
                        panels + pc * fp);
  }
}

/// What the driver's scatter applies after the GEMM; null/false parts are
/// skipped. conv2d sets only the bias.
struct Epilogue {
  const float* bias = nullptr;    ///< (F)
  const FoldedBn* bn = nullptr;
  const Tensor* skip = nullptr;   ///< residual, output-shaped
  bool relu = false;
};

/// The conv driver: x (N,C,H,W) against weight panels packed by
/// pack_weights for f filters -> (N,F,OH,OW) with the epilogue applied.
Tensor run_conv(const Tensor& x, const float* panels, std::int64_t f,
                const Conv2dSpec& spec, const Epilogue& ep) {
  const auto n = x.dim(0), c = x.dim(1), in_h = x.dim(2), in_w = x.dim(3);
  const std::int64_t ckk = c * spec.kernel * spec.kernel;
  const std::int64_t fp = round_up(f, kGemmMR);
  const auto oh = conv_out_dim(in_h, spec.kernel, spec.stride, spec.pad);
  const auto ow = conv_out_dim(in_w, spec.kernel, spec.stride, spec.pad);
  const std::int64_t spatial = oh * ow;
  const std::int64_t total_cols = n * spatial;
  Tensor out({n, f, oh, ow});
  if (ep.skip != nullptr && ep.skip->shape() != out.shape()) {
    throw std::invalid_argument("conv: skip shape mismatch");
  }
  if (total_cols == 0) return out;

  const float* px = x.data().data();
  const float* psk = ep.skip != nullptr ? ep.skip->data().data() : nullptr;
  const float* pbias = ep.bias;
  float* po = out.data().data();
  const bool has_bn = ep.bn != nullptr;
  const float* pmu = has_bn ? ep.bn->mean.data().data() : nullptr;
  const float* pis = has_bn ? ep.bn->inv_std.data().data() : nullptr;
  const float* pg = has_bn ? ep.bn->gamma.data().data() : nullptr;
  const float* pbeta = has_bn ? ep.bn->beta.data().data() : nullptr;

  // Column tasks: tc_max global columns (pooled across the batch) per unit of
  // work, mirroring gemm_packed's NC panel width. Each task owns its own
  // C accumulator block and B strips, so tasks split across lanes freely;
  // every output element is produced by exactly one task with the same
  // micro-kernel chain regardless of the split.
  const std::int64_t tc_max = kGemmNC;
  const std::int64_t ntasks = (total_cols + tc_max - 1) / tc_max;
  runtime::parallel_for(0, ntasks, 1, [&](std::int64_t t0, std::int64_t t1) {
    runtime::ScratchArena& arena = runtime::lane_arena();
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t j0 = t * tc_max;
      const std::int64_t cols = std::min(tc_max, total_cols - j0);
      const std::int64_t tc = round_up(cols, kGemmNR);
      float* acc = arena.floats(runtime::Scratch::kConvAccC,
                                static_cast<std::size_t>(fp * tc));
      std::memset(acc, 0, static_cast<std::size_t>(fp * tc) * sizeof(float));
      float* bp = arena.floats(runtime::Scratch::kConvPackB,
                               static_cast<std::size_t>(kGemmKC * tc));
      for (std::int64_t pc = 0; pc < ckk; pc += kGemmKC) {
        const std::int64_t kc = std::min(kGemmKC, ckk - pc);
        pack_b_cols(px, c, in_h, in_w, spec, ow, spatial, total_cols, pc, kc,
                    j0, tc, bp);
        static obs::ProfileSite& kprof =
            obs::profile_site("tensor/conv_eval/kernel");
        obs::ProfileScope kscope(kprof);
        const float* panel = panels + pc * fp;
        for (std::int64_t ic = 0; ic < fp; ic += kGemmMC) {
          const std::int64_t ie = std::min(ic + kGemmMC, fp);
          for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
            const float* bstrip = bp + jr * kc;
            for (std::int64_t ir = ic; ir < ie; ir += kGemmMR) {
              // Rows are MR-padded and columns NR-padded in the scratch
              // block, so the full-size kernel always applies.
              gemm_detail::micro_kernel(kc, panel + ir * kc, bstrip,
                                        acc + ir * tc + jr, tc);
            }
          }
        }
      }
      // Epilogue: single scatter to NCHW, applying the reference
      // per-element expressions in reference order (bias -> BN -> skip ->
      // ReLU). The padded accumulator rows/columns are simply never read.
      for (std::int64_t of = 0; of < f; ++of) {
        const float* crow = acc + of * tc;
        const float bf = pbias != nullptr ? pbias[of] : 0.0f;
        const float mu = has_bn ? pmu[of] : 0.0f;
        const float is = has_bn ? pis[of] : 0.0f;
        const float g = has_bn ? pg[of] : 0.0f;
        const float bb = has_bn ? pbeta[of] : 0.0f;
        std::int64_t jj = 0;
        while (jj < cols) {
          const std::int64_t j = j0 + jj;
          const std::int64_t in_n = j / spatial;
          const std::int64_t s = j % spatial;
          const std::int64_t run = std::min(cols - jj, spatial - s);
          const std::int64_t base = (in_n * f + of) * spatial + s;
          for (std::int64_t r = 0; r < run; ++r) {
            float v = crow[jj + r];
            if (pbias != nullptr) v += bf;       // the bias pass
            if (has_bn) {
              const float xh = (v - mu) * is;    // batch_norm2d_apply
              v = g * xh + bb;
            }
            if (psk != nullptr) v = v + psk[base + r];  // ag::add(h, skip)
            if (ep.relu) v = v > 0.0f ? v : 0.0f;  // ag::relu
            po[base + r] = v;
          }
          jj += run;
        }
      }
    }
  });
  return out;
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
              const Conv2dSpec& spec) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv2d");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() != 4 || w.rank() != 4) {
    throw std::invalid_argument("conv2d: x and w must be rank 4");
  }
  if (x.dim(1) != w.dim(1)) throw std::invalid_argument("conv2d: channel mismatch");
  if (w.dim(2) != spec.kernel || w.dim(3) != spec.kernel) {
    throw std::invalid_argument("conv2d: weight/spec kernel mismatch");
  }
  const auto f = w.dim(0);
  if (bias != nullptr && bias->numel() != f) {
    throw std::invalid_argument("conv2d: bias size");
  }
  float* panels = runtime::lane_arena().floats(
      runtime::Scratch::kConvPackA,
      panel_floats(f, w.dim(1) * spec.kernel * spec.kernel));
  pack_weights(w, panels);
  Epilogue ep;
  ep.bias = bias != nullptr ? bias->data().data() : nullptr;
  return run_conv(x, panels, f, spec, ep);
}

FoldedBn fold_batch_norm(const Tensor& gamma, const Tensor& beta,
                         const Tensor& running_mean, const Tensor& running_var,
                         float eps) {
  const auto c = running_mean.numel();
  if (gamma.numel() != c || beta.numel() != c || running_var.numel() != c) {
    throw std::invalid_argument("fold_batch_norm: channel count mismatch");
  }
  FoldedBn bn;
  bn.mean = running_mean;
  bn.gamma = gamma;
  bn.beta = beta;
  bn.inv_std = Tensor({c});
  // Identical expression to batch_norm2d_apply's inv_std loop: folding moves
  // the divide/sqrt to publish time without changing a single rounding.
  for (std::int64_t ic = 0; ic < c; ++ic) {
    bn.inv_std[ic] = 1.0f / std::sqrt(running_var[ic] + eps);
  }
  return bn;
}

Tensor batch_norm_relu_eval(const Tensor& x, const FoldedBn& bn, bool relu) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/bn_relu_eval");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() != 4) {
    throw std::invalid_argument("batch_norm_relu_eval: NCHW only");
  }
  const auto n = x.dim(0), c = x.dim(1);
  const std::int64_t spatial = x.dim(2) * x.dim(3);
  if (bn.mean.numel() != c) {
    throw std::invalid_argument("batch_norm_relu_eval: channel mismatch");
  }
  Tensor out(x.shape());
  const float* px = x.data().data();
  float* po = out.data().data();
  const float* pmu = bn.mean.data().data();
  const float* pis = bn.inv_std.data().data();
  const float* pg = bn.gamma.data().data();
  const float* pb = bn.beta.data().data();
  const std::int64_t grain = runtime::grain_for(spatial);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const std::int64_t ic = i % c;
      const std::int64_t off = i * spatial;
      const float mu = pmu[ic], is = pis[ic], g = pg[ic], b = pb[ic];
      for (std::int64_t kk = 0; kk < spatial; ++kk) {
        // batch_norm2d_apply's exact element expression, then relu's.
        const float xh = (px[off + kk] - mu) * is;
        float v = g * xh + b;
        if (relu) v = v > 0.0f ? v : 0.0f;
        po[off + kk] = v;
      }
    }
  });
  return out;
}

Tensor maxpool2d_eval(const Tensor& x, std::int64_t kernel,
                      std::int64_t stride) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/maxpool2d_eval");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() != 4) throw std::invalid_argument("maxpool2d_eval: NCHW only");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto oh = conv_out_dim(h, kernel, stride, 0);
  const auto ow = conv_out_dim(w, kernel, stride, 0);
  Tensor out({n, c, oh, ow});
  const float* px = x.data().data();
  float* po = out.data().data();
  const std::int64_t out_spatial = oh * ow;
  const std::int64_t grain = runtime::grain_for(out_spatial * kernel * kernel);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t plane_idx = p0; plane_idx < p1; ++plane_idx) {
      const float* plane = px + plane_idx * h * w;
      std::int64_t oi = plane_idx * out_spatial;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          // Same comparison chain as maxpool2d, minus the argmax bookkeeping.
          float best = -std::numeric_limits<float>::infinity();
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const float v = plane[(oy * stride + ky) * w + ox * stride + kx];
              if (v > best) best = v;
            }
          }
          po[oi++] = best;
        }
      }
    }
  });
  return out;
}

void ConvEvalPlan::account(double sign) const {
  const double bytes = static_cast<double>(packed_.size() * sizeof(float));
  if (bytes != 0.0) {
    static obs::Gauge& gauge = obs::registry().gauge("serve.snapshot_bytes");
    gauge.add(sign * bytes);
  }
}

ConvEvalPlan::ConvEvalPlan(const Tensor& weight, const Tensor* bias,
                           const Conv2dSpec& spec, FoldedBn bn, bool relu)
    : spec_(spec), bn_(std::move(bn)), relu_(relu) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv_eval/prepack");
  obs::ProfileScope prof_scope(prof);
  if (weight.rank() != 4) {
    throw std::invalid_argument("ConvEvalPlan: weight must be (F,C,K,K)");
  }
  f_ = weight.dim(0);
  c_ = weight.dim(1);
  if (weight.dim(2) != spec.kernel || weight.dim(3) != spec.kernel) {
    throw std::invalid_argument("ConvEvalPlan: weight/spec kernel mismatch");
  }
  if (bias != nullptr) {
    if (bias->numel() != f_) throw std::invalid_argument("ConvEvalPlan: bias");
    bias_ = *bias;
  }
  if (bn_.defined() && bn_.mean.numel() != f_) {
    throw std::invalid_argument("ConvEvalPlan: BN channel mismatch");
  }

  packed_.resize(panel_floats(f_, c_ * spec.kernel * spec.kernel));
  pack_weights(weight, packed_.data());
  account(+1.0);
}

ConvEvalPlan::~ConvEvalPlan() { account(-1.0); }

Tensor ConvEvalPlan::run(const Tensor& x, const Tensor* skip) const {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv_eval/fused");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() != 4) throw std::invalid_argument("ConvEvalPlan::run: NCHW");
  if (x.dim(1) != c_) {
    throw std::invalid_argument("ConvEvalPlan::run: channel mismatch");
  }
  Epilogue ep;
  // rank check, not numel: a default Tensor is a rank-0 scalar (numel 1).
  ep.bias = bias_.rank() > 0 ? bias_.data().data() : nullptr;
  ep.bn = bn_.defined() ? &bn_ : nullptr;
  ep.skip = skip;
  ep.relu = relu_;
  return run_conv(x, packed_.data(), f_, spec_, ep);
}

}  // namespace ibrar
