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

}  // namespace

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
  const auto oh = (h - kernel) / stride + 1;
  const auto ow = (w - kernel) / stride + 1;
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
  ckk_ = weight.numel() / f_;
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

  // Block the (F, CKK) weight matrix exactly like gemm_packed blocks A:
  // MC-row blocks, KC-depth panels, MR-row strips inside each panel.
  std::size_t total = 0;
  crow_of_f_.resize(static_cast<std::size_t>(f_));
  for (std::int64_t ic = 0; ic < f_; ic += kGemmMC) {
    IcBlock b;
    b.ic = ic;
    b.mc = std::min(kGemmMC, f_ - ic);
    b.mcp = round_up(b.mc, kGemmMR);
    b.c_off = c_rows_;
    c_rows_ += b.mcp;
    for (std::int64_t pc = 0; pc < ckk_; pc += kGemmKC) {
      const std::int64_t kc = std::min(kGemmKC, ckk_ - pc);
      b.a_off.push_back(total);
      total += static_cast<std::size_t>(kc * b.mcp);
    }
    for (std::int64_t r = 0; r < b.mc; ++r) {
      crow_of_f_[static_cast<std::size_t>(ic + r)] = b.c_off + r;
    }
    blocks_.push_back(std::move(b));
  }
  packed_.resize(total);
  const float* wm = weight.data().data();  // (F, CKK) row-major view
  for (const IcBlock& b : blocks_) {
    std::size_t pb = 0;
    for (std::int64_t pc = 0; pc < ckk_; pc += kGemmKC, ++pb) {
      const std::int64_t kc = std::min(kGemmKC, ckk_ - pc);
      gemm_detail::pack_a(wm, ckk_, /*trans=*/false, b.ic, b.mc, pc, kc,
                          packed_.data() + b.a_off[pb]);
    }
  }
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
  const auto n = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const auto oh = conv_out_dim(in_h, spec_.kernel, spec_.stride, spec_.pad);
  const auto ow = conv_out_dim(in_w, spec_.kernel, spec_.stride, spec_.pad);
  const std::int64_t spatial = oh * ow;
  const std::int64_t total_cols = n * spatial;
  Tensor out({n, f_, oh, ow});
  if (total_cols == 0) return out;
  if (skip != nullptr && skip->shape() != out.shape()) {
    throw std::invalid_argument("ConvEvalPlan::run: skip shape mismatch");
  }

  const float* px = x.data().data();
  const float* psk = skip != nullptr ? skip->data().data() : nullptr;
  float* po = out.data().data();
  // rank check, not numel: a default Tensor is a rank-0 scalar (numel 1).
  const float* pbias = bias_.rank() > 0 ? bias_.data().data() : nullptr;
  const bool has_bn = bn_.defined();
  const float* pmu = has_bn ? bn_.mean.data().data() : nullptr;
  const float* pis = has_bn ? bn_.inv_std.data().data() : nullptr;
  const float* pg = has_bn ? bn_.gamma.data().data() : nullptr;
  const float* pbeta = has_bn ? bn_.beta.data().data() : nullptr;

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
                                static_cast<std::size_t>(c_rows_ * tc));
      std::memset(acc, 0, static_cast<std::size_t>(c_rows_ * tc) * sizeof(float));
      float* bp = arena.floats(runtime::Scratch::kConvPackB,
                               static_cast<std::size_t>(kGemmKC * tc));
      std::size_t pb_idx = 0;
      for (std::int64_t pc = 0; pc < ckk_; pc += kGemmKC, ++pb_idx) {
        const std::int64_t kc = std::min(kGemmKC, ckk_ - pc);
        pack_b_cols(px, c_, in_h, in_w, spec_, ow, spatial, total_cols, pc, kc,
                    j0, tc, bp);
        static obs::ProfileSite& kprof =
            obs::profile_site("tensor/conv_eval/kernel");
        obs::ProfileScope kscope(kprof);
        for (const IcBlock& b : blocks_) {
          const float* ap = packed_.data() + b.a_off[pb_idx];
          for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
            const float* bstrip = bp + jr * kc;
            for (std::int64_t ir = 0; ir < b.mcp; ir += kGemmMR) {
              // Rows are MR-padded and columns NR-padded in the scratch
              // block, so the full-size kernel always applies.
              gemm_detail::micro_kernel(kc, ap + ir * kc, bstrip,
                                        acc + (b.c_off + ir) * tc + jr, tc);
            }
          }
        }
      }
      // Fused epilogue: single scatter to NCHW, applying the reference
      // per-element expressions in reference order (bias -> BN -> skip ->
      // ReLU). The padded accumulator rows/columns are simply never read.
      for (std::int64_t f = 0; f < f_; ++f) {
        const float* crow = acc + crow_of_f_[static_cast<std::size_t>(f)] * tc;
        const float bf = pbias != nullptr ? pbias[f] : 0.0f;
        const float mu = has_bn ? pmu[f] : 0.0f;
        const float is = has_bn ? pis[f] : 0.0f;
        const float g = has_bn ? pg[f] : 0.0f;
        const float bb = has_bn ? pbeta[f] : 0.0f;
        std::int64_t jj = 0;
        while (jj < cols) {
          const std::int64_t j = j0 + jj;
          const std::int64_t in_n = j / spatial;
          const std::int64_t s = j % spatial;
          const std::int64_t run = std::min(cols - jj, spatial - s);
          const std::int64_t base = (in_n * f_ + f) * spatial + s;
          for (std::int64_t r = 0; r < run; ++r) {
            float v = crow[jj + r];
            if (pbias != nullptr) v += bf;       // conv2d's bias pass
            if (has_bn) {
              const float xh = (v - mu) * is;    // batch_norm2d_apply
              v = g * xh + bb;
            }
            if (psk != nullptr) v = v + psk[base + r];  // ag::add(h, skip)
            if (relu_) v = v > 0.0f ? v : 0.0f;  // ag::relu
            po[base + r] = v;
          }
          jj += run;
        }
      }
    }
  });
  return out;
}

}  // namespace ibrar
