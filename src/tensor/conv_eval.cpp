#include "tensor/conv_eval.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm_packed.hpp"

namespace ibrar {
namespace {

inline std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

/// One block of a conv GEMM's output columns: [j0, j0 + cols).
struct ColBlock {
  std::int64_t j0;
  std::int64_t cols;
};

/// B rows of a depth block packed into the lane's strips at bp (kc x tc).
struct PackedBlock {
  const float* bp;
  std::int64_t kc;
  gemm_detail::PackedRows strip(std::int64_t jr) const {
    return {bp + jr * kc};
  }
};

/// B rows of a depth block read in place: the row of tap p for block column
/// jr is the NR floats at base + jr + off[p].
struct InPlaceBlock {
  const float* base;
  const std::int64_t* off;
  gemm_detail::OffsetRows strip(std::int64_t jr) const {
    return {base + jr, off};
  }
};

/// B rows of a depth block read in place from an NCHW (N, F, S) tensor whose
/// planes hold a whole number of NR-column strips: the row of filter p for
/// the strip at block column jr (global column j = image * S + s) is the NR
/// floats at plane (image, p), position s, off[p] = p * S floats past
/// filter 0's.
struct PlaneBlock {
  const float* g;
  std::int64_t f, spatial, j0;
  const std::int64_t* off;
  gemm_detail::OffsetRows strip(std::int64_t jr) const {
    const std::int64_t j = j0 + jr;
    return {g + j / spatial * f * spatial + j % spatial, off};
  }
};

/// The task, B source and kernel loop every conv kernel runs: C = A * B,
/// with A the shared `panels` (pack_panels' layout for `rows` rows and
/// `depth` reduction steps) and B's rows for depth rows [pc, pc+kc) of a
/// column block given by source(pc, kc, blk, tc, bp): a PackedBlock after
/// it packs the lane's KC x tc strips at bp, or an InPlaceBlock that packs
/// nothing. Blocks [t * per_task, (t + 1) * per_task) form task t and run in
/// ascending order on one lane. Each block's C (rows padded to MR, tc =
/// cols padded to NR, row-major with leading dimension tc) lives in the
/// lane's accumulator: the first depth block's kernel calls start every
/// chain from +0 in a register and write it, later ones load it, and the
/// block goes to store(blk, acc, tc). Every C element is one
/// ascending-depth chain on the one micro-kernel whatever the split or the
/// source, so the bits depend on neither the lane count nor on where B's
/// rows are read from. The depth loop runs at least once, so a C of depth
/// 0 is written too, as +0.
template <typename BlockOf, typename Source, typename Store>
void run_blocks(const float* panels, std::int64_t rows, std::int64_t depth,
                std::int64_t nblocks, std::int64_t per_task,
                obs::ProfileSite* kernel_site, const BlockOf& block_of,
                const Source& source, const Store& store) {
  const std::int64_t rp = round_up(rows, kGemmMR);
  const std::int64_t ntasks = (nblocks + per_task - 1) / per_task;
  runtime::parallel_for(0, ntasks, 1, [&](std::int64_t t0, std::int64_t t1) {
    runtime::ScratchArena& arena = runtime::lane_arena();
    const std::int64_t b1 = std::min(nblocks, t1 * per_task);
    for (std::int64_t b = t0 * per_task; b < b1; ++b) {
      const ColBlock blk = block_of(b);
      const std::int64_t tc = round_up(blk.cols, kGemmNR);
      float* acc = arena.floats(runtime::Scratch::kConvAccC,
                                static_cast<std::size_t>(rp * tc));
      float* bp = arena.floats(runtime::Scratch::kConvPackB,
                               static_cast<std::size_t>(kGemmKC * tc));
      for (std::int64_t pc = 0; pc == 0 || pc < depth; pc += kGemmKC) {
        const std::int64_t kc = std::min(kGemmKC, depth - pc);
        const auto src = source(pc, kc, blk, tc, bp);
        std::optional<obs::ProfileScope> kscope;
        if (kernel_site != nullptr) kscope.emplace(*kernel_site);
        const float* panel = panels + pc * rp;
        for (std::int64_t ic = 0; ic < rp; ic += kGemmMC) {
          const std::int64_t ie = std::min(ic + kGemmMC, rp);
          for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
            const auto strip = src.strip(jr);
            for (std::int64_t ir = ic; ir < ie; ir += kGemmMR) {
              // Rows are MR-padded and columns NR-padded in the scratch
              // block, so the full-size kernel always applies.
              gemm_detail::micro_kernel(kc, panel + ir * kc, strip,
                                        acc + ir * tc + jr, tc,
                                        /*load_c=*/pc > 0);
            }
          }
        }
      }
      store(blk, acc, tc);
    }
  });
}

/// (N, F, OH, OW) of conv2d for an input of shape x and a weight of shape w;
/// throws std::invalid_argument when x, w and spec do not form a conv.
Shape conv_out_shape(const Shape& x, const Shape& w, const Conv2dSpec& spec,
                     const char* who) {
  auto fail = [who](const char* what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (x.size() != 4 || w.size() != 4) fail("x and w must be rank 4");
  if (x[1] != w[1]) fail("channel mismatch");
  if (w[2] != spec.kernel || w[3] != spec.kernel) {
    fail("weight/spec kernel mismatch");
  }
  return {x[0], w[0], conv_out_dim(x[2], spec.kernel, spec.stride, spec.pad),
          conv_out_dim(x[3], spec.kernel, spec.stride, spec.pad)};
}

/// Throws std::invalid_argument unless g has conv2d's output shape for x, w
/// and spec.
void check_grad_shape(const Tensor& g, const Shape& x, const Shape& w,
                      const Conv2dSpec& spec, const char* who) {
  const Shape expect = conv_out_shape(x, w, spec, who);
  if (g.shape() != expect) {
    throw std::invalid_argument(std::string(who) + ": g is " +
                                shape_str(g.shape()) + ", expected " +
                                shape_str(expect));
  }
}

/// Implicit-im2col B pack: fill the packed block for depth rows [pc, pc+kc)
/// and the block's columns straight from the NCHW input, in the exact
/// NR-column-strip p-major layout gemm_detail::micro_kernel consumes
/// (dst[jr*kc + p*NR + jj] = cols(blk.j0+jr+jj, pc+p)). Global column
/// j = image * OH*OW + (oy*OW + ox); the gathered value is exactly what
/// im2col would have written for that (row, p) — including the zero padding
/// ring — so the micro-kernel sees the same operand values as the reference
/// path without the columns tensor ever existing. Columns past blk.cols are
/// zero-filled (they land in padded output the epilogue never reads).
void pack_b_cols(const float* x, std::int64_t c, std::int64_t in_h,
                 std::int64_t in_w, const Conv2dSpec& spec, std::int64_t ow,
                 std::int64_t spatial, std::int64_t pc, std::int64_t kc,
                 const ColBlock& blk, std::int64_t tc, float* bp) {
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
      if (jr + jj < blk.cols) {
        const std::int64_t col = blk.j0 + jr + jj;
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

/// Input-gradient B pack: depth rows [pc, pc+kc) (output channels) of the
/// block's columns, copied straight from the NCHW gradient g (N,F,OH,OW):
/// element (p, jj) of strip jr is g[image, pc + p, s] for column
/// blk.j0 + jr + jj = image * OH*OW + s. Columns past blk.cols are zero.
void pack_b_planes(const float* g, std::int64_t f, std::int64_t spatial,
                   std::int64_t pc, std::int64_t kc, const ColBlock& blk,
                   std::int64_t tc, float* bp) {
  for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
    float* dst = bp + jr * kc;
    const float* src[kGemmNR];
    for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
      const std::int64_t j = blk.j0 + jr + jj;
      src[jj] = jr + jj < blk.cols
                    ? g + ((j / spatial) * f + pc) * spatial + j % spatial
                    : nullptr;
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      float* row = dst + p * kGemmNR;
      for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
        row[jj] = src[jj] != nullptr ? src[jj][p * spatial] : 0.0f;
      }
    }
  }
}

/// First output index whose tap at offset `t` lands inside an input of
/// length `in` (0 <= o*st - pad + t < in), and one past the last, capped at
/// `out`.
inline std::int64_t first_inside(std::int64_t t, std::int64_t st,
                                 std::int64_t pad) {
  return t < pad ? (pad - t + st - 1) / st : 0;
}
inline std::int64_t end_inside(std::int64_t t, std::int64_t st,
                               std::int64_t pad, std::int64_t in,
                               std::int64_t out) {
  const std::int64_t last = in - 1 + pad - t;
  return last < 0 ? 0 : std::min(out, last / st + 1);
}

/// Input-gradient scatter: add the block's C, whose rows are the input taps
/// (ic, ky, kx) and whose columns are output positions, into gx (N,C,H,W).
/// An input element takes at most one contribution per tap (ky, kx), from
/// the output position (oy, ox) that tap maps onto it; walking the taps in
/// descending order therefore adds its contributors in ascending (oy, ox)
/// order, the order of col2im's row walk. Blocks of one image run in
/// ascending order on one lane, so the order holds across them.
void scatter_input_grad(const float* acc, std::int64_t tc, const ColBlock& blk,
                        std::int64_t c, std::int64_t in_h, std::int64_t in_w,
                        const Conv2dSpec& spec, std::int64_t oh,
                        std::int64_t ow, float* gx) {
  const std::int64_t k = spec.kernel, st = spec.stride, pad = spec.pad;
  const std::int64_t spatial = oh * ow;
  const std::int64_t plane = in_h * in_w;
  for (std::int64_t ky = k - 1; ky >= 0; --ky) {
    const std::int64_t y_lo = first_inside(ky, st, pad);
    const std::int64_t y_hi = end_inside(ky, st, pad, in_h, oh);
    for (std::int64_t kx = k - 1; kx >= 0; --kx) {
      const std::int64_t x_lo = first_inside(kx, st, pad);
      const std::int64_t x_hi = end_inside(kx, st, pad, in_w, ow);
      if (y_lo >= y_hi || x_lo >= x_hi) continue;
      // Input offset of output position (0, 0) under this tap.
      const std::int64_t tap_off = (ky - pad) * in_w + (kx - pad);
      std::int64_t jj = 0;
      while (jj < blk.cols) {
        // One image's columns [s0, s1) of the block.
        const std::int64_t in_n = (blk.j0 + jj) / spatial;
        const std::int64_t s0 = (blk.j0 + jj) % spatial;
        const std::int64_t s1 = std::min(spatial, s0 + blk.cols - jj);
        const std::int64_t oy0 = std::max(y_lo, s0 / ow);
        const std::int64_t oy1 = std::min(y_hi, (s1 - 1) / ow + 1);
        for (std::int64_t ic = 0; ic < c; ++ic) {
          // crow[s - s0] is this tap's value at output position s.
          const float* crow = acc + ((ic * k + ky) * k + kx) * tc + jj;
          const std::int64_t base = (in_n * c + ic) * plane + tap_off;
          for (std::int64_t oy = oy0; oy < oy1; ++oy) {
            const std::int64_t lo = std::max(x_lo, s0 - oy * ow);
            const std::int64_t hi = std::min(x_hi, s1 - oy * ow);
            const std::int64_t xrow = base + oy * st * in_w;
            const std::int64_t crow_off = oy * ow - s0;
            for (std::int64_t ox = lo; ox < hi; ++ox) {
              gx[xrow + ox * st] += crow[crow_off + ox];
            }
          }
        }
        jj += s1 - s0;
      }
    }
  }
}

/// The tap mask of a stride-1 conv whose output is its input's size (H x W):
/// row ky * K + kx holds, for each of `cols` columns of whole images
/// (column j at position j % (H*W)), all ones where that tap of the
/// column's output position lands inside the image and 0 where it falls
/// off. The pattern repeats per image, so a block of fewer images reads a
/// prefix of each row.
void tap_mask(std::int64_t k, std::int64_t pad, std::int64_t in_h,
              std::int64_t in_w, std::int64_t cols, std::uint32_t* mask) {
  const std::int64_t spatial = in_h * in_w;
  for (std::int64_t ky = 0; ky < k; ++ky) {
    for (std::int64_t kx = 0; kx < k; ++kx) {
      std::uint32_t* row = mask + (ky * k + kx) * cols;
      for (std::int64_t j = 0; j < cols; ++j) {
        const std::int64_t s = j % spatial;
        const std::int64_t iy = s / in_w + ky - pad;
        const std::int64_t ix = s % in_w + kx - pad;
        row[j] = iy >= 0 && iy < in_h && ix >= 0 && ix < in_w ? ~0u : 0u;
      }
    }
  }
}

/// Input-gradient scatter of a stride-1 conv whose output is its input's
/// size, for a block of whole images: add the block's C into dx, the
/// block's input gradient channel-major (channel ic's `cols` columns, image
/// after image, from ic * cols). Column j of tap row (ic, ky, kx) lands on
/// dx column j + (ky - pad) * W + (kx - pad), so each row is added as one
/// shifted run; where the tap's mask row (tap_mask, leading dimension
/// mask_ld) is 0 the target is off the image and is left as it is, by a
/// select rather than an add of +0. Walking the taps in descending order adds
/// each input element's contributors in ascending (oy, ox) order, as
/// scatter_input_grad does.
void add_tap_rows(const float* acc, std::int64_t tc, std::int64_t cols,
                  std::int64_t c, std::int64_t k, std::int64_t pad,
                  std::int64_t in_w, const std::uint32_t* mask,
                  std::int64_t mask_ld, float* dx) {
  for (std::int64_t ic = 0; ic < c; ++ic) {
    float* __restrict d = dx + ic * cols;
    for (std::int64_t ky = k - 1; ky >= 0; --ky) {
      for (std::int64_t kx = k - 1; kx >= 0; --kx) {
        const std::int64_t shift = (ky - pad) * in_w + (kx - pad);
        const float* __restrict a = acc + ((ic * k + ky) * k + kx) * tc;
        const std::uint32_t* __restrict m = mask + (ky * k + kx) * mask_ld;
        // A target outside [0, cols) is off its image, so masked anyway.
        const std::int64_t j1 = std::min(cols, cols - shift);
        for (std::int64_t j = std::max<std::int64_t>(0, -shift); j < j1; ++j) {
          // A select on bit patterns: branch-free, so it vectorizes
          // without AVX's masked stores too.
          const float v = d[j + shift];
          const auto keep = std::bit_cast<std::uint32_t>(v);
          const auto sum = std::bit_cast<std::uint32_t>(v + a[j]);
          d[j + shift] = std::bit_cast<float>(keep ^ ((keep ^ sum) & m[j]));
        }
      }
    }
  }
}

/// Weight-gradient A pack: depth block [pc, pc+kc) of g read as the
/// (F, N*OH*OW) matrix (row f, column p = image * OH*OW + s), in pack_a's
/// MR-row strip layout. Rows past f are zero-filled.
void pack_a_planes(const float* g, std::int64_t f, std::int64_t spatial,
                   std::int64_t pc, std::int64_t kc, float* ap) {
  const std::int64_t fp = round_up(f, kGemmMR);
  std::int64_t in_n = pc / spatial;
  std::int64_t s = pc % spatial;
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* col = g + in_n * f * spatial + s;
    for (std::int64_t ir = 0; ir < fp; ir += kGemmMR) {
      float* dst = ap + ir * kc + p * kGemmMR;
      for (std::int64_t r = 0; r < kGemmMR; ++r) {
        dst[r] = ir + r < f ? col[(ir + r) * spatial] : 0.0f;
      }
    }
    if (++s == spatial) {
      s = 0;
      ++in_n;
    }
  }
}

/// Weight-gradient B pack: depth rows [pc, pc+kc) (p = image * OH*OW +
/// oy*OW + ox) of the block's columns, the input taps q = (ic, ky, kx),
/// gathered straight from the NCHW input: element (p, jj) of strip jr is
/// im2col(x)[p, blk.j0 + jr + jj], zero in the padding ring and past
/// blk.cols.
void pack_b_taps(const float* x, std::int64_t c, std::int64_t in_h,
                 std::int64_t in_w, const Conv2dSpec& spec, std::int64_t ow,
                 std::int64_t spatial, std::int64_t pc, std::int64_t kc,
                 const ColBlock& blk, std::int64_t tc, float* bp) {
  const std::int64_t k = spec.kernel;
  const std::int64_t plane = in_h * in_w;
  const std::int64_t oh = spatial / ow;
  for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
    float* dst = bp + jr * kc;
    // Per-tap source geometry, hoisted out of the depth walk. A tap past
    // blk.cols gets an offset no window reaches, so it always reads zero.
    std::int64_t off[kGemmNR];
    std::int64_t ty[kGemmNR];
    std::int64_t tx[kGemmNR];
    for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
      const std::int64_t q = blk.j0 + jr + jj;
      const bool valid = jr + jj < blk.cols;
      ty[jj] = valid ? (q % (k * k)) / k : -in_h - spec.pad - 1;
      tx[jj] = valid ? q % k : 0;
      off[jj] = valid ? (q / (k * k)) * plane + ty[jj] * in_w + tx[jj] : 0;
    }
    std::int64_t in_n = pc / spatial;
    std::int64_t oy = (pc % spatial) / ow;
    std::int64_t ox = (pc % spatial) % ow;
    for (std::int64_t p = 0; p < kc; ++p) {
      float* row = dst + p * kGemmNR;
      const float* xb = x + in_n * c * plane;
      const std::int64_t iy0 = oy * spec.stride - spec.pad;
      const std::int64_t ix0 = ox * spec.stride - spec.pad;
      const std::int64_t base = iy0 * in_w + ix0;
      for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
        const bool in_bounds = static_cast<std::uint64_t>(iy0 + ty[jj]) <
                                   static_cast<std::uint64_t>(in_h) &&
                               static_cast<std::uint64_t>(ix0 + tx[jj]) <
                                   static_cast<std::uint64_t>(in_w);
        row[jj] = in_bounds ? xb[off[jj] + base] : 0.0f;
      }
      if (++ox == ow) {
        ox = 0;
        if (++oy == oh) {
          oy = 0;
          ++in_n;
        }
      }
    }
  }
}

/// Floats of packed A panels: rows padded up to MR, times the depth.
std::size_t panel_floats(std::int64_t rows, std::int64_t depth) {
  return static_cast<std::size_t>(round_up(rows, kGemmMR) * depth);
}

/// Pack op(A) (rows x depth, read from `a` with leading dimension lda,
/// transposed when `trans`) as gemm_packed packs A: depth block pc becomes
/// one panel of MR-row strips at offset pc * round_up(rows, MR), its strip
/// for rows [ir, ir+MR) at ir * kc within the panel, rows past `rows`
/// zero-filled. A weight (F,C,K,K) is the (F, C*K*K) row-major matrix as
/// it is; its transpose is the same buffer read with trans = true.
void pack_panels(const float* a, std::int64_t lda, bool trans,
                 std::int64_t rows, std::int64_t depth, float* panels) {
  const std::int64_t rp = round_up(rows, kGemmMR);
  for (std::int64_t pc = 0; pc < depth; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, depth - pc);
    gemm_detail::pack_a(a, lda, trans, 0, rows, pc, kc, panels + pc * rp);
  }
}

/// Batch norm of one element on folded constants, for batch_norm_relu and
/// the conv epilogue. ag::batch_norm2d's backward recomputes xh as written.
inline float bn_element(float v, float mu, float is, float g, float b) {
  const float xh = (v - mu) * is;
  return g * xh + b;
}

/// What the driver's scatter applies after the GEMM; null/false parts are
/// skipped. conv2d sets only the bias.
struct Epilogue {
  const float* bias = nullptr;    ///< (F)
  const FoldedBn* bn = nullptr;
  const Tensor* skip = nullptr;   ///< residual, output-shaped
  bool relu = false;
};

/// The forward GEMM's columns: per image, `rows` rows of `width` columns,
/// of which rows [0, out_h) and columns [0, out_w) are output positions.
/// The gather packs the output positions alone, as one row of OH*OW; the
/// in-place read runs over the zero-padded grid and skips its halo.
struct ColGrid {
  std::int64_t rows, width, out_h, out_w;
};

/// Copy x (N,C,H,W) into xp as the grid a stride-1 conv reads in place:
/// channel ic holds its N images one after another from ic * N * rows *
/// width, each `rows` rows of `width` floats with pixel (y, x) at row
/// y + pad, column x + pad, and zeros everywhere else. A window that runs
/// off a row's right edge reads on into the next row's leading zeros, one
/// that runs off an image's bottom into the next image's top rows (the next
/// channel's for the last image), and the last channel's into `slack` zeros
/// after the copy. So tap (ky, kx) of grid position (oy, ox) is the float
/// at (oy + ky) * width + ox + kx from its image's start: pixel
/// (oy + ky - pad, ox + kx - pad), or a zero where that is off the input.
void pad_channels(const float* x, std::int64_t n, std::int64_t c,
                  std::int64_t in_h, std::int64_t in_w, std::int64_t pad,
                  const ColGrid& grid, std::int64_t slack, float* xp) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv_eval/pack_b");
  const std::int64_t img = grid.rows * grid.width;
  runtime::parallel_for(
      0, c * n, runtime::grain_for(img), [&](std::int64_t i0, std::int64_t i1) {
        obs::ProfileScope prof_scope(prof);
        for (std::int64_t i = i0; i < i1; ++i) {  // i = ic * N + image
          const float* src = x + ((i % n) * c + i / n) * in_h * in_w;
          float* dst = xp + i * img;
          for (std::int64_t y = -pad; y < grid.rows - pad; ++y) {
            if (y < 0 || y >= in_h) {
              std::fill_n(dst, grid.width, 0.0f);
            } else {
              std::fill_n(dst, pad, 0.0f);
              std::copy_n(src + y * in_w, in_w, dst + pad);
              std::fill_n(dst + pad + in_w, grid.width - pad - in_w, 0.0f);
            }
            dst += grid.width;
          }
        }
        if (i1 == c * n) std::fill_n(xp + c * n * img, slack, 0.0f);
      });
}

/// The conv forward: x (N,C,H,W) against weight panels packed by
/// pack_panels for f filters -> (N,F,OH,OW) with the epilogue applied.
///
/// A stride-1 conv whose padded grid is at most 2x its output reads B in
/// place: x is copied once into the caller's kConvPadX (pad_channels, row
/// width max(W + pad, OW), max(H + pad, OH) rows per image), the GEMM runs
/// over every grid position, and B's row for tap q = (ic, ky, kx) at grid
/// column j is the NR floats at off[q] + j, off[q] = ic * N*rows*width +
/// ky * width + kx (kConvTaps). Other convs gather B per block
/// (pack_b_cols). Both feed each output the same values in the same order.
Tensor run_conv(const Tensor& x, const float* panels, std::int64_t f,
                const Conv2dSpec& spec, const Epilogue& ep) {
  const auto n = x.dim(0), c = x.dim(1), in_h = x.dim(2), in_w = x.dim(3);
  const std::int64_t k = spec.kernel, pad = spec.pad;
  const std::int64_t ckk = c * k * k;
  const auto oh = conv_out_dim(in_h, k, spec.stride, pad);
  const auto ow = conv_out_dim(in_w, k, spec.stride, pad);
  const std::int64_t spatial = oh * ow;
  Tensor out = Tensor::unfilled({n, f, oh, ow});  // the scatter writes all
  if (ep.skip != nullptr && ep.skip->shape() != out.shape()) {
    throw std::invalid_argument("conv: skip shape mismatch");
  }
  if (n * spatial == 0) return out;

  const ColGrid padded{std::max(in_h + pad, oh), std::max(in_w + pad, ow), oh,
                       ow};
  // Past 2x the halo's extra kernel columns cost more than the gather
  // saves: vgg16's 4x4 maps (1.56x) are faster in place, its 2x2 maps
  // (2.25x) slower.
  const bool in_place =
      spec.stride == 1 && padded.rows * padded.width <= 2 * spatial;
  const ColGrid grid = in_place ? padded : ColGrid{1, spatial, 1, spatial};
  const std::int64_t img = grid.rows * grid.width;
  const std::int64_t total_cols = n * img;

  const float* px = x.data().data();
  const float* psk = ep.skip != nullptr ? ep.skip->data().data() : nullptr;
  const float* pbias = ep.bias;
  float* po = out.data().data();
  const bool has_bn = ep.bn != nullptr;
  const float* pmu = has_bn ? ep.bn->mean.data().data() : nullptr;
  const float* pis = has_bn ? ep.bn->inv_std.data().data() : nullptr;
  const float* pg = has_bn ? ep.bn->gamma.data().data() : nullptr;
  const float* pbeta = has_bn ? ep.bn->beta.data().data() : nullptr;

  // NC grid columns (pooled across the batch) per block, mirroring
  // gemm_packed's NC panel width; every output element is produced by
  // exactly one block.
  static obs::ProfileSite& kprof = obs::profile_site("tensor/conv_eval/kernel");
  const auto block_of = [&](std::int64_t b) {
    return ColBlock{b * kGemmNC, std::min(kGemmNC, total_cols - b * kGemmNC)};
  };
  const auto store = [&](const ColBlock& blk, const float* acc,
                         std::int64_t tc) {
    // Epilogue: single scatter of the block's output positions to NCHW, one
    // grid row run at a time, applying the reference per-element
    // expressions in reference order (bias -> BN -> skip -> ReLU). The
    // padded accumulator rows/columns and the halo are never read.
    std::int64_t jj = 0;
    while (jj < blk.cols) {
      const std::int64_t in_n = (blk.j0 + jj) / img;
      const std::int64_t r = (blk.j0 + jj) % img;
      const std::int64_t y = r / grid.width, x0 = r % grid.width;
      const std::int64_t run = std::min(blk.cols - jj, grid.width - x0);
      const std::int64_t real =
          y < grid.out_h ? std::min(run, grid.out_w - x0) : 0;
      const std::int64_t base = in_n * f * spatial + y * grid.out_w + x0;
      for (std::int64_t of = 0; of < f && real > 0; ++of) {
        const float* crow = acc + of * tc + jj;
        const std::int64_t o = base + of * spatial;
        const float bf = pbias != nullptr ? pbias[of] : 0.0f;
        const float mu = has_bn ? pmu[of] : 0.0f;
        const float is = has_bn ? pis[of] : 0.0f;
        const float g = has_bn ? pg[of] : 0.0f;
        const float bb = has_bn ? pbeta[of] : 0.0f;
        for (std::int64_t e = 0; e < real; ++e) {
          float v = crow[e];
          if (pbias != nullptr) v += bf;       // the bias pass
          if (has_bn) v = bn_element(v, mu, is, g, bb);
          if (psk != nullptr) v = v + psk[o + e];  // ag::add(h, skip)
          if (ep.relu) v = v > 0.0f ? v : 0.0f;  // ag::relu
          po[o + e] = v;
        }
      }
      jj += run;
    }
  };
  const std::int64_t nblocks = (total_cols + kGemmNC - 1) / kGemmNC;
  if (!in_place) {
    run_blocks(panels, f, ckk, nblocks, 1, &kprof, block_of,
               [&](std::int64_t pc, std::int64_t kc, const ColBlock& blk,
                   std::int64_t tc, float* bp) {
                 pack_b_cols(px, c, in_h, in_w, spec, ow, spatial, pc, kc,
                             blk, tc, bp);
                 return PackedBlock{bp, kc};
               },
               store);
    return out;
  }

  // The last block's NR padding and the widest tap read this far past the
  // last channel's grid; zeros, like its bottom pad.
  const std::int64_t slack =
      kGemmNR + std::max(k - 1, pad) * (grid.width + 1);
  runtime::ScratchArena& arena = runtime::lane_arena();
  float* xp = arena.floats(runtime::Scratch::kConvPadX,
                           static_cast<std::size_t>(c * total_cols + slack));
  auto* off = arena.get<std::int64_t>(runtime::Scratch::kConvTaps,
                                      static_cast<std::size_t>(ckk));
  for (std::int64_t q = 0; q < ckk; ++q) {
    off[q] = (q / (k * k)) * total_cols + (q % (k * k) / k) * grid.width +
             q % k;
  }
  pad_channels(px, n, c, in_h, in_w, pad, grid, slack, xp);
  run_blocks(panels, f, ckk, nblocks, 1, &kprof, block_of,
             [&](std::int64_t pc, std::int64_t, const ColBlock& blk,
                 std::int64_t, float*) {
               return InPlaceBlock{xp + blk.j0, off + pc};
             },
             store);
  return out;
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor* bias,
              const Conv2dSpec& spec) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv2d");
  obs::ProfileScope prof_scope(prof);
  (void)conv_out_shape(x.shape(), w.shape(), spec, "conv2d");
  const auto f = w.dim(0);
  if (bias != nullptr && bias->numel() != f) {
    throw std::invalid_argument("conv2d: bias size");
  }
  const std::int64_t ckk = w.dim(1) * spec.kernel * spec.kernel;
  float* panels = runtime::lane_arena().floats(runtime::Scratch::kConvPackA,
                                               panel_floats(f, ckk));
  pack_panels(w.data().data(), ckk, /*trans=*/false, f, ckk, panels);
  Epilogue ep;
  ep.bias = bias != nullptr ? bias->data().data() : nullptr;
  return run_conv(x, panels, f, spec, ep);
}

Tensor conv2d_input_grad(const Tensor& g, const Shape& x_shape,
                         const Tensor& w, const Conv2dSpec& spec) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv2d_input_grad");
  obs::ProfileScope prof_scope(prof);
  check_grad_shape(g, x_shape, w.shape(), spec, "conv2d_input_grad");
  const std::int64_t n = x_shape[0], c = x_shape[1], in_h = x_shape[2],
                     in_w = x_shape[3];
  const std::int64_t f = w.dim(0);
  const std::int64_t k = spec.kernel;
  const std::int64_t ckk = c * k * k;
  const std::int64_t oh = g.dim(2), ow = g.dim(3);
  const std::int64_t spatial = oh * ow;
  if (n * spatial == 0 || f == 0 || ckk == 0) return Tensor(x_shape);
  // A stride-1 conv whose output is its input's size and whose blocks hold
  // whole images adds each tap row as one masked run (add_tap_rows) and
  // copies every plane of gx out; any other conv scatters into a zeroed gx.
  const bool same = spec.stride == 1 && oh == in_h && ow == in_w &&
                    spatial <= kGemmNC;
  Tensor gx = same ? Tensor::unfilled(x_shape) : Tensor(x_shape);

  // C (C*K*K, columns) = w^T * g: w^T as MR-row A panels, shared by every
  // task; each column's chain runs over the filters in ascending order.
  runtime::ScratchArena& arena = runtime::lane_arena();
  float* panels =
      arena.floats(runtime::Scratch::kConvPackA, panel_floats(ckk, f));
  pack_panels(w.data().data(), ckk, /*trans=*/true, ckk, f, panels);

  // A task owns whole images, so no two lanes add into one input element.
  // Maps of at most NC columns pool whole images into one block, at most an
  // even share of the batch per lane so that small maps still fan out; a
  // wider image is one task of consecutive NC-column chunks.
  const std::int64_t chunks = (spatial + kGemmNC - 1) / kGemmNC;
  const std::int64_t lanes = runtime::num_threads();
  const std::int64_t width =
      std::clamp((n + lanes - 1) / lanes, std::int64_t{1},
                 std::max<std::int64_t>(1, kGemmNC / spatial)) *
      spatial;
  const std::int64_t nblocks =
      chunks == 1 ? (n * spatial + width - 1) / width : n * chunks;
  const float* pg = g.data().data();
  float* pgx = gx.data().data();
  static obs::ProfileSite& pack_prof =
      obs::profile_site("tensor/conv2d_input_grad/pack_b");
  static obs::ProfileSite& kernel_prof =
      obs::profile_site("tensor/conv2d_input_grad/kernel");
  static obs::ProfileSite& scatter_prof =
      obs::profile_site("tensor/conv2d_input_grad/scatter");
  const auto block_of = [&](std::int64_t b) {
    if (chunks == 1) {
      return ColBlock{b * width, std::min(width, n * spatial - b * width)};
    }
    const std::int64_t s0 = (b % chunks) * kGemmNC;
    return ColBlock{(b / chunks) * spatial + s0,
                    std::min(kGemmNC, spatial - s0)};
  };
  std::uint32_t* mask = nullptr;
  if (same) {
    mask = arena.get<std::uint32_t>(runtime::Scratch::kConvTapMask,
                                    static_cast<std::size_t>(k * k * width));
    tap_mask(k, spec.pad, in_h, in_w, width, mask);
  }
  const auto store = [&](const ColBlock& blk, const float* acc,
                         std::int64_t tc) {
    obs::ProfileScope prof_scope(scatter_prof);
    if (!same) {
      scatter_input_grad(acc, tc, blk, c, in_h, in_w, spec, oh, ow, pgx);
      return;
    }
    const std::int64_t cols = blk.cols;
    float* dx = runtime::lane_arena().floats(
        runtime::Scratch::kConvGradX, static_cast<std::size_t>(c * cols));
    std::fill_n(dx, c * cols, 0.0f);
    add_tap_rows(acc, tc, cols, c, k, spec.pad, in_w, mask, width, dx);
    const std::int64_t img0 = blk.j0 / spatial;
    for (std::int64_t i = 0; i < cols / spatial; ++i) {
      for (std::int64_t ic = 0; ic < c; ++ic) {
        std::copy_n(dx + ic * cols + i * spatial, spatial,
                    pgx + ((img0 + i) * c + ic) * spatial);
      }
    }
  };
  if (spatial % kGemmNR != 0) {
    run_blocks(panels, ckk, f, nblocks, chunks, &kernel_prof, block_of,
               [&](std::int64_t pc, std::int64_t kc, const ColBlock& blk,
                   std::int64_t tc, float* bp) {
                 obs::ProfileScope prof_scope(pack_prof);
                 pack_b_planes(pg, f, spatial, pc, kc, blk, tc, bp);
                 return PackedBlock{bp, kc};
               },
               store);
    return gx;
  }

  // Every NR-column strip lies in one plane of g, so B is read in place.
  auto* off = arena.get<std::int64_t>(runtime::Scratch::kConvTaps,
                                      static_cast<std::size_t>(f));
  for (std::int64_t p = 0; p < f; ++p) off[p] = p * spatial;
  run_blocks(panels, ckk, f, nblocks, chunks, &kernel_prof, block_of,
             [&](std::int64_t pc, std::int64_t, const ColBlock& blk,
                 std::int64_t, float*) {
               return PlaneBlock{pg, f, spatial, blk.j0, off + pc};
             },
             store);
  return gx;
}

Tensor conv2d_weight_grad(const Tensor& g, const Tensor& x,
                          const Shape& w_shape, const Conv2dSpec& spec) {
  static obs::ProfileSite& prof =
      obs::profile_site("tensor/conv2d_weight_grad");
  obs::ProfileScope prof_scope(prof);
  check_grad_shape(g, x.shape(), w_shape, spec, "conv2d_weight_grad");
  const std::int64_t c = x.dim(1), in_h = x.dim(2), in_w = x.dim(3);
  const std::int64_t f = w_shape[0];
  const std::int64_t ckk = c * spec.kernel * spec.kernel;
  const std::int64_t ow = g.dim(3);
  const std::int64_t spatial = g.dim(2) * ow;
  const std::int64_t depth = x.dim(0) * spatial;
  if (depth == 0 || f == 0 || ckk == 0) return Tensor(w_shape);
  Tensor gw = Tensor::unfilled(w_shape);  // every (filter, tap) is copied out

  // C (F, C*K*K) = g * im2col(x), reduced over p = (image, oy, ox) in
  // ascending order. g as (F, p) MR-row A panels, packed once and shared
  // by every task; each task gathers the input taps of NR columns.
  const std::int64_t fp = round_up(f, kGemmMR);
  float* panels = runtime::lane_arena().floats(runtime::Scratch::kConvPackA,
                                               panel_floats(f, depth));
  const float* pg = g.data().data();
  runtime::parallel_for(
      0, (depth + kGemmKC - 1) / kGemmKC, runtime::grain_for(fp * kGemmKC),
      [&](std::int64_t d0, std::int64_t d1) {
        for (std::int64_t d = d0; d < d1; ++d) {
          const std::int64_t pc = d * kGemmKC;
          pack_a_planes(pg, f, spatial, pc, std::min(kGemmKC, depth - pc),
                        panels + pc * fp);
        }
      });
  const float* px = x.data().data();
  float* pgw = gw.data().data();
  run_blocks(
      panels, f, depth, (ckk + kGemmNR - 1) / kGemmNR, 1, nullptr,
      [&](std::int64_t b) {
        return ColBlock{b * kGemmNR, std::min(kGemmNR, ckk - b * kGemmNR)};
      },
      [&](std::int64_t pc, std::int64_t kc, const ColBlock& blk,
          std::int64_t tc, float* bp) {
        pack_b_taps(px, c, in_h, in_w, spec, ow, spatial, pc, kc, blk, tc, bp);
        return PackedBlock{bp, kc};
      },
      [&](const ColBlock& blk, const float* acc, std::int64_t tc) {
        for (std::int64_t of = 0; of < f; ++of) {
          std::memcpy(pgw + of * ckk + blk.j0, acc + of * tc,
                      static_cast<std::size_t>(blk.cols) * sizeof(float));
        }
      });
  return gw;
}

Tensor conv2d_bias_grad(const Tensor& g) {
  if (g.rank() != 4) throw std::invalid_argument("conv2d_bias_grad: NCHW only");
  const std::int64_t n = g.dim(0), f = g.dim(1);
  const std::int64_t spatial = g.dim(2) * g.dim(3);
  Tensor gb = Tensor::unfilled({f});
  const float* pg = g.data().data();
  float* pb = gb.data().data();
  // One chain per channel from +0, reading its planes in (image, spatial)
  // order.
  for (std::int64_t of = 0; of < f; ++of) {
    float sum = 0.0f;
    for (std::int64_t in_n = 0; in_n < n; ++in_n) {
      const float* plane = pg + (in_n * f + of) * spatial;
      for (std::int64_t s = 0; s < spatial; ++s) sum += plane[s];
    }
    pb[of] = sum;
  }
  return gb;
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
  bn.inv_std = Tensor::unfilled({c});
  // The one place inv_std is computed: training, eval and the plan all fold
  // here, so they share its rounding.
  for (std::int64_t ic = 0; ic < c; ++ic) {
    bn.inv_std[ic] = 1.0f / std::sqrt(running_var[ic] + eps);
  }
  return bn;
}

Tensor batch_norm_relu(const Tensor& x, const FoldedBn& bn, bool relu) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/bn_relu");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() != 4) {
    throw std::invalid_argument("batch_norm_relu: NCHW only");
  }
  const auto n = x.dim(0), c = x.dim(1);
  const std::int64_t spatial = x.dim(2) * x.dim(3);
  if (bn.mean.numel() != c) {
    throw std::invalid_argument("batch_norm_relu: channel mismatch");
  }
  Tensor out = Tensor::unfilled(x.shape());  // every plane is written
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
        float v = bn_element(px[off + kk], mu, is, g, b);
        if (relu) v = v > 0.0f ? v : 0.0f;  // ag::relu
        po[off + kk] = v;
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

  const std::int64_t ckk = c_ * spec.kernel * spec.kernel;
  packed_.resize(panel_floats(f_, ckk));
  pack_panels(weight.data().data(), ckk, /*trans=*/false, f_, ckk,
              packed_.data());
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
