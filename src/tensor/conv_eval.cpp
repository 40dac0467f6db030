#include "tensor/conv_eval.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/simd.hpp"

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

/// The task, B source and kernel loop the conv forward and input gradient
/// run: C = A * B, with A the shared `panels` (pack_panels' layout for
/// `rows` rows and `depth` reduction steps) and B's rows for depth rows
/// [pc, pc+kc) of a column block given by source(pc, kc, blk, tc, bp): a
/// PackedBlock after it packs the lane's KC x tc strips at bp, or an
/// InPlaceBlock or PlaneBlock that packs nothing. Blocks
/// [t * per_task, (t + 1) * per_task) form task t and run in ascending order
/// on one lane. Each block's C (rows padded to kConvMR, tc = cols padded to
/// NR, row-major with leading dimension tc) lives in the lane's accumulator,
/// followed by `acc_slack` zeros for a store that reads past it: the first
/// depth block's kernel calls start every chain from +0 in a register and
/// write it, later ones load it, and the block goes to store(blk, acc, tc).
/// A depth of at most kShortDepth (an input gradient of F <= 16 filters,
/// with AVX-512) is one short_depth_kernel call per NR-column strip, which
/// holds the strip's B rows in registers for every row strip. Every C
/// element is one ascending-depth chain from +0 whichever kernel runs it,
/// the split or the source, so the bits depend on neither the lane count
/// nor on where B's rows are read from. The depth loop runs at least once,
/// so a C of depth 0 is written too, as +0.
template <typename BlockOf, typename Source, typename Store>
void run_blocks(const float* panels, std::int64_t rows, std::int64_t depth,
                std::int64_t nblocks, std::int64_t per_task,
                std::int64_t acc_slack, obs::ProfileSite* kernel_site,
                const BlockOf& block_of, const Source& source,
                const Store& store) {
  const std::int64_t rp = round_up(rows, kConvMR);
  const std::int64_t ntasks = (nblocks + per_task - 1) / per_task;
  runtime::parallel_for(0, ntasks, 1, [&](std::int64_t t0, std::int64_t t1) {
    runtime::ScratchArena& arena = runtime::lane_arena();
    const std::int64_t b1 = std::min(nblocks, t1 * per_task);
    for (std::int64_t b = t0 * per_task; b < b1; ++b) {
      const ColBlock blk = block_of(b);
      const std::int64_t tc = round_up(blk.cols, kGemmNR);
      float* acc = arena.floats(runtime::Scratch::kConvAccC,
                                static_cast<std::size_t>(rp * tc + acc_slack));
      std::fill_n(acc + rp * tc, acc_slack, 0.0f);
      float* bp = arena.floats(runtime::Scratch::kConvPackB,
                               static_cast<std::size_t>(kGemmKC * tc));
      for (std::int64_t pc = 0; pc == 0 || pc < depth; pc += kGemmKC) {
        const std::int64_t kc = std::min(kGemmKC, depth - pc);
        const auto src = source(pc, kc, blk, tc, bp);
        std::optional<obs::ProfileScope> kscope;
        if (kernel_site != nullptr) kscope.emplace(*kernel_site);
        const float* panel = panels + pc * rp;
        if constexpr (kShortDepth > 0) {
          if (depth <= kShortDepth) {
            for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
              gemm_detail::short_depth_kernel(kc, panel, rp, src.strip(jr),
                                              acc + jr, tc);
            }
            continue;
          }
        }
        for (std::int64_t ic = 0; ic < rp; ic += kGemmMC) {
          const std::int64_t ie = std::min(ic + kGemmMC, rp);
          for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
            const auto strip = src.strip(jr);
            for (std::int64_t ir = ic; ir < ie; ir += kConvMR) {
              // Rows are kConvMR-padded and columns NR-padded in the
              // scratch block, so the full-size kernel always applies.
              gemm_detail::micro_kernel(
                  kc, gemm_detail::PackedStrip<kConvMR>{panel + ir * kc},
                  strip, acc + ir * tc + jr, tc, /*load_c=*/pc > 0);
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

/// Forward B pack from the padded grid: depth rows [pc, pc+kc) (the taps
/// q = (ic, ky, kx)) of the block's columns (output positions j = image *
/// OH*OW + oy*OW + ox), in the NR-column-strip p-major layout
/// gemm_detail::micro_kernel consumes: element (p, jj) of strip jr is
/// xp[off[pc + p] + pos[blk.j0 + jr + jj]], tap q of position j in the grid
/// (PaddedX), which holds a zero wherever im2col would write one. So the
/// micro-kernel sees the operand values of the reference lowering without a
/// bounds check. Columns past blk.cols are zero-filled (they land in padded
/// output the epilogue never reads).
void pack_b_positions(const float* xp, const std::int64_t* off,
                      const std::int64_t* pos, std::int64_t pc,
                      std::int64_t kc, const ColBlock& blk, std::int64_t tc,
                      float* bp) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv_eval/pack_b");
  obs::ProfileScope prof_scope(prof);
  for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
    float* dst = bp + jr * kc;
    const std::int64_t* at = pos + blk.j0 + jr;
    if (jr + kGemmNR <= blk.cols) {
      // A full strip: its positions stay in registers across the taps.
      std::int64_t idx[kGemmNR];
      std::copy_n(at, kGemmNR, idx);
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = xp + off[pc + p];
        for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
          dst[p * kGemmNR + jj] = src[idx[jj]];
        }
      }
      continue;
    }
    const std::int64_t cols = blk.cols - jr;
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* src = xp + off[pc + p];
      float* row = dst + p * kGemmNR;
      for (std::int64_t jj = 0; jj < kGemmNR; ++jj) {
        row[jj] = jj < cols ? src[at[jj]] : 0.0f;
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

/// The gather mask of a stride-1 conv whose output is its input's size
/// (H x W): row ky * K + kx holds, for each input position s = y * W + x,
/// all ones where the output position that tap maps onto it,
/// (y + pad - ky, x + pad - kx), is inside the image, and 0 where it falls
/// off; `ld` >= H*W columns, those past H*W zero.
void gather_mask(std::int64_t k, std::int64_t pad, std::int64_t in_h,
                 std::int64_t in_w, std::int64_t ld, std::int32_t* mask) {
  const std::int64_t spatial = in_h * in_w;
  for (std::int64_t t = 0; t < k * k; ++t) {
    std::int32_t* row = mask + t * ld;
    for (std::int64_t s = 0; s < ld; ++s) {
      const std::int64_t oy = s / in_w + pad - t / k;
      const std::int64_t ox = s % in_w + pad - t % k;
      row[s] = s < spatial && oy >= 0 && oy < in_h && ox >= 0 && ox < in_w
                   ? -1
                   : 0;
    }
  }
}

/// Input gradient of a stride-1 conv whose output is its input's size, for
/// a block of whole images, from the block's C: each input element of image
/// `img0 + i`, channel ic, position s sums, from +0 and in a register, the
/// taps t = ky * K + kx in descending order whose output position is inside
/// the image (gather_mask, leading dimension mask_ld), reading tap row
/// (ic, ky, kx) at column i * H*W + s + shift[t], shift[t] =
/// (pad - ky) * W + (pad - kx); then it is written to gx once. Descending
/// taps are ascending output positions, col2im's order. A vector V of input
/// positions reads its taps whether or not they are inside, and a select
/// keeps the old sum where one is not (not an add of +0), so that no
/// element takes a term col2im does not add. Those reads run up to one
/// vector plus pad * (W + 1) floats past the accumulator's last row, which
/// run_blocks' slack covers.
template <typename V, typename M>
void gather_input_grad(const float* acc, std::int64_t tc, const ColBlock& blk,
                       std::int64_t c, std::int64_t taps_per_channel,
                       std::int64_t spatial, const std::int64_t* shift,
                       const std::int32_t* mask, std::int64_t mask_ld,
                       float* gx) {
  constexpr std::int64_t kLanes = sizeof(V) / sizeof(float);
  const std::int64_t img0 = blk.j0 / spatial;
  // kChains vectors at once, so that their select chains overlap instead of
  // each waiting on its previous tap.
  const auto gather = [&](const float* taps, std::int64_t s, auto chains,
                          V* v) {
    for (std::int64_t u = 0; u < chains; ++u) v[u] = V{};
    for (std::int64_t t = taps_per_channel - 1; t >= 0; --t) {
      for (std::int64_t u = 0; u < chains; ++u) {
        const std::int64_t at = s + u * kLanes;
        V term;
        std::memcpy(&term, taps + t * tc + shift[t] + at, sizeof term);
        M inside;
        std::memcpy(&inside, mask + t * mask_ld + at, sizeof inside);
        v[u] = inside ? v[u] + term : v[u];
      }
    }
  };
  constexpr std::int64_t kChains = 4;
  for (std::int64_t i = 0; i < blk.cols / spatial; ++i) {
    for (std::int64_t ic = 0; ic < c; ++ic) {
      // Tap row (ic, 0, 0) at image i's first column.
      const float* taps = acc + ic * taps_per_channel * tc + i * spatial;
      float* out = gx + ((img0 + i) * c + ic) * spatial;
      V v[kChains];
      std::int64_t s = 0;
      for (; s + kChains * kLanes <= spatial; s += kChains * kLanes) {
        gather(taps, s, std::integral_constant<std::int64_t, kChains>{}, v);
        std::memcpy(out + s, v, sizeof v);
      }
      for (; s + kLanes <= spatial; s += kLanes) {
        gather(taps, s, std::integral_constant<std::int64_t, 1>{}, v);
        std::memcpy(out + s, v, sizeof(V));
      }
      if (s < spatial) {
        gather(taps, s, std::integral_constant<std::int64_t, 1>{}, v);
        float tail[kLanes];
        std::memcpy(tail, v, sizeof(V));
        std::copy_n(tail, spatial - s, out + s);
      }
    }
  }
}

/// Floats of packed A panels: rows padded up to kConvMR, times the depth.
std::size_t panel_floats(std::int64_t rows, std::int64_t depth) {
  return static_cast<std::size_t>(round_up(rows, kConvMR) * depth);
}

/// Pack op(A) (rows x depth, read from `a` with leading dimension lda,
/// transposed when `trans`) as gemm_packed packs A, in kConvMR-row strips:
/// depth block pc becomes one panel of strips at offset
/// pc * round_up(rows, kConvMR), its strip for rows [ir, ir+kConvMR) at
/// ir * kc within the panel, rows past `rows` zero-filled. A weight
/// (F,C,K,K) is the (F, C*K*K) row-major matrix as it is; its transpose is
/// the same buffer read with trans = true.
void pack_panels(const float* a, std::int64_t lda, bool trans,
                 std::int64_t rows, std::int64_t depth, float* panels) {
  const std::int64_t rp = round_up(rows, kConvMR);
  for (std::int64_t pc = 0; pc < depth; pc += kGemmKC) {
    const std::int64_t kc = std::min(kGemmKC, depth - pc);
    gemm_detail::pack_a<kConvMR>(a, lda, trans, 0, rows, pc, kc,
                                 panels + pc * rp);
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
/// The in-place read runs over the zero-padded grid and skips its halo; a
/// packed B holds the output positions alone, as one row of OH*OW.
struct ColGrid {
  std::int64_t rows, width, out_h, out_w;
};

/// The forward's store for one set of epilogue flags, compiled once per set
/// so that no element tests a flag: the block's C (row `of` the filter,
/// leading dimension tc, column jj the grid column blk.j0 + jj) to the
/// NCHW output po, filter by filter with the filter's constants in
/// registers, one grid row run at a time. Padded rows and columns and the
/// in-place grid's halo are never read. The block's first run is found by
/// division, the rest by stepping. Each element takes the reference
/// per-element expressions in reference order: the bias pass `v += bias`,
/// batch norm (bn_element), ag::add's `h + skip`, ag::relu.
template <bool kBias, bool kBn, bool kSkip, bool kRelu>
void store_block(const float* __restrict acc, std::int64_t tc,
                 const ColBlock& blk, const ColGrid& grid, std::int64_t f,
                 const Epilogue& ep, float* __restrict po) {
  const std::int64_t img = grid.rows * grid.width;
  const std::int64_t spatial = grid.out_h * grid.out_w;
  const std::int64_t n0 = blk.j0 / img;
  const std::int64_t y0 = blk.j0 % img / grid.width;
  const std::int64_t x0 = blk.j0 % grid.width;
  // The output is a fresh tensor: no store aliases C or the skip.
  const float* __restrict psk = kSkip ? ep.skip->data().data() : nullptr;
  const float* pmu = kBn ? ep.bn->mean.data().data() : nullptr;
  const float* pis = kBn ? ep.bn->inv_std.data().data() : nullptr;
  const float* pg = kBn ? ep.bn->gamma.data().data() : nullptr;
  const float* pbeta = kBn ? ep.bn->beta.data().data() : nullptr;
  for (std::int64_t of = 0; of < f; ++of) {
    const float* crow = acc + of * tc;
    const float bias = kBias ? ep.bias[of] : 0.0f;
    const float mu = kBn ? pmu[of] : 0.0f, is = kBn ? pis[of] : 0.0f;
    const float g = kBn ? pg[of] : 0.0f, beta = kBn ? pbeta[of] : 0.0f;
    // o: filter of's plane of the run's image.
    std::int64_t y = y0, x = x0, o = (n0 * f + of) * spatial;
    for (std::int64_t jj = 0; jj < blk.cols;) {
      const std::int64_t run = std::min(blk.cols - jj, grid.width - x);
      if (y < grid.out_h && x < grid.out_w) {
        const std::int64_t real = std::min(run, grid.out_w - x);
        const float* src = crow + jj;
        const std::int64_t at = o + y * grid.out_w + x;
        for (std::int64_t e = 0; e < real; ++e) {
          float v = src[e];
          if constexpr (kBias) v += bias;
          if constexpr (kBn) v = bn_element(v, mu, is, g, beta);
          if constexpr (kSkip) v = v + psk[at + e];
          if constexpr (kRelu) v = v > 0.0f ? v : 0.0f;
          po[at + e] = v;
        }
      }
      jj += run;
      x = 0;
      if (++y == grid.rows) {
        y = 0;
        o += f * spatial;
      }
    }
  }
}

using StoreBlock = void (*)(const float*, std::int64_t, const ColBlock&,
                            const ColGrid&, std::int64_t, const Epilogue&,
                            float*);

/// store_block for each flag set, indexed by bias | bn << 1 | skip << 2 |
/// relu << 3.
template <std::size_t... kSet>
constexpr std::array<StoreBlock, sizeof...(kSet)> store_blocks(
    std::index_sequence<kSet...>) {
  return {&store_block<(kSet & 1) != 0, (kSet & 2) != 0, (kSet & 4) != 0,
                       (kSet & 8) != 0>...};
}

/// Copy x (N,C,H,W) into xp as the grid a conv reads its taps from: channel
/// ic holds its N images one after another from ic * N * rows * width, each
/// `rows` rows of `width` floats with pixel (y, x) at row y + pad, column
/// x + pad, and zeros everywhere else. A window that runs off a row's right
/// edge reads on into the next row's leading zeros, one that runs off an
/// image's bottom into the next image's top rows (the next channel's for
/// the last image), and the last channel's into `slack` zeros after the
/// copy. So tap (ky, kx) of grid position (gy, gx) is the float at
/// (gy + ky) * width + gx + kx from its image's start: pixel
/// (gy + ky - pad, gx + kx - pad), or a zero where that is off the input.
/// Each image's plane is zeroed in one pass, and its pixels are then copied
/// in: row by row in an inline loop, not a libc call per row (vgg16's 16-
/// and 8-float rows cost less to copy than to call for), or, in planes of
/// at most kTablePlane pixels (vgg16's 4x4 and 2x2 maps), through a table
/// of grid offsets.
void pad_channels(const float* x, std::int64_t n, std::int64_t c,
                  std::int64_t in_h, std::int64_t in_w, std::int64_t pad,
                  const ColGrid& grid, std::int64_t slack, float* xp) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/conv_eval/pack_b");
  constexpr std::int64_t kTablePlane = 16;
  const std::int64_t img = grid.rows * grid.width;
  const std::int64_t plane = in_h * in_w;
  std::int64_t at[kTablePlane];
  const bool table = plane <= kTablePlane;
  for (std::int64_t e = 0; table && e < plane; ++e) {
    at[e] = (e / in_w + pad) * grid.width + e % in_w + pad;
  }
  runtime::parallel_for(
      0, c * n, runtime::grain_for(img), [&](std::int64_t i0, std::int64_t i1) {
        obs::ProfileScope prof_scope(prof);
        for (std::int64_t i = i0; i < i1; ++i) {  // i = ic * N + image
          const float* src = x + ((i % n) * c + i / n) * plane;
          float* dst = xp + i * img;
          std::fill_n(dst, img, 0.0f);
          if (table) {
            for (std::int64_t e = 0; e < plane; ++e) dst[at[e]] = src[e];
            continue;
          }
          float* row = dst + pad * grid.width + pad;
          for (std::int64_t y = 0; y < in_h; ++y) {
            for (std::int64_t e = 0; e < in_w; ++e) row[e] = src[e];
            row += grid.width;
            src += in_w;
          }
        }
        if (i1 == c * n) std::fill_n(xp + c * n * img, slack, 0.0f);
      });
}

/// x's zero-padded grid (pad_channels) in the caller's kConvPadX, which
/// every tap of every output position of a conv with this spec reads
/// inside: per image max(H + pad, OH) rows of max(W + pad, OW) floats. Tap
/// (ky, kx) of output position (oy, ox) lies at grid position
/// (oy * stride + ky, ox * stride + kx), at most H + 2 pad - 1 rows and
/// W + 2 pad - 1 columns down and across, so it spills at most pad rows
/// into the next image's top zeros and pad columns into the next row's
/// leading ones. The slack after the last channel also covers the
/// in-place forward's last NR-column strip.
struct PaddedX {
  const float* xp;
  ColGrid grid;
  std::int64_t chan;  ///< floats per channel: N * rows * width

  PaddedX(const Tensor& x, const Conv2dSpec& spec, std::int64_t oh,
          std::int64_t ow)
      : grid{std::max(x.dim(2) + spec.pad, oh), std::max(x.dim(3) + spec.pad, ow),
             oh, ow},
        chan(x.dim(0) * grid.rows * grid.width) {
    const std::int64_t slack =
        kGemmNR + std::max(spec.kernel - 1, spec.pad) * (grid.width + 1);
    float* buf = runtime::lane_arena().floats(
        runtime::Scratch::kConvPadX,
        static_cast<std::size_t>(x.dim(1) * chan + slack));
    pad_channels(x.data().data(), x.dim(0), x.dim(1), x.dim(2), x.dim(3),
                 spec.pad, grid, slack, buf);
    xp = buf;
  }

  /// Offset of tap q = (ic, ky, kx) of a K x K kernel from a grid
  /// position's own offset.
  std::int64_t tap(std::int64_t q, std::int64_t k) const {
    return (q / (k * k)) * chan + (q % (k * k) / k) * grid.width + q % k;
  }

  /// pos[(image * OH + oy) * OW + ox] = the offset of output position
  /// (oy, ox)'s grid position in channel 0, for every real output position
  /// of n images.
  void positions(std::int64_t n, std::int64_t stride, std::int64_t* pos) const {
    const std::int64_t img = grid.rows * grid.width;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t oy = 0; oy < grid.out_h; ++oy) {
        for (std::int64_t ox = 0; ox < grid.out_w; ++ox) {
          *pos++ = i * img + oy * stride * grid.width + ox * stride;
        }
      }
    }
  }
};

/// The conv forward: x (N,C,H,W) against weight panels packed by
/// pack_panels for f filters -> (N,F,OH,OW) with the epilogue applied. x is
/// copied once into its padded grid (PaddedX).
///
/// A stride-1 conv whose padded grid is at most 2x its output reads B in
/// place: the GEMM runs over every grid position, and B's row for tap
/// q = (ic, ky, kx) at grid column j is the NR floats at off[q] + j
/// (kConvTaps). Other convs pack B per block from the grid through the
/// table of the output positions (pack_b_positions). Both feed each output
/// the same values in the same order.
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

  const PaddedX px(x, spec, oh, ow);
  // Past 2x the halo's extra kernel columns cost more than the pack
  // saves: vgg16's 4x4 maps (1.56x) are faster in place, its 2x2 maps
  // (2.25x) slower.
  const bool in_place =
      spec.stride == 1 && px.grid.rows * px.grid.width <= 2 * spatial;
  const ColGrid grid = in_place ? px.grid : ColGrid{1, spatial, 1, spatial};
  const std::int64_t img = grid.rows * grid.width;
  const std::int64_t total_cols = n * img;

  float* po = out.data().data();

  // NC grid columns (pooled across the batch) per block, mirroring
  // gemm_packed's NC panel width; every output element is produced by
  // exactly one block.
  static obs::ProfileSite& kprof = obs::profile_site("tensor/conv_eval/kernel");
  static obs::ProfileSite& eprof =
      obs::profile_site("tensor/conv_eval/epilogue");
  const auto block_of = [&](std::int64_t b) {
    return ColBlock{b * kGemmNC, std::min(kGemmNC, total_cols - b * kGemmNC)};
  };
  static constexpr auto kStores = store_blocks(std::make_index_sequence<16>{});
  const StoreBlock store_fn =
      kStores[(ep.bias != nullptr ? 1 : 0) | (ep.bn != nullptr ? 2 : 0) |
              (ep.skip != nullptr ? 4 : 0) | (ep.relu ? 8 : 0)];
  const auto store = [&](const ColBlock& blk, const float* acc,
                         std::int64_t tc) {
    obs::ProfileScope prof_scope(eprof);
    store_fn(acc, tc, blk, grid, f, ep, po);
  };
  const std::int64_t nblocks = (total_cols + kGemmNC - 1) / kGemmNC;
  auto* off = runtime::lane_arena().get<std::int64_t>(
      runtime::Scratch::kConvTaps,
      static_cast<std::size_t>(ckk + (in_place ? 0 : n * spatial)));
  for (std::int64_t q = 0; q < ckk; ++q) off[q] = px.tap(q, k);
  if (!in_place) {
    std::int64_t* pos = off + ckk;
    px.positions(n, spec.stride, pos);
    run_blocks(panels, f, ckk, nblocks, 1, 0, &kprof, block_of,
               [&](std::int64_t pc, std::int64_t kc, const ColBlock& blk,
                   std::int64_t tc, float* bp) {
                 pack_b_positions(px.xp, off, pos, pc, kc, blk, tc, bp);
                 return PackedBlock{bp, kc};
               },
               store);
    return out;
  }
  run_blocks(panels, f, ckk, nblocks, 1, 0, &kprof, block_of,
             [&](std::int64_t pc, std::int64_t, const ColBlock& blk,
                 std::int64_t, float*) {
               return InPlaceBlock{px.xp + blk.j0, off + pc};
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
  // whole images gathers each input element's taps (gather_input_grad) and
  // writes it once; any other conv scatters into a zeroed gx.
  const bool same = spec.stride == 1 && oh == in_h && ow == in_w &&
                    spatial <= kGemmNC;
  Tensor gx = same ? Tensor::unfilled(x_shape) : Tensor(x_shape);

  // C (C*K*K, columns) = w^T * g: w^T as MR-row A panels, shared by every
  // task; each column's chain runs over the filters in ascending order.
  runtime::ScratchArena& arena = runtime::lane_arena();
  float* panels =
      arena.floats(runtime::Scratch::kConvPackA, panel_floats(ckk, f));
  pack_panels(w.data().data(), ckk, /*trans=*/true, ckk, f, panels);

  // A task owns whole images, so no two lanes write one input element.
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
  // Planes narrower than a register gather 4 positions at a time.
  typedef float Floats4 __attribute__((vector_size(16)));
  typedef std::int32_t Ints4 __attribute__((vector_size(16)));
  const bool narrow = spatial < simd::kFloats;
  const std::int64_t lanes_v = narrow ? 4 : simd::kFloats;
  std::int32_t* mask = nullptr;
  std::int64_t mask_ld = 0, acc_slack = 0;
  std::vector<std::int64_t> shift;
  if (same) {
    mask_ld = round_up(spatial, lanes_v);
    mask = arena.get<std::int32_t>(runtime::Scratch::kConvTapMask,
                                   static_cast<std::size_t>(k * k * mask_ld));
    gather_mask(k, spec.pad, in_h, in_w, mask_ld, mask);
    acc_slack = lanes_v + spec.pad * (in_w + 1);
    for (std::int64_t t = 0; t < k * k; ++t) {
      shift.push_back((spec.pad - t / k) * in_w + (spec.pad - t % k));
    }
  }
  const auto store = [&](const ColBlock& blk, const float* acc,
                         std::int64_t tc) {
    obs::ProfileScope prof_scope(scatter_prof);
    if (same && narrow) {
      gather_input_grad<Floats4, Ints4>(acc, tc, blk, c, k * k, spatial,
                                        shift.data(), mask, mask_ld, pgx);
    } else if (same) {
      gather_input_grad<simd::Floats, simd::Ints>(acc, tc, blk, c, k * k,
                                                  spatial, shift.data(), mask,
                                                  mask_ld, pgx);
    } else {
      scatter_input_grad(acc, tc, blk, c, in_h, in_w, spec, oh, ow, pgx);
    }
  };
  if (spatial % kGemmNR != 0) {
    run_blocks(panels, ckk, f, nblocks, chunks, acc_slack, &kernel_prof,
               block_of,
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
  run_blocks(panels, ckk, f, nblocks, chunks, acc_slack, &kernel_prof,
             block_of,
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
  const std::int64_t n = x.dim(0);
  const std::int64_t f = w_shape[0];
  const std::int64_t k = spec.kernel;
  const std::int64_t ckk = x.dim(1) * k * k;
  const std::int64_t oh = g.dim(2), ow = g.dim(3);
  const std::int64_t spatial = oh * ow;
  const std::int64_t depth = n * spatial;
  if (depth == 0 || f == 0 || ckk == 0) return Tensor(w_shape);
  Tensor gw = Tensor::unfilled(w_shape);  // every (filter, tap) is copied out

  // C^T (C*K*K, F) = im2col(x)^T * g^T, reduced over p = (image, oy, ox) in
  // ascending order. Row q = (ic, ky, kx) of im2col(x)^T is read in place:
  // its value at p is tap q of output position p in x's padded grid, through
  // a table of the real output positions, so no halo term enters a chain
  // and a tap off the input reads a zero of the grid, the value im2col
  // holds there. g^T is copied once, as a (depth, F) matrix with NR floats
  // of slack, and every task reads its rows in place. Tasks split the taps
  // PositionRows::kRows rows at a time; each runs the depth blocks in
  // ascending order over its row groups, so one KC-deep stretch of g^T
  // serves them all.
  runtime::ScratchArena& arena = runtime::lane_arena();
  const PaddedX px(x, spec, oh, ow);
  auto* pos = arena.get<std::int64_t>(runtime::Scratch::kConvTaps,
                                      static_cast<std::size_t>(depth));
  px.positions(n, spec.stride, pos);
  float* gt = arena.floats(runtime::Scratch::kConvPackA,
                           static_cast<std::size_t>(depth * f + kGemmNR));
  const float* pg = g.data().data();
  runtime::parallel_for(0, n, runtime::grain_for(f * spatial),
                        [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* src = pg + i * f * spatial;
      float* dst = gt + i * spatial * f;
      for (std::int64_t s = 0; s < spatial; ++s) {
        for (std::int64_t of = 0; of < f; ++of) {
          dst[s * f + of] = src[of * spatial + s];
        }
      }
    }
  });
  std::fill_n(gt + depth * f, kGemmNR, 0.0f);

  using gemm_detail::PositionRows;
  constexpr std::int64_t kRows = PositionRows::kRows;
  const std::int64_t tc = round_up(f, kGemmNR);
  const std::int64_t groups = (ckk + kRows - 1) / kRows;
  float* pgw = gw.data().data();
  runtime::parallel_for(0, groups, 1, [&](std::int64_t g0, std::int64_t g1) {
    float* acc = runtime::lane_arena().floats(
        runtime::Scratch::kConvAccC,
        static_cast<std::size_t>((g1 - g0) * kRows * tc));
    for (std::int64_t pc = 0; pc < depth; pc += kGemmKC) {
      const std::int64_t kc = std::min(kGemmKC, depth - pc);
      for (std::int64_t grp = g0; grp < g1; ++grp) {
        // Rows past the last tap repeat it; their C rows are dropped.
        PositionRows a{{}, pos + pc};
        for (std::int64_t r = 0; r < kRows; ++r) {
          a.row[r] = px.xp + px.tap(std::min(grp * kRows + r, ckk - 1), k);
        }
        float* cblk = acc + (grp - g0) * kRows * tc;
        for (std::int64_t jr = 0; jr < tc; jr += kGemmNR) {
          gemm_detail::micro_kernel(
              kc, a, gemm_detail::StridedRows{gt + pc * f + jr, f}, cblk + jr,
              tc, /*load_c=*/pc > 0, /*cols=*/f - jr);
        }
      }
    }
    for (std::int64_t q = g0 * kRows; q < std::min(ckk, g1 * kRows); ++q) {
      const float* crow = acc + (q - g0 * kRows) * tc;
      for (std::int64_t of = 0; of < f; ++of) pgw[of * ckk + q] = crow[of];
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
  // One chain per filter from +0, reading its planes in (image, spatial)
  // order: kLanes filters side by side in the lanes of a vector, each lane
  // exactly its filter's chain, reading its plane through simd::columns.
  // Lanes past the last filter repeat it and are dropped.
  using V = simd::HalfFloats;
  constexpr std::int64_t kLanes = simd::kLanes<V>;
  for (std::int64_t f0 = 0; f0 < f; f0 += kLanes) {
    std::int64_t at[kLanes];
    for (std::int64_t l = 0; l < kLanes; ++l) {
      at[l] = std::min(f0 + l, f - 1) * spatial;
    }
    V sum = {};
    for (std::int64_t in_n = 0; in_n < n; ++in_n) {
      simd::each_column<V>(pg + in_n * f * spatial, at, spatial,
                           [&](V v) { sum += v; });
    }
    for (std::int64_t l = 0; l < std::min(kLanes, f - f0); ++l) {
      pb[f0 + l] = sum[l];
    }
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
  // Planes shorter than a register: each image is one run of C*H*W
  // elements, with the four constants expanded over the plane.
  const bool small = spatial < simd::kFloats;
  const std::int64_t run = small ? c * spatial : spatial;
  std::vector<float> expanded;
  if (small) {
    expanded.resize(static_cast<std::size_t>(4 * run));
    for (std::int64_t e = 0; e < run; ++e) {
      const std::int64_t ic = e / spatial;
      expanded[e] = pmu[ic];
      expanded[run + e] = pis[ic];
      expanded[2 * run + e] = pg[ic];
      expanded[3 * run + e] = pb[ic];
    }
  }
  const float* ex = expanded.data();
  // The ReLU's presence as a compile-time constant, so that neither loop
  // tests it per element.
  const auto apply = [&](auto kRelu) {
    const auto put = [&](std::int64_t e, float v) {
      po[e] = kRelu ? (v > 0.0f ? v : 0.0f) : v;  // ag::relu
    };
    if (small) {
      runtime::parallel_for(
          0, n, runtime::grain_for(run), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t off = i0 * run; off < i1 * run; off += run) {
          for (std::int64_t e = 0; e < run; ++e) {
            put(off + e, bn_element(px[off + e], ex[e], ex[run + e],
                                    ex[2 * run + e], ex[3 * run + e]));
          }
        }
      });
      return;
    }
    runtime::parallel_for(
        0, n * c, runtime::grain_for(run), [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const std::int64_t ic = i % c, off = i * run;
        const float mu = pmu[ic], is = pis[ic], g = pg[ic], b = pb[ic];
        for (std::int64_t e = 0; e < run; ++e) {
          put(off + e, bn_element(px[off + e], mu, is, g, b));
        }
      }
    });
  };
  if (relu) {
    apply(std::true_type{});
  } else {
    apply(std::false_type{});
  }
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
