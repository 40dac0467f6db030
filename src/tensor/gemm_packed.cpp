#include "tensor/gemm_packed.hpp"

#include <algorithm>
#include <cstring>

#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scratch_arena.hpp"

namespace ibrar {
namespace {

inline std::int64_t round_up(std::int64_t v, std::int64_t to) {
  return (v + to - 1) / to * to;
}

}  // namespace

// Definitions live here (not the header) so every caller — gemm_packed's own
// driver and conv_eval's fused driver — runs the exact same compiled code
// under the same per-file optimization flags; bit-identity then follows from
// operand values and ascending-p order alone.
namespace gemm_detail {

/// A-panel pack: rows [ic, ic+mc) x depth [pc, pc+kc) into MR-row strips,
/// p-major within a strip (strip s holds kc * MR floats; element (p, r) of
/// strip s is A(ic + s*MR + r, pc + p)). Rows past mc are zero-filled so the
/// micro-kernel never branches on the row edge.
void pack_a(const float* a, std::int64_t lda, bool trans, std::int64_t ic,
            std::int64_t mc, std::int64_t pc, std::int64_t kc, float* ap) {
  for (std::int64_t ir = 0; ir < mc; ir += kGemmMR) {
    const std::int64_t mr = std::min(kGemmMR, mc - ir);
    float* dst = ap + ir * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t r = 0; r < kGemmMR; ++r) {
        const std::int64_t i = ic + ir + r;
        const std::int64_t pp = pc + p;
        dst[p * kGemmMR + r] =
            r < mr ? (trans ? a[pp * lda + i] : a[i * lda + pp]) : 0.0f;
      }
    }
  }
}

/// B-panel pack: depth [pc, pc+kc) x cols [jc, jc+nc) into NR-column strips,
/// p-major within a strip. Columns past nc are zero-filled.
void pack_b(const float* b, std::int64_t ldb, bool trans, std::int64_t pc,
            std::int64_t kc, std::int64_t jc, std::int64_t nc, float* bp) {
  for (std::int64_t jr = 0; jr < nc; jr += kGemmNR) {
    const std::int64_t nr = std::min(kGemmNR, nc - jr);
    float* dst = bp + jr * kc;
    for (std::int64_t p = 0; p < kc; ++p) {
      const std::int64_t pp = pc + p;
      for (std::int64_t j = 0; j < kGemmNR; ++j) {
        const std::int64_t col = jc + jr + j;
        dst[p * kGemmNR + j] =
            j < nr ? (trans ? b[col * ldb + pp] : b[pp * ldb + col]) : 0.0f;
      }
    }
  }
}

/// Floats in one of the target's SIMD registers, and the columns of the
/// register tile one pass of the kernel holds: all NR where 4 x NR
/// accumulators and a B row fit in the registers, half of them with 16
/// 128-bit registers (x86-64 without AVX), which the 4 x 16 accumulators
/// alone would fill.
#if defined(__AVX512F__)
inline constexpr std::int64_t kVecFloats = 16;
#elif defined(__AVX__)
inline constexpr std::int64_t kVecFloats = 8;
#else
inline constexpr std::int64_t kVecFloats = 4;
#endif
#if defined(__x86_64__) && !defined(__AVX__)
inline constexpr std::int64_t kPassCols = kGemmNR / 2;
#else
inline constexpr std::int64_t kPassCols = kGemmNR;
#endif
inline constexpr std::int64_t kPassVecs = kPassCols / kVecFloats;

/// One SIMD register of the tile. GCC/Clang lower arithmetic on this type
/// to the target's packed mul/add or fma; per lane each operation is the
/// same scalar operation the naive chain performs, so vectorization does
/// not change any element's rounding sequence. It is no wider than a
/// register because a wider vector type lives in memory: every step would
/// load and store each accumulator.
typedef float Vec __attribute__((vector_size(sizeof(float) * kVecFloats)));

/// MR x NR register-tiled kernel: extend the per-element fma chain of the
/// C tile at `c` (leading dimension ldc) by kc steps from the packed strip
/// ap (kc x MR) and the B rows b(p) (NR floats each), kPassCols columns per
/// pass. The accumulators stay in registers; C is read once before and
/// written once after the kc loop, so the rounding sequence per element is
/// exactly the naive ascending-p chain, whichever row source feeds it and
/// however many passes the columns take.
/// Loads/stores go through memcpy in-line (Vec never crosses a function
/// boundary: passing a 64-byte vector by value is an ABI warning on targets
/// without 512-bit registers).
template <typename Rows>
void micro_kernel(std::int64_t kc, const float* ap, Rows b, float* c,
                  std::int64_t ldc, bool load_c) {
  static_assert(kGemmNR % kPassCols == 0 && kPassCols % kVecFloats == 0);
  for (std::int64_t j = 0; j < kGemmNR; j += kPassCols) {
    Vec acc[kGemmMR][kPassVecs] = {};  // +0 unless C is loaded
    if (load_c) {
      for (std::int64_t r = 0; r < kGemmMR; ++r) {
        for (std::int64_t v = 0; v < kPassVecs; ++v) {
          std::memcpy(&acc[r][v], c + r * ldc + j + v * kVecFloats,
                      sizeof(Vec));
        }
      }
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      const float* arow = ap + p * kGemmMR;
      const float* brow = b(p) + j;
      Vec bv[kPassVecs];
      for (std::int64_t v = 0; v < kPassVecs; ++v) {
        std::memcpy(&bv[v], brow + v * kVecFloats, sizeof(Vec));
      }
      for (std::int64_t r = 0; r < kGemmMR; ++r) {
        for (std::int64_t v = 0; v < kPassVecs; ++v) {
          acc[r][v] += arow[r] * bv[v];
        }
      }
    }
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      for (std::int64_t v = 0; v < kPassVecs; ++v) {
        std::memcpy(c + r * ldc + j + v * kVecFloats, &acc[r][v], sizeof(Vec));
      }
    }
  }
}

template void micro_kernel<PackedRows>(std::int64_t, const float*, PackedRows,
                                       float*, std::int64_t, bool);
template void micro_kernel<OffsetRows>(std::int64_t, const float*, OffsetRows,
                                       float*, std::int64_t, bool);

}  // namespace gemm_detail

namespace {

/// Edge-tile wrapper: run the full-size kernel on a stack tile and copy the
/// valid mr x nr region in and out. The copies don't round, so edge elements
/// see the same chain as interior ones.
void micro_kernel_edge(std::int64_t kc, const float* ap, const float* bp,
                       float* c, std::int64_t ldc, std::int64_t mr,
                       std::int64_t nr) {
  float tile[kGemmMR * kGemmNR] = {};
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j)
      tile[r * kGemmNR + j] = c[r * ldc + j];
  gemm_detail::micro_kernel(kc, ap, gemm_detail::PackedRows{bp}, tile,
                            kGemmNR);
  for (std::int64_t r = 0; r < mr; ++r)
    for (std::int64_t j = 0; j < nr; ++j)
      c[r * ldc + j] = tile[r * kGemmNR + j];
}

}  // namespace

using gemm_detail::PackedRows;
using gemm_detail::micro_kernel;
using gemm_detail::pack_a;
using gemm_detail::pack_b;

void gemm_naive(const float* a, GemmLayout la, const float* b, GemmLayout lb,
                float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  const std::int64_t lda = la == GemmLayout::kRowMajor ? k : m;
  const std::int64_t ldb = lb == GemmLayout::kRowMajor ? n : k;
  for (std::int64_t i = 0; i < m; ++i) {
    float* ci = c + i * n;
    for (std::int64_t p = 0; p < k; ++p) {
      const float av = la == GemmLayout::kRowMajor ? a[i * lda + p] : a[p * lda + i];
      if (lb == GemmLayout::kRowMajor) {
        const float* bp = b + p * ldb;
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      } else {
        for (std::int64_t j = 0; j < n; ++j) ci[j] += av * b[j * ldb + p];
      }
    }
  }
}

std::int64_t gemm_packed_b_floats(std::int64_t k, std::int64_t n) {
  return k * ((n / kGemmNC) * kGemmNC + round_up(n % kGemmNC, kGemmNR));
}

void gemm_pack_b(const float* b, GemmLayout lb, std::int64_t k, std::int64_t n,
                 float* bp) {
  const std::int64_t ldb = lb == GemmLayout::kRowMajor ? n : k;
  const bool tb = lb == GemmLayout::kTransposed;
  // Panels laid out jc-major then pc, so the loop nest indexes them directly.
  for (std::int64_t jc = 0, jbase = 0; jc < n; jc += kGemmNC) {
    const std::int64_t nc = std::min(kGemmNC, n - jc);
    const std::int64_t ncp = round_up(nc, kGemmNR);
    for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
      const std::int64_t kc = std::min(kGemmKC, k - pc);
      pack_b(b, ldb, tb, pc, kc, jc, nc, bp + jbase * k + ncp * pc);
    }
    jbase += ncp;
  }
}

namespace {

/// The loop nest both entries run, over all of B packed by gemm_pack_b. C
/// row panels split across lanes in tasks of at least one MR-row tile, so a
/// serving batch of up to MR rows stays on the calling lane; each lane packs
/// only its own A panels. Workers read the shared packed B (packing copies
/// values without rounding, so a shared pack is exactly as
/// bit-deterministic as a per-lane one), and the per-element instruction
/// sequence never depends on the split.
void run_packed(const float* a, GemmLayout la, const float* bpacked, float* c,
                std::int64_t m, std::int64_t k, std::int64_t n) {
  const std::int64_t lda = la == GemmLayout::kRowMajor ? k : m;
  const bool ta = la == GemmLayout::kTransposed;
  runtime::parallel_for(
      0, m, std::max(kGemmMR, runtime::grain_for(2 * k * n)),
      [&](std::int64_t i0, std::int64_t i1) {
        runtime::ScratchArena& arena = runtime::lane_arena();
        for (std::int64_t jc = 0, jbase = 0; jc < n; jc += kGemmNC) {
          const std::int64_t nc = std::min(kGemmNC, n - jc);
          const std::int64_t ncp = round_up(nc, kGemmNR);
          for (std::int64_t pc = 0; pc < k; pc += kGemmKC) {
            const std::int64_t kc = std::min(kGemmKC, k - pc);
            const float* bpanel = bpacked + jbase * k + ncp * pc;
            for (std::int64_t ic = i0; ic < i1; ic += kGemmMC) {
              const std::int64_t mc = std::min(kGemmMC, i1 - ic);
              const std::int64_t mcp = round_up(mc, kGemmMR);
              float* apanel =
                  arena.floats(runtime::Scratch::kGemmPackA,
                               static_cast<std::size_t>(kc * mcp));
              pack_a(a, lda, ta, ic, mc, pc, kc, apanel);
              for (std::int64_t jr = 0; jr < nc; jr += kGemmNR) {
                const std::int64_t nr = std::min(kGemmNR, nc - jr);
                const float* bstrip = bpanel + jr * kc;
                for (std::int64_t ir = 0; ir < mc; ir += kGemmMR) {
                  const std::int64_t mr = std::min(kGemmMR, mc - ir);
                  const float* astrip = apanel + ir * kc;
                  float* ctile = c + (ic + ir) * n + jc + jr;
                  if (mr == kGemmMR && nr == kGemmNR) {
                    micro_kernel(kc, astrip, PackedRows{bstrip}, ctile, n);
                  } else {
                    micro_kernel_edge(kc, astrip, bstrip, ctile, n, mr, nr);
                  }
                }
              }
            }
          }
          jbase += ncp;
        }
      });
}

}  // namespace

void gemm_packed(const float* a, GemmLayout la, const float* b, GemmLayout lb,
                 float* c, std::int64_t m, std::int64_t k, std::int64_t n) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/gemm_packed");
  obs::ProfileScope prof_scope(prof);
  if (m <= 0 || n <= 0 || k <= 0) return;
  if (m * k * n < kGemmSmallVolume) {
    // Packing overhead dominates down here; the naive chain is bit-identical
    // so the dispatch is numerically unobservable.
    gemm_naive(a, la, b, lb, c, m, k, n);
    return;
  }
  // Pack ALL of B once, up front, into the caller's arena: with T lanes
  // this does 1x the packing traffic instead of Tx.
  float* bpacked = runtime::lane_arena().floats(
      runtime::Scratch::kGemmPackB,
      static_cast<std::size_t>(gemm_packed_b_floats(k, n)));
  gemm_pack_b(b, lb, k, n, bpacked);
  run_packed(a, la, bpacked, c, m, k, n);
}

void gemm_prepacked(const float* a, GemmLayout la, const float* bp, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/gemm_packed");
  obs::ProfileScope prof_scope(prof);
  if (m <= 0 || n <= 0 || k <= 0) return;
  run_packed(a, la, bp, c, m, k, n);
}

}  // namespace ibrar
