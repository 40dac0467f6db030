#pragma once
// Cache-blocked, panel-packed SGEMM micro-kernel (BLIS-style).
//
// The driver packs all of B once into KC x NC panels of contiguous,
// SIMD-friendly NR-column strips, tiles C into MC x NC macro-blocks, packs
// the corresponding A (MC x KC) panels in the per-lane scratch arena, and
// walks each block with a register-tiled MR x NR inner kernel. Both operands
// can be consumed transposed, which is how matmul_tn / matmul_nt reuse the
// same kernel without materializing the transpose. gemm_packed packs B per
// call; gemm_prepacked runs the same loop nest over panels a caller packed
// once with gemm_pack_b (a serving plan's dense weights), so a call packs
// only its own rows of A.
//
// Determinism and exactness contract:
//  * The accumulation for every C element is the plain ascending-p chain
//    c = fma(a[i,p], b[p,j], c) — the micro-kernel loads the C tile, extends
//    the chain across KC blocks in ascending order, and stores it back. The
//    result is therefore bit-identical to the textbook ikj triple loop
//    (gemm_naive below) for ANY m, k, n, and to itself at any blocking.
//  * Parallelism splits C row-panels across pool lanes, in tasks of at
//    least one MR-row tile (so a batch of up to MR rows is one task); each
//    element is produced by exactly one lane with the same instruction
//    sequence as the serial loop, so results are bit-identical at any
//    thread count (the runtime's guarantee).
//  * There is deliberately no zero-skip shortcut: 0 * NaN and 0 * Inf must
//    propagate NaN and -0/+0 must follow IEEE addition, exactly as the naive
//    chain does (see tests/test_gemm.cpp).

#include <cstdint>

namespace ibrar {

/// How a raw operand buffer is to be read.
enum class GemmLayout {
  kRowMajor,    ///< element (r, c) at buf[r * ld + c]
  kTransposed,  ///< element (r, c) at buf[c * ld + r] (stored transposed)
};

/// Register tile: MR rows x NR columns of C per inner-kernel invocation.
inline constexpr std::int64_t kGemmMR = 4;
inline constexpr std::int64_t kGemmNR = 16;
/// Cache blocking: A panels are MC x KC (~L2), B strips KC x NR (~L1),
/// B panels KC x NC (~L3).
inline constexpr std::int64_t kGemmMC = 128;
inline constexpr std::int64_t kGemmKC = 256;
inline constexpr std::int64_t kGemmNC = 512;

/// Below this m*k*n volume the packing overhead outweighs the blocking win
/// and the driver falls back to the (bit-identical) naive loop.
inline constexpr std::int64_t kGemmSmallVolume = 32 * 32 * 32;

/// C(m,n) += op(A)(m,k) * op(B)(k,n), C row-major with leading dimension n.
/// op(X) is X read through its GemmLayout; leading dimensions are implied
/// (A: k row-major / m transposed; B: n row-major / k transposed).
void gemm_packed(const float* a, GemmLayout la, const float* b, GemmLayout lb,
                 float* c, std::int64_t m, std::int64_t k, std::int64_t n);

/// Floats gemm_pack_b writes for a (k, n) op(B): k rows of n columns, each
/// NC-column block padded to whole NR-column strips.
std::int64_t gemm_packed_b_floats(std::int64_t k, std::int64_t n);

/// Pack all of op(B) (k, n) into bp (gemm_packed_b_floats(k, n) floats):
/// NC-column blocks in order, each a run of KC-deep panels of NR-column
/// strips, p-major within a strip, columns past n zero-filled. The layout
/// gemm_packed packs into its caller's arena per call.
void gemm_pack_b(const float* b, GemmLayout lb, std::int64_t k, std::int64_t n,
                 float* bp);

/// C(m,n) += op(A)(m,k) * B, B already packed by gemm_pack_b: gemm_packed's
/// loop nest without its pack of B, under the same profile site. Every shape
/// runs the loop (there is no naive fallback to read an unpacked B); the
/// chains, and so the bits, are gemm_packed's.
void gemm_prepacked(const float* a, GemmLayout la, const float* bp, float* c,
                    std::int64_t m, std::int64_t k, std::int64_t n);

/// Reference ikj triple loop with the identical accumulation chain (no
/// zero-skip, no blocking). Serial; exposed for tests and the A/B bench.
void gemm_naive(const float* a, GemmLayout la, const float* b, GemmLayout lb,
                float* c, std::int64_t m, std::int64_t k, std::int64_t n);

/// Packing and register-tile entry points for drivers that fuse their own
/// epilogue into the C writeback (conv_eval). These are the same compiled
/// routines gemm_packed itself runs, so a caller that feeds them panels with
/// the same operand values in the same ascending-p order gets bit-identical
/// C elements — the fusion freedom is in the loop structure around the
/// kernel, never in the per-element rounding chain.
namespace gemm_detail {

/// A-panel pack: rows [ic, ic+mc) x depth [pc, pc+kc) of op(A) into MR-row
/// strips, p-major within a strip (strip s holds kc * MR floats; element
/// (p, r) of strip s is A(ic + s*MR + r, pc + p)). Rows past mc zero-filled.
void pack_a(const float* a, std::int64_t lda, bool trans, std::int64_t ic,
            std::int64_t mc, std::int64_t pc, std::int64_t kc, float* ap);

/// The B rows of a packed strip: row p is the NR floats at strip + p * NR.
struct PackedRows {
  const float* strip;
  const float* operator()(std::int64_t p) const { return strip + p * kGemmNR; }
};

/// B rows read in place (an indirect convolution): row p is the NR floats at
/// base + off[p], wherever the offset table points.
struct OffsetRows {
  const float* base;
  const std::int64_t* off;
  const float* operator()(std::int64_t p) const { return base + off[p]; }
};

/// MR x NR register tile: extend each C element's ascending-p fma chain by
/// kc steps from the packed A strip ap (kc x MR) and the kc B rows b(p). C
/// is read once before the loop when load_c, and stored once after it
/// (leading dimension ldc); without load_c each chain starts from +0 in a
/// register, as it would from a zeroed C, and C is only written. One body
/// for both row sources, instantiated for each in gemm_packed.cpp: the B
/// row's address is all that differs.
template <typename Rows>
void micro_kernel(std::int64_t kc, const float* ap, Rows b, float* c,
                  std::int64_t ldc, bool load_c = true);
extern template void micro_kernel<PackedRows>(std::int64_t, const float*,
                                              PackedRows, float*, std::int64_t,
                                              bool);
extern template void micro_kernel<OffsetRows>(std::int64_t, const float*,
                                              OffsetRows, float*, std::int64_t,
                                              bool);

}  // namespace gemm_detail

}  // namespace ibrar
