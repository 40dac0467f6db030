#include "tensor/matmul.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/scratch_arena.hpp"
#include "tensor/gemm_packed.hpp"

namespace ibrar {

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0)) {
    throw std::invalid_argument("matmul: bad shapes " + shape_str(a.shape()) +
                                " x " + shape_str(b.shape()));
  }
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(1);
  Tensor c({m, n});
  gemm_packed(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
              GemmLayout::kRowMajor, c.data().data(), m, k, n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(0) != b.dim(0)) {
    throw std::invalid_argument("matmul_tn: bad shapes " + shape_str(a.shape()) +
                                " x " + shape_str(b.shape()));
  }
  const auto k = a.dim(0);  // shared dim
  const auto m = a.dim(1);
  const auto n = b.dim(1);
  Tensor c({m, n});
  // C = A^T B: the packed kernel reads A through its transposed layout, so no
  // transpose is ever materialized.
  gemm_packed(a.data().data(), GemmLayout::kTransposed, b.data().data(),
              GemmLayout::kRowMajor, c.data().data(), m, k, n);
  return c;
}

namespace {

/// Row-block edge for matmul_nt_sym: big enough that each per-block GEMM
/// amortizes panel packing, small enough that the upper-triangle block list
/// splits across pool lanes even at modest m.
constexpr std::int64_t kSymBlock = 128;

}  // namespace

Tensor matmul_nt_sym(const Tensor& a) {
  static obs::ProfileSite& prof = obs::profile_site("tensor/matmul_nt_sym");
  obs::ProfileScope prof_scope(prof);
  if (a.rank() != 2) {
    throw std::invalid_argument("matmul_nt_sym: bad shape " +
                                shape_str(a.shape()));
  }
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  Tensor c({m, m});
  if (m == 0) return c;
  const std::int64_t nb = (m + kSymBlock - 1) / kSymBlock;
  const std::int64_t pairs = nb * (nb + 1) / 2;
  const float* pa = a.data().data();
  float* pc = c.data().data();
  // Upper-triangle block pairs (bi <= bj), enumerated row-block major. Each
  // pair is an independent GEMM into a per-lane arena tile (slot 2 — the
  // packed kernel underneath owns slots 0/1), copied out and mirrored. Every
  // C element is produced exactly once by the same instruction sequence
  // regardless of which lane draws the pair, so results are bit-identical at
  // any thread count.
  runtime::parallel_for(0, pairs, 1, [&](std::int64_t p0, std::int64_t p1) {
    runtime::ScratchArena& arena = runtime::lane_arena();
    for (std::int64_t p = p0; p < p1; ++p) {
      std::int64_t bi = 0, rem = p;
      while (rem >= nb - bi) {
        rem -= nb - bi;
        ++bi;
      }
      const std::int64_t bj = bi + rem;
      const std::int64_t i0 = bi * kSymBlock;
      const std::int64_t j0 = bj * kSymBlock;
      const std::int64_t bh = std::min(kSymBlock, m - i0);
      const std::int64_t bw = std::min(kSymBlock, m - j0);
      float* tile =
          arena.floats(runtime::Scratch::kSymGramTile,
                       static_cast<std::size_t>(bh) *
                           static_cast<std::size_t>(bw));
      std::memset(tile, 0, sizeof(float) * static_cast<std::size_t>(bh * bw));
      gemm_packed(pa + i0 * k, GemmLayout::kRowMajor, pa + j0 * k,
                  GemmLayout::kTransposed, tile, bh, k, bw);
      if (bi == bj) {
        // Diagonal block: keep the upper wedge, mirror it below.
        for (std::int64_t r = 0; r < bh; ++r) {
          const std::int64_t i = i0 + r;
          for (std::int64_t q = r; q < bw; ++q) {
            const float v = tile[r * bw + q];
            pc[i * m + j0 + q] = v;
            pc[(j0 + q) * m + i] = v;
          }
        }
      } else {
        for (std::int64_t r = 0; r < bh; ++r) {
          const std::int64_t i = i0 + r;
          std::memcpy(pc + i * m + j0, tile + r * bw,
                      sizeof(float) * static_cast<std::size_t>(bw));
          for (std::int64_t q = 0; q < bw; ++q) {
            pc[(j0 + q) * m + i] = tile[r * bw + q];
          }
        }
      }
    }
  });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(1)) {
    throw std::invalid_argument("matmul_nt: bad shapes " + shape_str(a.shape()) +
                                " x " + shape_str(b.shape()));
  }
  const auto m = a.dim(0);
  const auto k = a.dim(1);
  const auto n = b.dim(0);
  Tensor c({m, n});
  gemm_packed(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
              GemmLayout::kTransposed, c.data().data(), m, k, n);
  return c;
}

}  // namespace ibrar
