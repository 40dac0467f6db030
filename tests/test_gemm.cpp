// Packed GEMM invariants: bit-exact agreement with the naive reference chain
// at ragged shapes, for gemm_packed and for gemm_prepacked over B packed once
// (ordinary and IEEE-special operands, 1 and 4 lanes), IEEE special-value
// propagation (the zero-skip regression), 1-vs-N-thread bit identity,
// transposed-variant exactness, and the matmul shape-error paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/scratch_arena.hpp"
#include "runtime/thread_pool.hpp"
#include "special_values.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace ibrar {
namespace {

constexpr float kQNaN = std::numeric_limits<float>::quiet_NaN();

Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  Tensor c({a.dim(0), b.dim(1)});
  gemm_naive(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
             GemmLayout::kRowMajor, c.data().data(), a.dim(0), a.dim(1),
             b.dim(1));
  return c;
}

void expect_bits_equal(const Tensor& x, const Tensor& y, const char* what) {
  ASSERT_TRUE(x.same_shape(y)) << what;
  ASSERT_EQ(std::memcmp(x.data().data(), y.data().data(),
                        sizeof(float) * static_cast<std::size_t>(x.numel())),
            0)
      << what;
}

/// a * b through gemm_prepacked, b packed once by gemm_pack_b.
Tensor prepacked_matmul(const Tensor& a, const Tensor& b) {
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  std::vector<float> panels(
      static_cast<std::size_t>(gemm_packed_b_floats(k, n)));
  gemm_pack_b(b.data().data(), GemmLayout::kRowMajor, k, n, panels.data());
  Tensor c({m, n});
  gemm_prepacked(a.data().data(), GemmLayout::kRowMajor, panels.data(),
                 c.data().data(), m, k, n);
  return c;
}

/// gemm_prepacked memcmp-equal to the naive chain at (m, k, n), on ordinary
/// operands and on operands with NaN, +-0, +-inf and subnormals at every
/// third element, at 1 and 4 lanes. With specials, a chain meets an input's
/// NaN and the negative default NaN of inf - inf, and which survives follows
/// the operand order the compiler picks for each loop's add (the sanitizer
/// builds pick differently for the kernel and for gemm_naive), so NaN
/// matches NaN whatever its sign (canonical_nans); every other bit must
/// match. The outputs stay alive until the reference is computed.
void expect_prepacked_matches_naive(std::int64_t m, std::int64_t k,
                                    std::int64_t n) {
  const std::uint64_t seed =
      static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n);
  Rng rng(seed);
  const Tensor a = randn({m, k}, rng);
  const Tensor b = randn({k, n}, rng);
  const Tensor as = special_values({m, k}, seed);
  const Tensor bs = special_values({k, n}, ~seed);
  const std::int64_t lanes0 = runtime::num_threads();
  for (const bool special : {false, true}) {
    const Tensor& av = special ? as : a;
    const Tensor& bv = special ? bs : b;
    std::vector<Tensor> got;
    for (const std::int64_t lanes : {1, 4}) {
      runtime::set_num_threads(lanes);
      got.push_back(prepacked_matmul(av, bv));
    }
    runtime::set_num_threads(lanes0);
    const Tensor ref = naive_matmul(av, bv);
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(::testing::Message()
                   << "m=" << m << " k=" << k << " n=" << n
                   << (special ? " special" : "") << " lanes=" << (i ? 4 : 1));
      if (special) {
        expect_bits_equal(canonical_nans(ref), canonical_nans(got[i]),
                          "prepacked vs naive chain");
      } else {
        expect_bits_equal(ref, got[i], "prepacked vs naive chain");
      }
    }
  }
}

// ---- packed vs naive exactness ---------------------------------------------

struct GemmShape {
  std::int64_t m, k, n;
};

class PackedVsNaiveSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(PackedVsNaiveSweep, BitExactAtAnyShape) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n));
  const Tensor a = randn({m, k}, rng);
  const Tensor b = randn({k, n}, rng);
  const Tensor ref = naive_matmul(a, b);
  const Tensor out = matmul(a, b);
  expect_bits_equal(ref, out, "matmul vs naive chain");
}

TEST_P(PackedVsNaiveSweep, PrepackedBitExactAtAnyShape) {
  const auto [m, k, n] = GetParam();
  expect_prepacked_matches_naive(m, k, n);
}

INSTANTIATE_TEST_SUITE_P(
    // Ragged m/k/n around the MR=4 / NR=16 / KC=256 boundaries: below, at,
    // one past, crossing KC, and degenerate single-row/col cases.
    Shapes, PackedVsNaiveSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 2},
                      GemmShape{4, 16, 16}, GemmShape{5, 17, 15},
                      GemmShape{33, 33, 33}, GemmShape{64, 64, 64},
                      GemmShape{65, 63, 17}, GemmShape{130, 67, 33},
                      GemmShape{47, 300, 19},   // k crosses one KC block
                      GemmShape{40, 513, 31},   // k crosses two KC blocks
                      GemmShape{129, 40, 140},  // m crosses MC
                      GemmShape{1, 100, 1}, GemmShape{200, 1, 50},
                      // Square, k > KC, a vgg conv's im2col product, ragged,
                      // and an MLP layer.
                      GemmShape{256, 256, 256}, GemmShape{384, 384, 384},
                      GemmShape{4096, 288, 64}, GemmShape{250, 301, 70},
                      GemmShape{100, 48, 32}));

TEST(PackedGemm, PrepackedServingBatchesBitExact) {
  // A served dense layer's shapes: every batch of 1 to 9 rows (one to three
  // MR-row tiles, the last ragged) against a depth that crosses KC and
  // widths of one ragged strip, of one NC block, and crossing NC.
  for (std::int64_t m = 1; m <= 9; ++m) {
    for (const std::int64_t n : {10, 256, 600}) {
      expect_prepacked_matches_naive(m, 768, n);
    }
  }
}

TEST(PackedGemm, TransposedVariantsBitExact) {
  // matmul_tn / matmul_nt read the operand through its transposed layout;
  // the accumulation chain must match the materialized-transpose product.
  Rng rng(7);
  const Tensor a = randn({37, 53}, rng);    // (k=37, m=53) for tn
  const Tensor b = randn({37, 29}, rng);
  expect_bits_equal(matmul(transpose2d(a), b), matmul_tn(a, b), "tn");

  const Tensor x = randn({41, 37}, rng);
  const Tensor y = randn({23, 37}, rng);    // (n=23, k=37) for nt
  expect_bits_equal(matmul(x, transpose2d(y)), matmul_nt(x, y), "nt");
}

TEST(PackedGemm, AccumulatesIntoExistingC) {
  // gemm_packed's contract is +=, not =.
  Rng rng(11);
  const Tensor a = randn({20, 30}, rng);
  const Tensor b = randn({30, 40}, rng);
  Tensor c({20, 40}, 2.5f);
  Tensor ref = c;
  gemm_naive(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
             GemmLayout::kRowMajor, ref.data().data(), 20, 30, 40);
  gemm_packed(a.data().data(), GemmLayout::kRowMajor, b.data().data(),
              GemmLayout::kRowMajor, c.data().data(), 20, 30, 40);
  expect_bits_equal(ref, c, "accumulate into nonzero C");
}

TEST(PackedGemm, LargeShapeUsesPackedPathAndMatches) {
  // Big enough that the packed path (not the small-volume fallback) runs,
  // ragged so every edge-tile case is exercised; double-precision reference.
  Rng rng(13);
  const std::int64_t m = 131, k = 261, n = 79;
  const Tensor a = randn({m, k}, rng);
  const Tensor b = randn({k, n}, rng);
  const Tensor out = matmul(a, b);
  for (std::int64_t i = 0; i < m; i += 13) {
    for (std::int64_t j = 0; j < n; j += 7) {
      double s = 0.0;
      for (std::int64_t p = 0; p < k; ++p) s += static_cast<double>(a.at(i, p)) * b.at(p, j);
      EXPECT_NEAR(out.at(i, j), s, 1e-3 * (1.0 + std::fabs(s))) << i << "," << j;
    }
  }
}

// ---- IEEE special values (zero-skip regression) ----------------------------

TEST(GemmIeee, ZeroTimesNaNPropagates) {
  // The seed kernel skipped a == 0.0f rows, silently turning 0 * NaN into 0.
  // IEEE requires NaN: pin the fixed behavior.
  Tensor a({1, 2}, {0.0f, 0.0f});
  Tensor b({2, 1}, {kQNaN, 1.0f});
  EXPECT_TRUE(std::isnan(matmul(a, b)[0]));
}

TEST(GemmIeee, ZeroTimesInfPropagatesNaN) {
  Tensor a({2, 2}, {0.0f, 0.0f, 1.0f, 0.0f});
  Tensor b({2, 2}, {kInf, 2.0f, 3.0f, 4.0f});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));  // 0*inf + 0*3
  EXPECT_FLOAT_EQ(c.at(0, 1), 0.0f);    // 0*2 + 0*4
  EXPECT_TRUE(std::isinf(c.at(1, 0)));  // 1*inf + 0*3
}

TEST(GemmIeee, SignedZeroAccumulation) {
  // With the skip, a zero A row left c untouched (so c = -0 stayed -0). The
  // IEEE chain computes -0 + (+0 * b) = -0 + 0 = +0.
  float a[1] = {0.0f};
  float b[1] = {5.0f};
  float c[1] = {-0.0f};
  ASSERT_TRUE(std::signbit(c[0]));
  gemm_packed(a, GemmLayout::kRowMajor, b, GemmLayout::kRowMajor, c, 1, 1, 1);
  EXPECT_FLOAT_EQ(c[0], 0.0f);
  EXPECT_FALSE(std::signbit(c[0]));
}

TEST(GemmIeee, NaNInputNeverSilentlySkipped) {
  // NaN anywhere in a row of A poisons that whole output row.
  Rng rng(3);
  Tensor a = randn({8, 40}, rng);
  const Tensor b = randn({40, 12}, rng);
  a.at(5, 17) = kQNaN;
  const Tensor c = matmul(a, b);
  for (std::int64_t j = 0; j < 12; ++j) {
    EXPECT_TRUE(std::isnan(c.at(5, j))) << j;
    EXPECT_FALSE(std::isnan(c.at(0, j))) << j;
  }
}

TEST(GemmIeee, SpecialValuesThroughThePackedPath) {
  // The shapes above sit below kGemmSmallVolume and exercise the naive
  // fallback; this one (41*67*43 > 32^3, all dims ragged) runs the packing
  // and micro-kernel code, with specials placed in interior AND edge tiles.
  static_assert(41 * 67 * 43 >= kGemmSmallVolume);
  Rng rng(17);
  Tensor a = randn({41, 67}, rng);
  Tensor b = randn({67, 43}, rng);
  a.at(2, 33) = kQNaN;    // interior MR strip
  a.at(40, 5) = 0.0f;     // last (partial) row tile...
  b.at(5, 42) = kInf;     // ...meets Inf in the last (partial) column tile
  for (std::int64_t p = 0; p < 67; ++p) a.at(7, p) = 0.0f;  // all-zero row
  b.at(31, 19) = kQNaN;
  const Tensor c = matmul(a, b);
  for (std::int64_t j = 0; j < 43; ++j) {
    EXPECT_TRUE(std::isnan(c.at(2, j))) << "NaN row, col " << j;
  }
  EXPECT_TRUE(std::isnan(c.at(40, 42)));  // 0 * inf in the corner edge tile
  EXPECT_TRUE(std::isnan(c.at(7, 19)));   // zero row x NaN: no skip allowed
  EXPECT_TRUE(std::isnan(c.at(7, 42)));   // zero row x inf edge column
  EXPECT_FLOAT_EQ(c.at(7, 0), 0.0f);      // zero row x finite column
  EXPECT_FALSE(std::isnan(c.at(0, 0)));
  // And the packed chain still matches the naive chain bit-for-bit with
  // specials present (NaN payloads compare via memcmp, not ==).
  const Tensor ref = naive_matmul(a, b);
  ASSERT_TRUE(ref.same_shape(c));
  EXPECT_EQ(std::memcmp(ref.data().data(), c.data().data(),
                        sizeof(float) * static_cast<std::size_t>(c.numel())),
            0);
}

// ---- thread-count bit identity ---------------------------------------------

TEST(GemmDeterminism, OneVsManyThreadsBitIdentical) {
  // Ragged sizes (not multiples of MR/NR, k crossing KC), a square with
  // k > KC and a vgg conv's im2col product, at 1 vs 4 lanes.
  const GemmShape shapes[] = {{130, 300, 67}, {257, 65, 31}, {1000, 37, 16},
                              {384, 384, 384}, {4096, 288, 64}};
  for (const auto& s : shapes) {
    Rng rng(static_cast<std::uint64_t>(s.m));
    const Tensor a = randn({s.m, s.k}, rng);
    const Tensor b = randn({s.k, s.n}, rng);
    runtime::set_num_threads(1);
    const Tensor ref = matmul(a, b);
    const Tensor ref_tn = matmul_tn(transpose2d(a), b);
    runtime::set_num_threads(4);
    const Tensor par = matmul(a, b);
    const Tensor par_tn = matmul_tn(transpose2d(a), b);
    runtime::set_num_threads(0);
    expect_bits_equal(ref, par, "matmul 1 vs 4 lanes");
    expect_bits_equal(ref_tn, par_tn, "matmul_tn 1 vs 4 lanes");
  }
}

// ---- shape-error paths ------------------------------------------------------

TEST(GemmErrors, MatmulThrowMessagesNameTheShapes) {
  const Tensor a({2, 3});
  const Tensor b({4, 2});
  try {
    matmul(a, b);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("matmul: bad shapes"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[2, 3]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("[4, 2]"), std::string::npos) << msg;
  }
  EXPECT_THROW(matmul(Tensor({2}), Tensor({2, 2})), std::invalid_argument);
  EXPECT_THROW(matmul(Tensor({2, 2, 2}), Tensor({2, 2})), std::invalid_argument);
}

TEST(GemmErrors, TransposedVariantsValidateSharedDim) {
  EXPECT_THROW(matmul_tn(Tensor({3, 2}), Tensor({4, 5})), std::invalid_argument);
  EXPECT_THROW(matmul_nt(Tensor({2, 3}), Tensor({5, 4})), std::invalid_argument);
  try {
    matmul_tn(Tensor({3, 2}), Tensor({4, 5}));
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("matmul_tn: bad shapes"),
              std::string::npos);
  }
}

// ---- scratch arena ----------------------------------------------------------

TEST(ScratchArena, GrowsAndReusesPerSlot) {
  using runtime::Scratch;
  runtime::ScratchArena arena;
  float* p1 = arena.floats(Scratch::kGemmPackA, 100);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % runtime::kScratchAlign, 0u);
  float* p2 = arena.floats(Scratch::kGemmPackA, 50);  // smaller request reuses
  EXPECT_EQ(p1, p2);
  // Another slot must not disturb the first.
  float* b1 = arena.floats(Scratch::kGemmPackB, 100000);
  EXPECT_NE(b1, p1);
  EXPECT_EQ(arena.floats(Scratch::kGemmPackA, 100), p1);
  EXPECT_GE(arena.capacity_bytes(), 100000 * sizeof(float));
}

TEST(ScratchArena, NamedSlotsAreIndependent) {
  // Every named handle hands out a distinct live buffer: nested consumers
  // (GEMM pack slots under the sym-Gram tile under the telemetry stats) must
  // never alias.
  using runtime::Scratch;
  runtime::ScratchArena arena;
  std::vector<float*> bufs;
  for (std::size_t s = 0; s < static_cast<std::size_t>(Scratch::kCount); ++s) {
    bufs.push_back(arena.floats(static_cast<Scratch>(s), 64));
  }
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    for (std::size_t j = i + 1; j < bufs.size(); ++j) {
      EXPECT_NE(bufs[i], bufs[j]);
    }
  }
}

}  // namespace
}  // namespace ibrar
