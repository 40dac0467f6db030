#pragma once
// One SIMD register of the compile target, as GCC vector types, for the
// kernels that run independent chains side by side: the packed GEMM's
// register tile (tensor/gemm_packed.cpp), the conv input gradient's gather
// and bias-gradient sums (tensor/conv_eval.cpp), and batch norm's moment and
// gradient sums (autograd/ops_norm.cpp).
//
// Arithmetic on these types is lowered to the target's packed instructions,
// and per lane each operation is the scalar operation a plain loop performs,
// so a lane that carries one chain rounds exactly as that chain's scalar
// loop. A type is no wider than a register, because a wider vector type
// lives in memory; and a value of it never crosses a function boundary
// (loads and stores go through memcpy), since passing a 64-byte vector by
// value is an ABI warning on targets without 512-bit registers.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

namespace ibrar::simd {

#if defined(__AVX512F__)
inline constexpr std::int64_t kBytes = 64;
#elif defined(__AVX__)
inline constexpr std::int64_t kBytes = 32;
#else
inline constexpr std::int64_t kBytes = 16;
#endif

typedef float Floats __attribute__((vector_size(kBytes)));
typedef double Doubles __attribute__((vector_size(kBytes)));
typedef std::int32_t Ints __attribute__((vector_size(kBytes)));

/// Lanes of one register: 16, 8 or 4 floats, and 8, 4 or 2 doubles.
inline constexpr std::int64_t kFloats = kBytes / sizeof(float);
inline constexpr std::int64_t kDoubles = kBytes / sizeof(double);

/// Floats and ints of as many lanes as a register of doubles: half a
/// register, converted to Doubles with __builtin_convertvector.
typedef float HalfFloats __attribute__((vector_size(kBytes / 2)));
typedef std::int32_t HalfInts __attribute__((vector_size(kBytes / 2)));

/// Lanes of the vector type V.
template <typename V>
inline constexpr std::int64_t kLanes = sizeof(V) / sizeof(V{}[0]);

namespace detail {

/// Half h (0 or 1) of a and b interleaved: a[o], b[o], a[o + 1], b[o + 1],
/// ... from o = h * L / 2.
template <std::size_t kHalf, typename V, std::size_t... I>
inline V interleave(V a, V b, std::index_sequence<I...>) {
  constexpr std::size_t kL = kLanes<V>, kOff = kHalf * kL / 2;
  return __builtin_shufflevector(a, b, (I % 2 ? kL + kOff + I / 2
                                              : kOff + I / 2)...);
}

}  // namespace detail

/// v[j] for j < L (L = kLanes<V>) gets, in lane l, the float at
/// base + at[l] + k + j: L runs of L floats, one per lane, loaded whole and
/// transposed in registers by log2(L) rounds of interleaves. So L chains
/// that each walk their own run of memory step together, one vector per
/// step, without a load per lane.
template <typename V>
inline void columns(const float* base, const std::int64_t* at, std::int64_t k,
                    V* v) {
  constexpr std::int64_t kL = kLanes<V>;
  using Seq = std::make_index_sequence<kL>;
  for (std::int64_t l = 0; l < kL; ++l) {
    std::memcpy(&v[l], base + at[l] + k, sizeof(V));
  }
  for (std::int64_t round = 1; round < kL; round *= 2) {
    V t[kL];
    for (std::int64_t i = 0; i < kL / 2; ++i) {
      t[2 * i] = detail::interleave<0>(v[i], v[i + kL / 2], Seq{});
      t[2 * i + 1] = detail::interleave<1>(v[i], v[i + kL / 2], Seq{});
    }
    for (std::int64_t i = 0; i < kL; ++i) v[i] = t[i];
  }
}

/// The float at base + at[l] + k in lane l: columns' tail, lane by lane.
template <typename V>
inline V column(const float* base, const std::int64_t* at, std::int64_t k) {
  V v;
  for (std::int64_t l = 0; l < kLanes<V>; ++l) v[l] = base[at[l] + k];
  return v;
}

/// step(v) for k = 0 .. len - 1 in order, lane l of v the float at
/// base + at[l] + k: L chains, lane l walking its own run of len floats.
template <typename V, typename Step>
inline void each_column(const float* base, const std::int64_t* at,
                        std::int64_t len, const Step& step) {
  constexpr std::int64_t kL = kLanes<V>;
  std::int64_t k = 0;
  for (; k + kL <= len; k += kL) {
    V v[kL];
    columns(base, at, k, v);
    for (std::int64_t j = 0; j < kL; ++j) step(v[j]);
  }
  for (; k < len; ++k) step(column<V>(base, at, k));
}

}  // namespace ibrar::simd
