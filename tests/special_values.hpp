#pragma once
// Inputs for the bit gates (test_tensor, test_autograd, test_conv_eval): IEEE
// edge cases mixed into ordinary values, so a kernel that changes what a NaN,
// a signed zero, an infinity or a subnormal becomes shows up in a memcmp,
// at sizes around the vector width and the pool's grain.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "tensor/random.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ibrar {

inline constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
inline constexpr float kInf = std::numeric_limits<float>::infinity();

/// uniform(-3, 3) with NaN, +-0, +-inf and subnormals at every third element.
inline Tensor special_values(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t = rand_uniform(shape, rng, -3.0f, 3.0f);
  const float specials[] = {kNaN,  0.0f,   -0.0f,  kInf,   -kInf,
                            1e-40f, -1e-40f,
                            std::numeric_limits<float>::denorm_min()};
  constexpr std::int64_t kCount = sizeof specials / sizeof specials[0];
  for (std::int64_t i = 0; i < t.numel(); i += 3) {
    t[i] = specials[(i / 3) % kCount];
  }
  return t;
}

/// t with every NaN replaced by one quiet NaN. When an operation meets two
/// NaNs (x86's negative default NaN from inf - inf or 0 * inf, and an
/// input's positive quiet NaN), which one it returns depends on the operand
/// order the compiler picks for a commutative add: a Release ASan/UBSan
/// build picks differently for a kernel and for its reference. Every other
/// bit, signed zeros, infinities and subnormals included, must still match.
inline Tensor canonical_nans(Tensor t) {
  for (float& v : t.data()) {
    if (std::isnan(v)) v = kNaN;
  }
  return t;
}

/// Sizes for the gates: empty, one, either side of a vector width, either
/// side of the pool's grain, and a vgg16 activation.
inline std::vector<Shape> map_shapes() {
  constexpr std::int64_t g = runtime::kElementwiseGrain;
  return {{0}, {1}, {15}, {16}, {17}, {g - 1}, {g}, {g + 1}, {100, 8, 16, 16}};
}

}  // namespace ibrar
