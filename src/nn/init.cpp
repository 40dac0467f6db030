#include "nn/init.hpp"

#include <cmath>

namespace ibrar::nn {

void kaiming_normal(Tensor& w, std::int64_t fan_in, Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  for (auto& x : w.data()) x = rng.normal(0.0f, stddev);
}

void uniform_init(Tensor& w, float bound, Rng& rng) {
  for (auto& x : w.data()) x = rng.uniform(-bound, bound);
}

}  // namespace ibrar::nn
