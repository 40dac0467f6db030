#include "tensor/random.hpp"

namespace ibrar {

Tensor randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t(std::move(shape));
  for (auto& x : t.data()) x = rng.normal(mean, stddev);
  return t;
}

Tensor rand_uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (auto& x : t.data()) x = rng.uniform(lo, hi);
  return t;
}

Tensor rand_sign(Shape shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (auto& x : t.data()) x = rng.bernoulli(0.5) ? 1.0f : -1.0f;
  return t;
}

}  // namespace ibrar
