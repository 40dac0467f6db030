#include "nn/layers.hpp"

namespace ibrar::nn {

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {}

ag::Var Dropout::train_forward(const ag::Var& x) {
  return ag::dropout(x, p_, /*training=*/true, rng_);
}

GaussianNoise::GaussianNoise(float stddev, std::uint64_t seed)
    : stddev_(stddev), rng_(seed) {}

ag::Var GaussianNoise::train_forward(const ag::Var& x) {
  if (stddev_ <= 0.0f) return x;
  Tensor noise(x.shape());
  for (auto& v : noise.data()) v = rng_.normal(0.0f, stddev_);
  return ag::add(x, ag::Var::constant(noise));
}

}  // namespace ibrar::nn
