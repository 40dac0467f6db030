#pragma once
// Weight initialization schemes.

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ibrar::nn {

/// He/Kaiming normal: N(0, sqrt(2/fan_in)) — the right scale for ReLU nets.
void kaiming_normal(Tensor& w, std::int64_t fan_in, Rng& rng);

/// Uniform in [-bound, bound] (bias init).
void uniform_init(Tensor& w, float bound, Rng& rng);

}  // namespace ibrar::nn
