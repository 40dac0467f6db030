#include <cmath>

#include "nn/init.hpp"
#include "nn/layers.hpp"

namespace ibrar::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, Rng& rng,
               Conv2dSpec spec, bool bias)
    : spec_(spec) {
  const std::int64_t fan_in = in_channels * spec_.kernel * spec_.kernel;
  Tensor w({out_channels, in_channels, spec_.kernel, spec_.kernel});
  kaiming_normal(w, fan_in, rng);
  weight_ = ag::Var::param(std::move(w));
  register_parameter("weight", weight_);
  if (bias) {
    Tensor b({out_channels});
    uniform_init(b, 1.0f / std::sqrt(static_cast<float>(fan_in)), rng);
    bias_ = ag::Var::param(std::move(b));
    register_parameter("bias", bias_);
  }
}

ag::Var Conv2d::run(const ag::Var& x, Mode) const {
  return ag::conv2d(x, weight_, bias_, spec_);
}

}  // namespace ibrar::nn
