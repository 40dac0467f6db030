#include <cmath>

#include "nn/init.hpp"
#include "nn/layers.hpp"

namespace ibrar::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
               bool bias) {
  Tensor w({in_features, out_features});
  kaiming_normal(w, in_features, rng);
  weight_ = ag::Var::param(std::move(w));
  register_parameter("weight", weight_);
  if (bias) {
    Tensor b({out_features});
    uniform_init(b, 1.0f / std::sqrt(static_cast<float>(in_features)), rng);
    bias_ = ag::Var::param(std::move(b));
    register_parameter("bias", bias_);
  }
}

ag::Var Linear::run(const ag::Var& x, Mode) const {
  ag::Var y = ag::matmul(x, weight_);
  if (bias_.defined()) y = ag::add(y, bias_);
  return y;
}

}  // namespace ibrar::nn
