#include "nn/layers.hpp"

namespace ibrar::nn {

BatchNorm2d::BatchNorm2d(std::int64_t channels, bool relu, float momentum,
                         float eps)
    : relu_(relu),
      momentum_(momentum),
      eps_(eps),
      gamma_(ag::Var::param(Tensor({channels}, 1.0f))),
      beta_(ag::Var::param(Tensor({channels}))),
      running_mean_({channels}),
      running_var_(Tensor({channels}, 1.0f)) {
  register_parameter("gamma", gamma_);
  register_parameter("beta", beta_);
  register_buffer("running_mean", &running_mean_);
  register_buffer("running_var", &running_var_);
}

ag::Var BatchNorm2d::run(const ag::Var& x, Mode) const {
  return ag::batch_norm2d_eval(x, gamma_, beta_, running_mean_, running_var_,
                               eps_, relu_);
}

ag::Var BatchNorm2d::train_forward(const ag::Var& x) {
  return ag::batch_norm2d(x, gamma_, beta_, running_mean_, running_var_,
                          /*training=*/true, momentum_, eps_, relu_);
}

FoldedBn BatchNorm2d::folded() const {
  return fold_batch_norm(gamma_.value(), beta_.value(), running_mean_,
                         running_var_, eps_);
}

}  // namespace ibrar::nn
