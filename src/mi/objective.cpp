#include "mi/objective.hpp"

#include <stdexcept>

#include "tensor/ops.hpp"

namespace ibrar::mi {
namespace {

std::vector<std::size_t> resolve_layers(const IBObjectiveConfig& cfg,
                                        std::size_t num_taps) {
  if (cfg.layer_indices.empty()) {
    std::vector<std::size_t> all(num_taps);
    for (std::size_t i = 0; i < num_taps; ++i) all[i] = i;
    return all;
  }
  for (const auto i : cfg.layer_indices) {
    if (i >= num_taps) throw std::out_of_range("ib_objective: layer index");
  }
  return cfg.layer_indices;
}

}  // namespace

ag::Var ib_objective(const ag::Var& x, const std::vector<ag::Var>& taps,
                     const std::vector<std::int64_t>& labels,
                     std::int64_t num_classes, const IBObjectiveConfig& cfg) {
  const auto layers = resolve_layers(cfg, taps.size());

  const ag::Var x2 = ag::flatten2d(x);
  const ag::Var kx = gram_gaussian(x2, scaled_sigma(x2.shape()[1], cfg.sigma_mult));

  const Tensor y = one_hot(labels, num_classes);
  const ag::Var ky = ag::Var::constant(
      gram_gaussian(y, scaled_sigma(num_classes, cfg.sigma_mult_y)));

  ag::Var total = ag::Var::constant(Tensor::scalar(0.0f));
  for (const auto li : layers) {
    const ag::Var t2 = ag::flatten2d(taps[li]);
    const ag::Var kt =
        gram_gaussian(t2, scaled_sigma(t2.shape()[1], cfg.sigma_mult));
    if (cfg.alpha != 0.0f) {
      total = ag::add(total, ag::mul_scalar(hsic(kx, kt), cfg.alpha));
    }
    if (cfg.beta != 0.0f) {
      total = ag::sub(total, ag::mul_scalar(hsic(ky, kt), cfg.beta));
    }
  }
  return total;
}

}  // namespace ibrar::mi
