#include "models/mlp.hpp"

#include "models/plan.hpp"

namespace ibrar::models {

MLP::MLP(const MLPConfig& cfg, Rng& rng) : cfg_(cfg) {
  std::int64_t in = cfg_.in_features;
  for (std::size_t i = 0; i < cfg_.hidden.size(); ++i) {
    auto fc = std::make_shared<nn::Linear>(in, cfg_.hidden[i], rng);
    register_module("fc" + std::to_string(i + 1), fc);
    layers_.push_back(std::move(fc));
    tap_names_.push_back("fc" + std::to_string(i + 1));
    in = cfg_.hidden[i];
  }
  head_ = std::make_shared<nn::Linear>(in, cfg_.num_classes, rng);
  register_module("head", head_);
}

TapsOutput MLP::run_with_taps(const ag::Var& x, nn::Mode mode) const {
  TapsOutput out;
  // Accept image tensors too: flatten anything beyond rank 2.
  ag::Var h = x.shape().size() > 2 ? ag::flatten2d(x) : x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = ag::relu(layers_[i]->forward(h, mode));
    if (i + 1 == layers_.size()) {
      h = noise_->forward(apply_channel_mask(h), mode);
    }
    out.taps.push_back(h);
  }
  out.logits = head_->forward(h, mode);
  return out;
}

InferencePlan MLP::lower() const {
  InferencePlan plan;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    plan.linear(*layers_[i], /*relu=*/true);
    if (i + 1 == layers_.size()) plan.mask(*this);
    plan.tap();
  }
  plan.linear(*head_, /*relu=*/false);
  return plan;
}

}  // namespace ibrar::models
