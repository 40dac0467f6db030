#include "models/mlp.hpp"

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

TapsOutput MLP::forward_with_taps(const ag::Var& x) {
  // Eval mode has no mode-dependent ops left; route through the const path so
  // train/eval consistency is structural rather than maintained by hand.
  if (!training()) return eval_forward_with_taps(x);
  TapsOutput out;
  // Accept image tensors too: flatten anything beyond rank 2.
  ag::Var h = x.shape().size() > 2 ? ag::flatten2d(x) : x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = ag::relu(layers_[i]->forward(h));
    if (i + 1 == layers_.size()) {
      if (has_channel_mask()) {
        h = ag::mul(h, ag::Var::constant(mask_.reshape({1, mask_.numel()})));
      }
      h = maybe_noise(h);
    }
    out.taps.push_back(h);
  }
  out.logits = head_->forward(h);
  return out;
}

TapsOutput MLP::eval_forward_with_taps(const ag::Var& x) const {
  TapsOutput out;
  ag::Var h = x.shape().size() > 2 ? ag::flatten2d(x) : x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = ag::relu(layers_[i]->eval_forward(h));
    if (i + 1 == layers_.size() && has_channel_mask()) {
      h = ag::mul(h, ag::Var::constant(mask_.reshape({1, mask_.numel()})));
    }
    out.taps.push_back(h);
  }
  out.logits = head_->eval_forward(h);
  return out;
}

}  // namespace ibrar::models
