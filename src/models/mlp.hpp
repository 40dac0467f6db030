#pragma once
// Small MLP classifier — used by unit/integration tests and the quickstart
// example where a convolutional model would be overkill.

#include "models/classifier.hpp"

namespace ibrar::models {

struct MLPConfig {
  std::int64_t in_features = 48;
  std::vector<std::int64_t> hidden = {32, 32};
  std::int64_t num_classes = 10;
};

class MLP : public TapClassifier {
 public:
  MLP(const MLPConfig& cfg, Rng& rng);

  const std::vector<std::string>& tap_names() const override { return tap_names_; }
  /// MLP has no conv layer; the mask concept maps onto the last hidden layer.
  std::int64_t last_conv_channels() const override { return cfg_.hidden.back(); }
  std::int64_t num_classes() const override { return cfg_.num_classes; }
  std::size_t last_conv_tap_index() const override { return tap_names_.size() - 1; }
  /// Linear(+ReLU) steps, the mask after the last hidden layer, and a tap
  /// after each hidden layer, in run_with_taps' order.
  InferencePlan lower() const override;

 protected:
  TapsOutput run_with_taps(const ag::Var& x, nn::Mode mode) const override;

 private:
  MLPConfig cfg_;
  std::vector<std::shared_ptr<nn::Linear>> layers_;
  std::shared_ptr<nn::Linear> head_;
  std::vector<std::string> tap_names_;
};

}  // namespace ibrar::models
