#pragma once
// MiniWRN: width-reduced WideResNet-28-10 topology — pre-activation residual
// blocks in three groups with a widening factor, BN-ReLU before the head.

#include "models/classifier.hpp"

namespace ibrar::models {

struct WRNConfig {
  std::int64_t base_width = 8;      ///< group widths = base * widen * {1,2,4}
  std::int64_t widen = 2;
  std::int64_t blocks_per_group = 1;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;
  std::int64_t in_channels = 3;
};

/// Pre-activation residual block: BN-ReLU-conv-BN-ReLU-conv (+skip).
class PreActBlock : public nn::Module {
 public:
  PreActBlock(std::int64_t in_c, std::int64_t out_c, std::int64_t stride, Rng& rng);

  /// Lower into `plan`, reading and writing slot 0: the pre-activation BNs
  /// become one-pass BN+ReLU steps, conv2 fuses the residual add.
  void lower(InferencePlan& plan) const;

 protected:
  ag::Var run(const ag::Var& x, nn::Mode mode) const override;

 private:
  std::shared_ptr<nn::BatchNorm2d> bn1_;
  std::shared_ptr<nn::Conv2d> conv1_;
  std::shared_ptr<nn::BatchNorm2d> bn2_;
  std::shared_ptr<nn::Conv2d> conv2_;
  std::shared_ptr<nn::Conv2d> proj_;
};

class MiniWRN : public TapClassifier {
 public:
  MiniWRN(const WRNConfig& cfg, Rng& rng);

  InferencePlan lower() const override;
  const std::vector<std::string>& tap_names() const override { return tap_names_; }
  std::int64_t last_conv_channels() const override { return widths_.back(); }
  std::int64_t num_classes() const override { return cfg_.num_classes; }
  std::size_t last_conv_tap_index() const override { return 2; }

 protected:
  TapsOutput run_with_taps(const ag::Var& x, nn::Mode mode) const override;

 private:
  WRNConfig cfg_;
  std::vector<std::int64_t> widths_;
  std::shared_ptr<nn::Conv2d> stem_;
  std::vector<std::shared_ptr<nn::Sequential>> groups_;
  std::vector<std::vector<std::shared_ptr<PreActBlock>>> group_blocks_;
  std::shared_ptr<nn::BatchNorm2d> final_bn_;
  std::shared_ptr<nn::Linear> head_;
  std::vector<std::string> tap_names_;
};

}  // namespace ibrar::models
