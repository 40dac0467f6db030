#pragma once
// MiniResNet: a width/depth-reduced ResNet-18 topology (stem + 4 residual
// stages + global average pool + linear head) for 16x16 RGB inputs.

#include "models/classifier.hpp"

namespace ibrar::models {

struct ResNetConfig {
  std::vector<std::int64_t> channels = {12, 16, 24, 32};  ///< per stage
  std::int64_t blocks_per_stage = 1;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;
  std::int64_t in_channels = 3;
};

/// Post-activation basic residual block: conv-bn-relu-conv-bn (+skip) -relu.
class BasicBlock : public nn::Module {
 public:
  BasicBlock(std::int64_t in_c, std::int64_t out_c, std::int64_t stride, Rng& rng);

  /// Lower into `plan`, reading and writing slot 0: conv1+bn1+relu,
  /// proj+proj_bn, then conv2+bn2 with the skip add and relu fused.
  void lower(InferencePlan& plan) const;

 protected:
  ag::Var run(const ag::Var& x, nn::Mode mode) const override;

 private:
  std::shared_ptr<nn::Conv2d> conv1_;
  std::shared_ptr<nn::BatchNorm2d> bn1_;
  std::shared_ptr<nn::Conv2d> conv2_;
  std::shared_ptr<nn::BatchNorm2d> bn2_;
  std::shared_ptr<nn::Conv2d> proj_;       ///< 1x1 shortcut when shape changes
  std::shared_ptr<nn::BatchNorm2d> proj_bn_;
};

class MiniResNet : public TapClassifier {
 public:
  MiniResNet(const ResNetConfig& cfg, Rng& rng);

  InferencePlan lower() const override;
  const std::vector<std::string>& tap_names() const override { return tap_names_; }
  std::int64_t last_conv_channels() const override { return cfg_.channels.back(); }
  std::int64_t num_classes() const override { return cfg_.num_classes; }
  std::size_t last_conv_tap_index() const override { return 3; }

  const ResNetConfig& config() const { return cfg_; }

 protected:
  TapsOutput run_with_taps(const ag::Var& x, nn::Mode mode) const override;

 private:
  ResNetConfig cfg_;
  std::shared_ptr<nn::Conv2d> stem_;
  std::shared_ptr<nn::BatchNorm2d> stem_bn_;
  std::vector<std::shared_ptr<nn::Sequential>> stages_;
  std::vector<std::vector<std::shared_ptr<BasicBlock>>> stage_blocks_;
  std::shared_ptr<nn::Linear> head_;
  std::vector<std::string> tap_names_;
};

}  // namespace ibrar::models
