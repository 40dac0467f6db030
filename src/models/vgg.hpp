#pragma once
// MiniVGG: a width-reduced VGG16 topology for 16x16 RGB inputs.
//
// Preserves the structural facts IB-RAR depends on: five convolutional blocks
// followed by two hidden fully-connected layers and a classifier head, with
// the channel mask applied to conv block 5's output. Pooling after blocks
// 1-3 keeps block 4/5 working on 2x2 maps (the paper's 32x32 inputs pool
// after every block).

#include "models/classifier.hpp"

namespace ibrar::models {

struct VGGConfig {
  std::vector<std::int64_t> channels = {8, 12, 16, 24, 24};  ///< per block
  std::int64_t convs_per_block = 2;
  std::int64_t fc_dim = 64;
  std::int64_t num_classes = 10;
  std::int64_t image_size = 16;
  std::int64_t in_channels = 3;
  float dropout = 0.3f;
  bool batch_norm = true;
};

class MiniVGG : public TapClassifier {
 public:
  MiniVGG(const VGGConfig& cfg, Rng& rng);

  InferencePlan lower() const override;
  const std::vector<std::string>& tap_names() const override { return tap_names_; }
  std::int64_t last_conv_channels() const override { return cfg_.channels.back(); }
  std::int64_t num_classes() const override { return cfg_.num_classes; }
  std::size_t last_conv_tap_index() const override { return 4; }

  const VGGConfig& config() const { return cfg_; }

 protected:
  TapsOutput run_with_taps(const ag::Var& x, nn::Mode mode) const override;

 private:
  VGGConfig cfg_;
  std::vector<std::shared_ptr<nn::Sequential>> blocks_;
  std::vector<std::vector<std::shared_ptr<nn::Conv2d>>> conv_layers_;
  std::vector<std::vector<std::shared_ptr<nn::BatchNorm2d>>> bn_layers_;
  std::vector<char> pool_after_;
  std::shared_ptr<nn::Linear> fc1_;
  std::shared_ptr<nn::Linear> fc2_;
  std::shared_ptr<nn::Linear> head_;
  std::shared_ptr<nn::Dropout> drop1_;
  std::shared_ptr<nn::Dropout> drop2_;
  std::vector<std::string> tap_names_;
};

}  // namespace ibrar::models
