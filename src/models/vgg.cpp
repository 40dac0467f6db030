#include "models/vgg.hpp"

#include <stdexcept>
#include <utility>

#include "autograd/var.hpp"
#include "models/plan.hpp"

namespace ibrar::models {

void TapClassifier::set_channel_mask(Tensor mask) {
  if (mask.rank() != 1 || mask.numel() != last_conv_channels()) {
    throw std::invalid_argument("set_channel_mask: mask must be (C) with C = " +
                                std::to_string(last_conv_channels()));
  }
  mask_ = std::move(mask);
}

ag::Var TapClassifier::apply_channel_mask(const ag::Var& feat) const {
  if (!has_channel_mask()) return feat;
  Shape shape(feat.shape().size(), 1);  // (1, C) or (1, C, 1, 1)
  shape[1] = mask_.numel();
  return ag::mul(feat, ag::Var::constant(mask_.reshape(shape)));
}

MiniVGG::MiniVGG(const VGGConfig& cfg, Rng& rng) : cfg_(cfg) {
  if (cfg_.channels.size() != 5) {
    throw std::invalid_argument("MiniVGG: exactly 5 conv blocks");
  }
  std::int64_t in_c = cfg_.in_channels;
  std::int64_t spatial = cfg_.image_size;
  for (std::size_t b = 0; b < 5; ++b) {
    auto block = std::make_shared<nn::Sequential>();
    const std::int64_t out_c = cfg_.channels[b];
    std::vector<std::shared_ptr<nn::Conv2d>> convs;
    std::vector<std::shared_ptr<nn::BatchNorm2d>> bns;
    // Children keep the keys they had when every ReLU was a module of its
    // own: a batch norm with its ReLU fused in takes its index and the
    // ReLU's, so checkpoints load across the fusion.
    std::int64_t index = 0;
    auto add = [&](nn::ModulePtr m, std::int64_t indices) {
      block->push_back(std::to_string(index), std::move(m));
      index += indices;
    };
    for (std::int64_t k = 0; k < cfg_.convs_per_block; ++k) {
      auto conv = std::make_shared<nn::Conv2d>(k == 0 ? in_c : out_c, out_c,
                                               rng);
      convs.push_back(conv);
      add(std::move(conv), 1);
      if (cfg_.batch_norm) {
        auto bn = std::make_shared<nn::BatchNorm2d>(out_c, /*relu=*/true);
        bns.push_back(bn);
        add(std::move(bn), 2);
      } else {
        add(std::make_shared<nn::ReLU>(), 1);
      }
    }
    // Pool while spatial size allows it (blocks 1-3 at 16x16 input); VGG16
    // pools after every block at 32x32, which this mirrors proportionally.
    bool pool = false;
    if (b < 3 && spatial >= 4) {
      add(std::make_shared<nn::MaxPool2d>(2), 1);
      spatial /= 2;
      pool = true;
    }
    register_module("block" + std::to_string(b + 1), block);
    blocks_.push_back(std::move(block));
    conv_layers_.push_back(std::move(convs));
    bn_layers_.push_back(std::move(bns));
    pool_after_.push_back(pool ? 1 : 0);
    in_c = out_c;
  }

  const std::int64_t flat = cfg_.channels.back() * spatial * spatial;
  fc1_ = std::make_shared<nn::Linear>(flat, cfg_.fc_dim, rng);
  fc2_ = std::make_shared<nn::Linear>(cfg_.fc_dim, cfg_.fc_dim, rng);
  head_ = std::make_shared<nn::Linear>(cfg_.fc_dim, cfg_.num_classes, rng);
  drop1_ = std::make_shared<nn::Dropout>(cfg_.dropout, rng.engine()());
  drop2_ = std::make_shared<nn::Dropout>(cfg_.dropout, rng.engine()());
  register_module("fc1", fc1_);
  register_module("fc2", fc2_);
  register_module("head", head_);
  register_module("drop1", drop1_);
  register_module("drop2", drop2_);

  tap_names_ = {"conv_block1", "conv_block2", "conv_block3",
                "conv_block4", "conv_block5", "fc1", "fc2"};
}

TapsOutput MiniVGG::run_with_taps(const ag::Var& x, nn::Mode mode) const {
  TapsOutput out;
  ag::Var h = x;
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    h = blocks_[b]->forward(h, mode);
    if (b == 4) h = apply_channel_mask(h);  // Eq. (3): mask last conv output
    out.taps.push_back(h);
  }
  h = ag::flatten2d(h);
  h = drop1_->forward(ag::relu(fc1_->forward(h, mode)), mode);
  out.taps.push_back(h);  // fc1
  h = drop2_->forward(ag::relu(fc2_->forward(h, mode)), mode);
  h = noise_->forward(h, mode);
  out.taps.push_back(h);  // fc2
  out.logits = head_->forward(h, mode);
  return out;
}

InferencePlan MiniVGG::lower() const {
  InferencePlan plan;
  for (std::size_t b = 0; b < conv_layers_.size(); ++b) {
    for (std::size_t k = 0; k < conv_layers_[b].size(); ++k) {
      plan.conv(*conv_layers_[b][k],
                cfg_.batch_norm ? bn_layers_[b][k].get() : nullptr,
                /*relu=*/true);
    }
    if (pool_after_[b] != 0) plan.maxpool(2);
    if (b == 4) plan.mask(*this);
    plan.tap();
  }
  plan.linear(*fc1_, /*relu=*/true);
  plan.tap();
  plan.linear(*fc2_, /*relu=*/true);
  plan.tap();
  plan.linear(*head_, /*relu=*/false);
  return plan;
}

}  // namespace ibrar::models
