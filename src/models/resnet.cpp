#include "models/resnet.hpp"

#include <stdexcept>
#include <utility>

#include "autograd/var.hpp"
#include "models/plan.hpp"

namespace ibrar::models {

BasicBlock::BasicBlock(std::int64_t in_c, std::int64_t out_c, std::int64_t stride,
                       Rng& rng) {
  conv1_ = std::make_shared<nn::Conv2d>(in_c, out_c, rng,
                                        Conv2dSpec{3, stride, 1}, false);
  bn1_ = std::make_shared<nn::BatchNorm2d>(out_c, /*relu=*/true);
  conv2_ = std::make_shared<nn::Conv2d>(out_c, out_c, rng, Conv2dSpec{3, 1, 1},
                                        false);
  bn2_ = std::make_shared<nn::BatchNorm2d>(out_c);
  register_module("conv1", conv1_);
  register_module("bn1", bn1_);
  register_module("conv2", conv2_);
  register_module("bn2", bn2_);
  if (stride != 1 || in_c != out_c) {
    proj_ = std::make_shared<nn::Conv2d>(in_c, out_c, rng,
                                         Conv2dSpec{1, stride, 0}, false);
    proj_bn_ = std::make_shared<nn::BatchNorm2d>(out_c);
    register_module("proj", proj_);
    register_module("proj_bn", proj_bn_);
  }
}

ag::Var BasicBlock::run(const ag::Var& x, nn::Mode mode) const {
  ag::Var h = bn1_->forward(conv1_->forward(x, mode), mode);  // BN + ReLU
  h = bn2_->forward(conv2_->forward(h, mode), mode);
  ag::Var skip =
      proj_ ? proj_bn_->forward(proj_->forward(x, mode), mode) : x;
  return ag::relu(ag::add(h, skip));
}

void BasicBlock::lower(InferencePlan& plan) const {
  // The block input stays in slot 0 for the skip; conv1 writes slot 1 and
  // the projection, when there is one, slot 2.
  plan.conv(*conv1_, bn1_.get(), /*relu=*/true, {.out = 1});
  int skip = 0;
  if (proj_) {
    plan.conv(*proj_, proj_bn_.get(), /*relu=*/false, {.out = 2});
    skip = 2;
  }
  // relu(add(bn2(conv2(h)), skip)) in the reference element order.
  plan.conv(*conv2_, bn2_.get(), /*relu=*/true, {.in = 1, .skip = skip});
}

MiniResNet::MiniResNet(const ResNetConfig& cfg, Rng& rng) : cfg_(cfg) {
  if (cfg_.channels.size() != 4) {
    throw std::invalid_argument("MiniResNet: exactly 4 stages");
  }
  stem_ = std::make_shared<nn::Conv2d>(cfg_.in_channels, cfg_.channels[0], rng,
                                       Conv2dSpec{3, 1, 1}, false);
  stem_bn_ = std::make_shared<nn::BatchNorm2d>(cfg_.channels[0],
                                               /*relu=*/true);
  register_module("stem", stem_);
  register_module("stem_bn", stem_bn_);

  std::int64_t in_c = cfg_.channels[0];
  for (std::size_t s = 0; s < 4; ++s) {
    auto stage = std::make_shared<nn::Sequential>();
    const std::int64_t out_c = cfg_.channels[s];
    // Downsample at stages 2-4 (16 -> 8 -> 4 -> 2), as ResNet-18 does from
    // its second stage onward.
    const std::int64_t stride0 = s == 0 ? 1 : 2;
    std::vector<std::shared_ptr<BasicBlock>> typed;
    for (std::int64_t b = 0; b < cfg_.blocks_per_stage; ++b) {
      auto block = std::make_shared<BasicBlock>(b == 0 ? in_c : out_c, out_c,
                                                b == 0 ? stride0 : 1, rng);
      typed.push_back(block);
      stage->push_back(std::move(block));
    }
    register_module("stage" + std::to_string(s + 1), stage);
    stages_.push_back(std::move(stage));
    stage_blocks_.push_back(std::move(typed));
    in_c = out_c;
  }

  head_ = std::make_shared<nn::Linear>(cfg_.channels.back(), cfg_.num_classes, rng);
  register_module("head", head_);
  tap_names_ = {"stage1", "stage2", "stage3", "stage4", "gap"};
}

TapsOutput MiniResNet::run_with_taps(const ag::Var& x,
                                      nn::Mode mode) const {
  TapsOutput out;
  ag::Var h = stem_bn_->forward(stem_->forward(x, mode), mode);  // BN + ReLU
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    h = stages_[s]->forward(h, mode);
    if (s == 3) h = apply_channel_mask(h);
    out.taps.push_back(h);
  }
  h = noise_->forward(ag::global_avg_pool(h), mode);
  out.taps.push_back(h);  // gap features
  out.logits = head_->forward(h, mode);
  return out;
}

InferencePlan MiniResNet::lower() const {
  InferencePlan plan;
  plan.conv(*stem_, stem_bn_.get(), /*relu=*/true);
  for (std::size_t s = 0; s < stage_blocks_.size(); ++s) {
    for (const auto& block : stage_blocks_[s]) block->lower(plan);
    if (s == 3) plan.mask(*this);
    plan.tap();
  }
  plan.global_avg_pool();
  plan.tap();  // gap features
  plan.linear(*head_, /*relu=*/false);
  return plan;
}

}  // namespace ibrar::models
