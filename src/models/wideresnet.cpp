#include "models/wideresnet.hpp"

#include <utility>

#include "autograd/var.hpp"
#include "models/plan.hpp"

namespace ibrar::models {

PreActBlock::PreActBlock(std::int64_t in_c, std::int64_t out_c,
                         std::int64_t stride, Rng& rng) {
  bn1_ = std::make_shared<nn::BatchNorm2d>(in_c, /*relu=*/true);
  conv1_ = std::make_shared<nn::Conv2d>(in_c, out_c, rng,
                                        Conv2dSpec{3, stride, 1}, false);
  bn2_ = std::make_shared<nn::BatchNorm2d>(out_c, /*relu=*/true);
  conv2_ = std::make_shared<nn::Conv2d>(out_c, out_c, rng, Conv2dSpec{3, 1, 1},
                                        false);
  register_module("bn1", bn1_);
  register_module("conv1", conv1_);
  register_module("bn2", bn2_);
  register_module("conv2", conv2_);
  if (stride != 1 || in_c != out_c) {
    proj_ = std::make_shared<nn::Conv2d>(in_c, out_c, rng,
                                         Conv2dSpec{1, stride, 0}, false);
    register_module("proj", proj_);
  }
}

ag::Var PreActBlock::run(const ag::Var& x, nn::Mode mode) const {
  // bn1_ and bn2_ carry their ReLUs.
  ag::Var pre = bn1_->forward(x, mode);
  ag::Var h = conv1_->forward(pre, mode);
  h = conv2_->forward(bn2_->forward(h, mode), mode);
  // WRN applies the projection to the pre-activated input.
  ag::Var skip = proj_ ? proj_->forward(pre, mode) : x;
  return ag::add(h, skip);
}

void PreActBlock::lower(InferencePlan& plan) const {
  // The block input stays in slot 0 for an identity skip. Pre-activation
  // order: BN runs before each conv, so the convs carry no BN epilogue and
  // no relu (WRN blocks end on the plain sum).
  plan.bn_relu(*bn1_, {.out = 1});  // pre
  plan.conv(*conv1_, nullptr, /*relu=*/false, {.in = 1, .out = 2});
  plan.bn_relu(*bn2_, {.in = 2, .out = 2});
  int skip = 0;
  if (proj_) {  // WRN projects the pre-activated input
    plan.conv(*proj_, nullptr, /*relu=*/false, {.in = 1, .out = 3});
    skip = 3;
  }
  plan.conv(*conv2_, nullptr, /*relu=*/false, {.in = 2, .skip = skip});
}

MiniWRN::MiniWRN(const WRNConfig& cfg, Rng& rng) : cfg_(cfg) {
  widths_ = {cfg_.base_width * cfg_.widen, cfg_.base_width * cfg_.widen * 2,
             cfg_.base_width * cfg_.widen * 4};
  stem_ = std::make_shared<nn::Conv2d>(cfg_.in_channels, cfg_.base_width, rng,
                                       Conv2dSpec{3, 1, 1}, false);
  register_module("stem", stem_);

  std::int64_t in_c = cfg_.base_width;
  for (std::size_t g = 0; g < 3; ++g) {
    auto group = std::make_shared<nn::Sequential>();
    const std::int64_t out_c = widths_[g];
    const std::int64_t stride0 = g == 0 ? 1 : 2;  // 16 -> 16 -> 8 -> 4
    std::vector<std::shared_ptr<PreActBlock>> typed;
    for (std::int64_t b = 0; b < cfg_.blocks_per_group; ++b) {
      auto block = std::make_shared<PreActBlock>(b == 0 ? in_c : out_c, out_c,
                                                 b == 0 ? stride0 : 1, rng);
      typed.push_back(block);
      group->push_back(std::move(block));
    }
    register_module("group" + std::to_string(g + 1), group);
    groups_.push_back(std::move(group));
    group_blocks_.push_back(std::move(typed));
    in_c = out_c;
  }

  final_bn_ = std::make_shared<nn::BatchNorm2d>(widths_.back(), /*relu=*/true);
  head_ = std::make_shared<nn::Linear>(widths_.back(), cfg_.num_classes, rng);
  register_module("final_bn", final_bn_);
  register_module("head", head_);
  tap_names_ = {"group1", "group2", "group3", "gap"};
}

TapsOutput MiniWRN::run_with_taps(const ag::Var& x, nn::Mode mode) const {
  TapsOutput out;
  ag::Var h = stem_->forward(x, mode);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    h = groups_[g]->forward(h, mode);
    if (g == 2) {
      h = final_bn_->forward(h, mode);  // BN + ReLU
      h = apply_channel_mask(h);
    }
    out.taps.push_back(h);
  }
  h = noise_->forward(ag::global_avg_pool(h), mode);
  out.taps.push_back(h);
  out.logits = head_->forward(h, mode);
  return out;
}

InferencePlan MiniWRN::lower() const {
  InferencePlan plan;
  plan.conv(*stem_, nullptr, /*relu=*/false);
  for (std::size_t g = 0; g < group_blocks_.size(); ++g) {
    for (const auto& block : group_blocks_[g]) block->lower(plan);
    if (g == 2) {
      plan.bn_relu(*final_bn_);
      plan.mask(*this);
    }
    plan.tap();
  }
  plan.global_avg_pool();
  plan.tap();
  plan.linear(*head_, /*relu=*/false);
  return plan;
}

}  // namespace ibrar::models
