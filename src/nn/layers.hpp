#pragma once
// Concrete layers: Linear, Conv2d, BatchNorm2d, ReLU, MaxPool2d, Dropout,
// Flatten, Sequential.

#include <memory>
#include <vector>

#include "nn/module.hpp"
#include "tensor/conv.hpp"
#include "tensor/conv_eval.hpp"
#include "util/rng.hpp"

namespace ibrar::nn {

/// Fully connected layer: y = x W + b with W of shape (in, out).
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);
  ag::Var forward(const ag::Var& x) override;
  ag::Var eval_forward(const ag::Var& x) const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  std::int64_t in_;
  std::int64_t out_;
  ag::Var weight_;
  ag::Var bias_;
};

/// 2-D convolution (NCHW), square kernel.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, Rng& rng,
         Conv2dSpec spec = {}, bool bias = true);
  ag::Var forward(const ag::Var& x) override;
  ag::Var eval_forward(const ag::Var& x) const override;

  std::int64_t in_channels() const { return in_; }
  std::int64_t out_channels() const { return out_; }
  const Conv2dSpec& spec() const { return spec_; }

  /// Frozen views for the fused eval prepack (tensor/conv_eval.hpp).
  const Tensor& weight_value() const { return weight_.value(); }
  bool has_bias() const { return bias_.defined(); }
  const Tensor& bias_value() const { return bias_.value(); }

 private:
  std::int64_t in_;
  std::int64_t out_;
  Conv2dSpec spec_;
  ag::Var weight_;
  ag::Var bias_;
};

/// Per-channel batch normalization over NCHW.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f,
                       float eps = 1e-5f);
  ag::Var forward(const ag::Var& x) override;
  /// Reads the frozen running stats; never writes them (batch_norm2d_eval).
  ag::Var eval_forward(const ag::Var& x) const override;

  /// Running stats folded for the fused eval path (tensor/conv_eval.hpp):
  /// the same {mean, 1/sqrt(var+eps), gamma, beta} batch_norm2d_apply uses.
  FoldedBn folded() const;

 private:
  std::int64_t channels_;
  float momentum_;
  float eps_;
  ag::Var gamma_;
  ag::Var beta_;
  Tensor running_mean_;
  Tensor running_var_;
};

class ReLU : public Module {
 public:
  ag::Var forward(const ag::Var& x) override { return ag::relu(x); }
  ag::Var eval_forward(const ag::Var& x) const override { return ag::relu(x); }
};

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::int64_t kernel = 2, std::int64_t stride = -1)
      : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {}
  ag::Var forward(const ag::Var& x) override {
    return ag::maxpool2d(x, kernel_, stride_);
  }
  ag::Var eval_forward(const ag::Var& x) const override {
    return ag::maxpool2d(x, kernel_, stride_);
  }

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
};

/// Inverted dropout (identity in eval mode).
class Dropout : public Module {
 public:
  explicit Dropout(float p, std::uint64_t seed = 0xd0u);
  ag::Var forward(const ag::Var& x) override;
  /// Eval-mode dropout is the identity — no mask draw, rng untouched.
  ag::Var eval_forward(const ag::Var& x) const override { return x; }

 private:
  float p_;
  Rng rng_;
};

/// (N, C, H, W) -> (N, C*H*W).
class Flatten : public Module {
 public:
  ag::Var forward(const ag::Var& x) override { return ag::flatten2d(x); }
  ag::Var eval_forward(const ag::Var& x) const override {
    return ag::flatten2d(x);
  }
};

/// Ordered container applying children in sequence.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> mods);

  void push_back(ModulePtr m);
  ag::Var forward(const ag::Var& x) override;
  ag::Var eval_forward(const ag::Var& x) const override;

  std::size_t size() const { return seq_.size(); }
  Module& at(std::size_t i) { return *seq_.at(i); }

 private:
  std::vector<ModulePtr> seq_;
};

}  // namespace ibrar::nn
