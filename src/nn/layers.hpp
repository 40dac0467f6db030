#pragma once
// Concrete layers: Linear, Conv2d, BatchNorm2d (with or without the ReLU that
// follows it), ReLU, MaxPool2d, Dropout, GaussianNoise, Sequential. Only
// BatchNorm2d, Dropout and GaussianNoise have a training variant
// (train_forward); the rest run the same ops in both modes.

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

  /// Frozen views for the inference plan's prepack (models/plan.hpp).
  const Tensor& weight_value() const { return weight_.value(); }
  bool has_bias() const { return bias_.defined(); }
  const Tensor& bias_value() const { return bias_.value(); }

 protected:
  ag::Var run(const ag::Var& x, Mode) const override;

 private:
  ag::Var weight_;
  ag::Var bias_;
};

/// 2-D convolution (NCHW), square kernel.
class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, Rng& rng,
         Conv2dSpec spec = {}, bool bias = true);

  const Conv2dSpec& spec() const { return spec_; }

  /// Frozen views for the fused eval prepack (tensor/conv_eval.hpp).
  const Tensor& weight_value() const { return weight_.value(); }
  bool has_bias() const { return bias_.defined(); }
  const Tensor& bias_value() const { return bias_.value(); }

 protected:
  ag::Var run(const ag::Var& x, Mode) const override;

 private:
  Conv2dSpec spec_;
  ag::Var weight_;
  ag::Var bias_;
};

/// Per-channel batch normalization over NCHW, followed by ReLU when built
/// with relu = true. The fused layer records one autograd node
/// (ag::batch_norm2d with relu) with the bits of a BatchNorm2d followed by
/// a ReLU, and keeps the same parameters and buffers under the same names.
class BatchNorm2d : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, bool relu = false,
                       float momentum = 0.1f, float eps = 1e-5f);
  /// A momentum in relu's place, BatchNorm2d(c, 0.05f), fails to compile
  /// rather than converting to relu = true at the default momentum.
  BatchNorm2d(std::int64_t channels, float momentum, float eps = 1e-5f) =
      delete;

  /// Running stats folded for the fused eval path (tensor/conv_eval.hpp):
  /// the same fold batch_norm2d_eval makes per call.
  FoldedBn folded() const;

 protected:
  /// Reads the frozen running stats; never writes them (batch_norm2d_eval).
  ag::Var run(const ag::Var& x, Mode) const override;
  /// Normalizes by the batch moments and updates the running stats.
  ag::Var train_forward(const ag::Var& x) override;

 private:
  bool relu_;
  float momentum_;
  float eps_;
  ag::Var gamma_;
  ag::Var beta_;
  Tensor running_mean_;
  Tensor running_var_;
};

class ReLU : public Module {
 protected:
  ag::Var run(const ag::Var& x, Mode) const override { return ag::relu(x); }
};

class MaxPool2d : public Module {
 public:
  explicit MaxPool2d(std::int64_t kernel = 2, std::int64_t stride = -1)
      : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {}

 protected:
  ag::Var run(const ag::Var& x, Mode) const override {
    return ag::maxpool2d(x, kernel_, stride_);
  }

 private:
  std::int64_t kernel_;
  std::int64_t stride_;
};

/// Inverted dropout (identity in eval mode: no mask draw, rng untouched).
class Dropout : public Module {
 public:
  explicit Dropout(float p, std::uint64_t seed = 0xd0u);

 protected:
  ag::Var run(const ag::Var& x, Mode) const override { return x; }
  ag::Var train_forward(const ag::Var& x) override;

 private:
  float p_;
  Rng rng_;
};

/// Additive N(0, stddev^2) noise in training mode, the stochastic encoding
/// of the VIB baseline; the identity in eval mode or at stddev 0.
class GaussianNoise : public Module {
 public:
  GaussianNoise(float stddev, std::uint64_t seed);

  float stddev() const { return stddev_; }
  void set_stddev(float stddev) { stddev_ = stddev; }

 protected:
  ag::Var run(const ag::Var& x, Mode) const override { return x; }
  ag::Var train_forward(const ag::Var& x) override;

 private:
  float stddev_;
  Rng rng_;
};

/// Ordered container applying children in sequence.
class Sequential : public Module {
 public:
  /// Append `m` as the child named by its index.
  void push_back(ModulePtr m);
  /// Append `m` as the child named `name`, the key segment its parameters
  /// and buffers are saved under.
  void push_back(std::string name, ModulePtr m);
  std::size_t size() const { return children_.size(); }

 protected:
  ag::Var run(const ag::Var& x, Mode mode) const override;
};

}  // namespace ibrar::nn
