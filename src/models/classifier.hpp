#pragma once
// Classifier base with "taps": intermediate activations exposed per forward
// pass so the IB-RAR MI loss can regularize chosen hidden layers, plus the
// feature-channel mask hook (paper Eq. 3) applied to the last conv output.
//
// Each model writes its tapped forward once, as run_with_taps(x, mode), the
// tapped form of nn::Module's one body (nn/module.hpp). forward_with_taps(x)
// runs it in the current mode and eval_forward_with_taps(x) always in
// Mode::kEval; the plain forward entries take its logits.

#include <string>
#include <vector>

#include "nn/layers.hpp"

namespace ibrar::models {

class InferencePlan;

/// Output of a tapped forward pass: final logits plus one Var per tap point
/// (tap order matches tap_names()).
struct TapsOutput {
  ag::Var logits;
  std::vector<ag::Var> taps;
};

/// Image classifier exposing intermediate representations and a per-channel
/// mask on the last convolutional feature map.
class TapClassifier : public nn::Module {
 public:
  /// Forward pass in the current mode, collecting the tapped activations.
  TapsOutput forward_with_taps(const ag::Var& x) {
    return run_with_taps(x, training() ? nn::Mode::kTrain : nn::Mode::kEval);
  }

  /// Strictly-const eval-mode tapped forward: no train/eval mode reads or
  /// flips, no RNG draws (dropout identity, no VIB noise), batch norm on
  /// frozen running stats. Bit-identical to forward_with_taps() on a model in
  /// eval mode, and safe to call concurrently from any number of threads on a
  /// shared immutable model — the contract the serving ModelSnapshot and the
  /// telemetry tap capture rely on. Graph-building still follows the ambient
  /// grad mode, so gradient attacks can differentiate through it.
  TapsOutput eval_forward_with_taps(const ag::Var& x) const {
    return run_with_taps(x, nn::Mode::kEval);
  }

  /// The eval forward lowered, once per ModelSnapshot publish, into an
  /// InferencePlan (models/plan.hpp) with the same bits. Every library model
  /// overrides it; the default is an empty plan, and the snapshot then runs
  /// eval_forward_with_taps itself.
  virtual InferencePlan lower() const;

  /// Names of tap points, e.g. {"conv_block1", ..., "fc1", "fc2"}.
  virtual const std::vector<std::string>& tap_names() const = 0;

  /// Channel count of the last conv layer (mask length).
  virtual std::int64_t last_conv_channels() const = 0;

  virtual std::int64_t num_classes() const = 0;

  /// Install the Eq. (3) binary mask over last-conv channels (empty = off).
  void set_channel_mask(Tensor mask);
  void clear_channel_mask() { mask_ = Tensor({0}); }
  bool has_channel_mask() const { return mask_.numel() > 0; }
  const Tensor& channel_mask() const { return mask_; }

  /// Index of the tap that the mask applies to (the last conv block).
  virtual std::size_t last_conv_tap_index() const = 0;

  /// Gaussian noise std injected on the penultimate representation during
  /// training — the stochastic-encoding half of the VIB baseline (the KL
  /// penalty is added by the VIB objective in src/train/vib.*).
  void set_penultimate_noise(float stddev) { noise_->set_stddev(stddev); }
  float penultimate_noise() const { return noise_->stddev(); }

 protected:
  /// The model's one tapped forward body, for both modes (see nn::Module's
  /// run). It passes `mode` to every child and to noise_.
  virtual TapsOutput run_with_taps(const ag::Var& x, nn::Mode mode) const = 0;

  ag::Var run(const ag::Var& x, nn::Mode mode) const final {
    return run_with_taps(x, mode).logits;
  }

  /// Multiply a (N,C) or (N,C,H,W) feature by the installed mask (identity
  /// when no mask is set).
  ag::Var apply_channel_mask(const ag::Var& feat) const;

  /// The VIB noise on the penultimate representation (off at stddev 0).
  std::shared_ptr<nn::GaussianNoise> noise_ =
      std::make_shared<nn::GaussianNoise>(0.0f, 0x71bu);

 private:
  Tensor mask_{Shape{0}};  ///< (C) of 0/1; numel 0 = disabled
};

using TapClassifierPtr = std::shared_ptr<TapClassifier>;

}  // namespace ibrar::models
