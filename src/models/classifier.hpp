#pragma once
// Classifier base with "taps": intermediate activations exposed per forward
// pass so the IB-RAR MI loss can regularize chosen hidden layers, plus the
// feature-channel mask hook (paper Eq. 3) applied to the last conv output.

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
  /// Forward pass collecting the tapped intermediate activations.
  virtual TapsOutput forward_with_taps(const ag::Var& x) = 0;

  /// Strictly-const eval-semantics tapped forward: no train/eval mode reads
  /// or flips, no RNG draws (dropout identity, no VIB noise), batch norm on
  /// frozen running stats. Bit-identical to forward_with_taps() on a model in
  /// eval mode, and safe to call concurrently from any number of threads on a
  /// shared immutable model — the contract the serving ModelSnapshot and the
  /// telemetry tap capture rely on. Graph-building still follows the ambient
  /// grad mode, so gradient attacks can differentiate through it.
  virtual TapsOutput eval_forward_with_taps(const ag::Var& x) const = 0;

  /// The eval forward lowered, once per ModelSnapshot publish, into an
  /// InferencePlan (models/plan.hpp) with the same bits. The default, for
  /// dense models, is an empty plan: the snapshot then runs
  /// eval_forward_with_taps itself.
  virtual InferencePlan lower() const;

  /// Names of tap points, e.g. {"conv_block1", ..., "fc1", "fc2"}.
  virtual const std::vector<std::string>& tap_names() const = 0;

  /// Channel count of the last conv layer (mask length).
  virtual std::int64_t last_conv_channels() const = 0;

  virtual std::int64_t num_classes() const = 0;

  ag::Var forward(const ag::Var& x) override {
    return forward_with_taps(x).logits;
  }

  ag::Var eval_forward(const ag::Var& x) const override {
    return eval_forward_with_taps(x).logits;
  }

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
  void set_penultimate_noise(float stddev) { noise_std_ = stddev; }
  float penultimate_noise() const { return noise_std_; }

 protected:
  /// Multiply an (N,C,H,W) feature map by the installed mask (identity when
  /// no mask is set).
  ag::Var apply_channel_mask(const ag::Var& feat) const;

  /// Add the VIB reparameterization noise in training mode (identity else).
  ag::Var maybe_noise(const ag::Var& h);

  Tensor mask_{Shape{0}};  ///< (C) of 0/1; numel 0 = disabled
  float noise_std_ = 0.0f;
  Rng noise_rng_{0x71bu};
};

using TapClassifierPtr = std::shared_ptr<TapClassifier>;

}  // namespace ibrar::models
