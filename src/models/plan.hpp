#pragma once
// InferencePlan: the one inference executor. TapClassifier::lower() emits a
// classifier once, at snapshot publish, as a flat list of tensor steps:
// prepacked convs (tensor/conv_eval.hpp) whose epilogue applies bias, folded
// BN, the residual skip and ReLU; BN+ReLU; maxpool; global average pool; the
// Eq. 3 channel mask; linear layers whose weights are packed once as
// gemm_prepacked's B panels (tensor/gemm_packed.hpp), so a batch packs only
// its own rows, then bias and ReLU by the layer-by-layer kernels; and tap
// markers. Values live in numbered slots: slot 0 is the running activation
// (a copy of the input when run starts), and residual blocks park a branch
// in higher slots. run() reproduces the model's eval_forward_with_taps
// logits and taps memcmp-exactly at any batch size (tests/test_conv_eval.cpp
// gates it).

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "models/classifier.hpp"

namespace ibrar::models {

/// Slots a step reads and writes; `skip`, when set, is added in the conv
/// epilogue (after BN, before ReLU).
struct StepIo {
  int in = 0;
  int out = 0;
  int skip = -1;
};

class InferencePlan {
 public:
  /// conv(+bias)(+bn)(+skip)(+relu), weights prepacked here.
  void conv(const nn::Conv2d& layer, const nn::BatchNorm2d* bn, bool relu,
            StepIo io = {});
  void bn_relu(const nn::BatchNorm2d& bn, StepIo io = {});
  // The remaining steps read and write slot 0.
  void maxpool(std::int64_t kernel);
  void global_avg_pool();
  /// `model`'s Eq. 3 channel mask on a (N, C) or (N, C, H, W) activation;
  /// adds nothing when none is installed.
  void mask(const TapClassifier& model);
  /// Flatten to (N, -1), then `layer` (+ReLU), its weight prepacked here and
  /// counted in serve.snapshot_bytes while the plan lives.
  void linear(const nn::Linear& layer, bool relu);
  void tap() { steps_.emplace_back(); }

  bool empty() const { return steps_.empty(); }

  /// Run on x (N,C,H,W) under a NoGradGuard; slot 0 ends as the logits.
  TapsOutput run(const Tensor& x) const;

 private:
  using Fn = std::function<Tensor(const Tensor& x, const Tensor* skip)>;
  struct Step {
    StepIo io;
    Fn fn;  ///< empty: a tap of slot io.in
  };

  void add(StepIo io, Fn fn);

  std::vector<Step> steps_;
  int slots_ = 1;
};

}  // namespace ibrar::models
