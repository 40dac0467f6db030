#include "models/plan.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "autograd/var.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/ops.hpp"

namespace ibrar::models {
namespace {

/// A Linear layer lowered: its (in, out) weight packed once as
/// gemm_prepacked's B panels, and its bias. The panel bytes count in the
/// serve.snapshot_bytes gauge while it lives; like ConvEvalPlan it is
/// neither copied nor moved, and its step holds it by pointer.
class LinearEvalPlan {
 public:
  LinearEvalPlan(const nn::Linear& layer, bool relu)
      : k_(layer.weight_value().dim(0)),
        n_(layer.weight_value().dim(1)),
        panels_(static_cast<std::size_t>(gemm_packed_b_floats(k_, n_))),
        relu_(relu) {
    gemm_pack_b(layer.weight_value().data().data(), GemmLayout::kRowMajor, k_,
                n_, panels_.data());
    if (layer.has_bias()) bias_ = layer.bias_value();
    account(+1.0);
  }
  ~LinearEvalPlan() { account(-1.0); }
  LinearEvalPlan(const LinearEvalPlan&) = delete;
  LinearEvalPlan& operator=(const LinearEvalPlan&) = delete;

  /// x (N, ...) read as (N, in) -> (N, out): the zeroed C ibrar::matmul
  /// starts from, then one pass over C with the per-element expressions of
  /// ag::add's bias and ag::relu, as nn::Linear's forward and the model's
  /// ReLU run them: v + b[j], then v > 0 ? v : 0.
  Tensor run(const Tensor& x) const {
    const std::int64_t m = x.dim(0);
    if (x.numel() != m * k_) {
      throw std::invalid_argument("InferencePlan::linear: " +
                                  shape_str(x.shape()) + " is not (N, " +
                                  std::to_string(k_) + ")");
    }
    Tensor y({m, n_});
    gemm_prepacked(x.data().data(), GemmLayout::kRowMajor, panels_.data(),
                   y.data().data(), m, k_, n_);
    // rank check, not numel: a default Tensor is a rank-0 scalar (numel 1).
    const float* b = bias_.rank() > 0 ? bias_.data().data() : nullptr;
    if (b == nullptr && !relu_) return y;
    float* c = y.data().data();
    for (std::int64_t i = 0; i < m; ++i, c += n_) {
      for (std::int64_t j = 0; j < n_; ++j) {
        float v = c[j];
        if (b != nullptr) v = v + b[j];
        if (relu_) v = v > 0.0f ? v : 0.0f;
        c[j] = v;
      }
    }
    return y;
  }

 private:
  void account(double sign) const {
    static obs::Gauge& gauge = obs::registry().gauge("serve.snapshot_bytes");
    gauge.add(sign * static_cast<double>(panels_.size() * sizeof(float)));
  }

  std::int64_t k_;  ///< in features
  std::int64_t n_;  ///< out features
  std::vector<float> panels_;
  Tensor bias_;  ///< (out) or empty
  bool relu_;
};

}  // namespace

InferencePlan TapClassifier::lower() const { return {}; }

void InferencePlan::add(StepIo io, Fn fn) {
  slots_ = std::max({slots_, io.in + 1, io.out + 1, io.skip + 1});
  steps_.push_back({io, std::move(fn)});
}

void InferencePlan::conv(const nn::Conv2d& layer, const nn::BatchNorm2d* bn,
                         bool relu, StepIo io) {
  auto plan = std::make_shared<const ConvEvalPlan>(
      layer.weight_value(), layer.has_bias() ? &layer.bias_value() : nullptr,
      layer.spec(), bn != nullptr ? bn->folded() : FoldedBn{}, relu);
  add(io, [plan](const Tensor& x, const Tensor* skip) {
    return plan->run(x, skip);
  });
}

void InferencePlan::bn_relu(const nn::BatchNorm2d& bn, StepIo io) {
  add(io, [fold = bn.folded()](const Tensor& x, const Tensor*) {
    return batch_norm_relu(x, fold, /*relu=*/true);
  });
}

void InferencePlan::maxpool(std::int64_t kernel) {
  add({}, [kernel](const Tensor& x, const Tensor*) {
    // The serving pool's own site, apart from training's calls of the kernel.
    static obs::ProfileSite& prof = obs::profile_site("tensor/maxpool2d_eval");
    obs::ProfileScope prof_scope(prof);
    return ibrar::maxpool2d(x, kernel, kernel);
  });
}

void InferencePlan::global_avg_pool() {
  add({}, [](const Tensor& x, const Tensor*) {
    return ibrar::global_avg_pool(x);
  });
}

void InferencePlan::mask(const TapClassifier& model) {
  // apply_channel_mask's "installed" test, and its mask shape: the
  // activation's rank with C at dim 1, (1, C) or (1, C, 1, 1).
  if (!model.has_channel_mask()) return;
  add({}, [mask = model.channel_mask()](const Tensor& x, const Tensor*) {
    Shape shape(x.shape().size(), 1);
    shape[1] = mask.numel();
    return mul(x, mask.reshape(std::move(shape)));
  });
}

void InferencePlan::linear(const nn::Linear& layer, bool relu) {
  auto plan = std::make_shared<const LinearEvalPlan>(layer, relu);
  add({}, [plan](const Tensor& x, const Tensor*) { return plan->run(x); });
}

TapsOutput InferencePlan::run(const Tensor& x) const {
  ag::NoGradGuard ng;
  std::vector<Tensor> v(static_cast<std::size_t>(slots_));
  v[0] = x;
  TapsOutput out;
  for (const Step& s : steps_) {
    const Tensor& in = v[static_cast<std::size_t>(s.io.in)];
    if (!s.fn) {
      out.taps.push_back(ag::Var::constant(in));
      continue;
    }
    const Tensor* skip =
        s.io.skip >= 0 ? &v[static_cast<std::size_t>(s.io.skip)] : nullptr;
    // The result is complete before it is assigned, so a step may write the
    // slot it reads.
    v[static_cast<std::size_t>(s.io.out)] = s.fn(in, skip);
  }
  out.logits = ag::Var::constant(std::move(v[0]));
  return out;
}

}  // namespace ibrar::models
