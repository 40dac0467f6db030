#include "models/plan.hpp"

#include <algorithm>
#include <utility>

#include "autograd/ops.hpp"
#include "obs/profile.hpp"
#include "tensor/ops.hpp"

namespace ibrar::models {

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
  // apply_channel_mask's "installed" test and (1, C, 1, 1) broadcast.
  if (!model.has_channel_mask()) return;
  const Tensor& mask = model.channel_mask();
  add({}, [m = mask.reshape({1, mask.numel(), 1, 1})](const Tensor& x,
                                                      const Tensor*) {
    return mul(x, m);
  });
}

void InferencePlan::linear(std::shared_ptr<const nn::Linear> layer,
                           bool relu) {
  add({}, [layer = std::move(layer), relu](const Tensor& x, const Tensor*) {
    const std::int64_t n = x.dim(0);
    ag::Var h = layer->eval_forward(
        ag::Var::constant(x.reshape({n, x.numel() / n})));
    if (relu) h = ag::relu(h);
    return std::move(h.mutable_value());
  });
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
