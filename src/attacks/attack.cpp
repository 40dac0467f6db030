#include "attacks/attack.hpp"

#include <algorithm>
#include <limits>

#include "runtime/parallel_for.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::attacks {

AttackModeGuard::AttackModeGuard(models::TapClassifier& model)
    : model_(model), was_training_(model.training()) {
  model_.set_training(false);
  // Pause parameter gradients: attacks only need d loss / d input, and the
  // weight-gradient GEMMs are the dominant backward cost.
  for (auto& p : model_.parameters()) {
    if (p.node()->requires_grad) {
      p.node()->requires_grad = false;
      paused_.push_back(p.node());
    }
  }
}

AttackModeGuard::~AttackModeGuard() {
  for (auto& n : paused_) n->requires_grad = true;
  model_.set_training(was_training_);
}

Tensor input_gradient(models::TapClassifier& model, const Tensor& x,
                      const std::vector<std::int64_t>& y) {
  ag::Var input = ag::Var::param(x);
  ag::Var loss = ag::cross_entropy(model.forward(input), y);
  loss.backward();
  return input.grad();
}

void project_linf(Tensor& adv, const Tensor& x, float eps, float lo, float hi) {
  auto pa = adv.data();
  const auto px = x.data();
  runtime::parallel_for(
      0, static_cast<std::int64_t>(pa.size()), runtime::kElementwiseGrain,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const auto u = static_cast<std::size_t>(i);
          const float low = std::max(px[u] - eps, lo);
          const float high = std::min(px[u] + eps, hi);
          pa[u] = std::min(std::max(pa[u], low), high);
        }
      });
}

std::vector<float> margin_loss(const Tensor& logits,
                               const std::vector<std::int64_t>& y) {
  const auto n = logits.dim(0), c = logits.dim(1);
  std::vector<float> out(static_cast<std::size_t>(n));
  runtime::parallel_for(
      0, n, runtime::grain_for(c),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          float best_other = -std::numeric_limits<float>::infinity();
          for (std::int64_t j = 0; j < c; ++j) {
            if (j == y[static_cast<std::size_t>(i)]) continue;
            best_other = std::max(best_other, logits.at(i, j));
          }
          out[static_cast<std::size_t>(i)] =
              logits.at(i, y[static_cast<std::size_t>(i)]) - best_other;
        }
      });
  return out;
}

std::vector<std::int64_t> predict(const models::TapClassifier& model,
                                  const Tensor& x) {
  ag::NoGradGuard ng;
  return argmax_rows(model.eval_forward(ag::Var::constant(x)).value());
}

double accuracy(const models::TapClassifier& model, const Tensor& x,
                const std::vector<std::int64_t>& y) {
  const auto pred = predict(model, x);
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] == y[i]) ++correct;
  }
  return pred.empty() ? 0.0
                      : static_cast<double>(correct) / static_cast<double>(pred.size());
}

}  // namespace ibrar::attacks
