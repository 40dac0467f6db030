#include <cmath>
#include <stdexcept>

#include "autograd/ops.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::ag {

Var softmax(const Var& logits) {
  return make_op(softmax_rows(logits.value()), {logits}, [](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    // dx = s * (g - rowsum(g * s)), s being this node's own value
    const Tensor& s = n.value;
    const auto m = s.dim(0), c = s.dim(1);
    Tensor gx(s.shape());
    for (std::int64_t i = 0; i < m; ++i) {
      double inner = 0.0;
      for (std::int64_t j = 0; j < c; ++j) {
        inner += double(n.grad.at(i, j)) * s.at(i, j);
      }
      for (std::int64_t j = 0; j < c; ++j) {
        gx.at(i, j) = s.at(i, j) * (n.grad.at(i, j) - static_cast<float>(inner));
      }
    }
    n.parents[0]->accumulate(std::move(gx));
  });
}

Var log_softmax(const Var& logits) {
  Tensor s = softmax_rows(logits.value());
  return make_op(log_softmax_rows(logits.value()), {logits},
                 [s = std::move(s)](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    // dx = g - softmax * rowsum(g)
    const auto m = s.dim(0), c = s.dim(1);
    Tensor gx(s.shape());
    for (std::int64_t i = 0; i < m; ++i) {
      double rs = 0.0;
      for (std::int64_t j = 0; j < c; ++j) rs += n.grad.at(i, j);
      for (std::int64_t j = 0; j < c; ++j) {
        gx.at(i, j) = n.grad.at(i, j) - s.at(i, j) * static_cast<float>(rs);
      }
    }
    n.parents[0]->accumulate(std::move(gx));
  });
}

Var cross_entropy(const Var& logits, const std::vector<std::int64_t>& labels) {
  const Tensor& lv = logits.value();
  if (lv.rank() != 2) throw std::invalid_argument("cross_entropy: logits 2-D");
  const auto m = lv.dim(0);
  const auto c = lv.dim(1);
  if (static_cast<std::int64_t>(labels.size()) != m) {
    throw std::invalid_argument("cross_entropy: label count mismatch");
  }
  const Tensor ls = log_softmax_rows(lv);
  double loss = 0.0;
  for (std::int64_t i = 0; i < m; ++i) {
    const auto y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= c) throw std::out_of_range("cross_entropy label");
    loss -= ls.at(i, y);
  }
  Tensor probs = softmax_rows(lv);
  return make_op(Tensor::scalar(static_cast<float>(loss / m)), {logits},
                 [probs = std::move(probs), labels, m](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    const float g = n.grad.item() / static_cast<float>(m);
    Tensor gx = probs;
    for (std::int64_t i = 0; i < m; ++i) {
      gx.at(i, labels[static_cast<std::size_t>(i)]) -= 1.0f;
    }
    for (auto& v : gx.data()) v *= g;
    n.parents[0]->accumulate(std::move(gx));
  });
}

Var kl_div(const Var& p, const Var& log_q) {
  const Tensor& pv = p.value();
  const Tensor& lqv = log_q.value();
  if (!(pv.shape() == lqv.shape()) || pv.rank() != 2) {
    throw std::invalid_argument("kl_div: p and log_q must be matching 2-D");
  }
  const auto m = pv.dim(0);
  const auto c = pv.dim(1);
  double loss = 0.0;
  Tensor log_p(pv.shape());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < c; ++j) {
      const float pij = std::max(pv.at(i, j), 1e-12f);
      log_p.at(i, j) = std::log(pij);
      loss += double(pv.at(i, j)) * (log_p.at(i, j) - lqv.at(i, j));
    }
  }
  return make_op(Tensor::scalar(static_cast<float>(loss / m)), {p, log_q},
                 [log_p = std::move(log_p), m](Node& n) {
    const float g = n.grad.item() / static_cast<float>(m);
    if (n.parents[0]->requires_grad) {
      // d/dp [p (log p - log q)] = log p + 1 - log q
      Tensor gp = ibrar::sub(log_p, n.parents[1]->value);
      for (auto& v : gp.data()) v = (v + 1.0f) * g;
      n.parents[0]->accumulate(std::move(gp));
    }
    if (n.parents[1]->requires_grad) {
      Tensor gq = n.parents[0]->value;
      for (auto& v : gq.data()) v *= -g;
      n.parents[1]->accumulate(std::move(gq));
    }
  });
}

}  // namespace ibrar::ag
