#include <cmath>

#include "autograd/ops.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {
namespace {

/// Route the gradient `make()` returns into parent `i` of `n`, reducing
/// broadcast dims. make() runs only when that parent requires grad, so a
/// constant operand costs no gradient. A gradient that already has the
/// parent's shape goes to accumulate as is; a temporary is handed over, not
/// copied.
template <typename Make>
void accum_broadcast(Node& n, std::size_t i, Make&& make) {
  auto& p = n.parents[i];
  if (!p->requires_grad) return;
  decltype(auto) g = make();
  if (g.shape() == p->value.shape()) {
    p->accumulate(std::forward<decltype(g)>(g));
  } else {
    p->accumulate(reduce_to_shape(g, p->value.shape()));
  }
}

template <typename G>
void accum(Node& n, std::size_t i, G&& g) {
  auto& p = n.parents[i];
  if (p->requires_grad) p->accumulate(std::forward<G>(g));
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return make_op(ibrar::add(a.value(), b.value()), {a, b}, [](Node& n) {
    const auto g = [&n]() -> const Tensor& { return n.grad; };
    accum_broadcast(n, 0, g);
    accum_broadcast(n, 1, g);
  });
}

Var sub(const Var& a, const Var& b) {
  return make_op(ibrar::sub(a.value(), b.value()), {a, b}, [](Node& n) {
    accum_broadcast(n, 0, [&n]() -> const Tensor& { return n.grad; });
    accum_broadcast(n, 1, [&n] { return ibrar::neg(n.grad); });
  });
}

Var mul(const Var& a, const Var& b) {
  return make_op(ibrar::mul(a.value(), b.value()), {a, b}, [](Node& n) {
    accum_broadcast(n, 0,
                    [&n] { return ibrar::mul(n.grad, n.parents[1]->value); });
    accum_broadcast(n, 1,
                    [&n] { return ibrar::mul(n.grad, n.parents[0]->value); });
  });
}

Var add_scalar(const Var& a, float s) {
  return make_op(ibrar::add_scalar(a.value(), s), {a},
                 [](Node& n) { accum(n, 0, n.grad); });
}

Var mul_scalar(const Var& a, float s) {
  return make_op(ibrar::mul_scalar(a.value(), s), {a}, [s](Node& n) {
    accum(n, 0, ibrar::mul_scalar(n.grad, s));
  });
}

Var neg(const Var& a) { return mul_scalar(a, -1.0f); }

Var exp(const Var& a) {
  return make_op(ibrar::exp(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::mul(n.grad, n.value));
  });
}

Var log(const Var& a) {
  return make_op(ibrar::log(a.value()), {a}, [](Node& n) {
    // matches the clamped forward: d log(max(x, eps)) / dx ~= 1/max(x, eps)
    accum(n, 0, ibrar::div(n.grad, ibrar::maximum(n.parents[0]->value,
                                                  Tensor::scalar(1e-38f))));
  });
}

Var square(const Var& a) {
  return make_op(ibrar::square(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::mul(n.grad, ibrar::mul_scalar(n.parents[0]->value, 2.0f)));
  });
}

Var relu(const Var& a) {
  return make_op(ibrar::relu(a.value()), {a}, [](Node& n) {
    accum(n, 0, ibrar::relu_backward(n.grad, n.parents[0]->value));
  });
}

Var tanh(const Var& a) {
  return make_op(ibrar::tanh(a.value()), {a}, [](Node& n) {
    // 1 - tanh^2
    accum(n, 0, ibrar::mul(n.grad, ibrar::sub(Tensor::scalar(1.0f),
                                              ibrar::square(n.value))));
  });
}

}  // namespace ibrar::ag
