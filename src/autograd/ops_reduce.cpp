#include "autograd/ops.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::ag {

Var sum(const Var& a) {
  const Shape in_shape = a.shape();
  return make_op(ibrar::sum(a.value()), {a}, [in_shape](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(Tensor(in_shape, n.grad.item()));
  });
}

Var mean(const Var& a) {
  const Shape in_shape = a.shape();
  const float inv = 1.0f / static_cast<float>(a.numel());
  return make_op(ibrar::mean(a.value()), {a}, [in_shape, inv](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(Tensor(in_shape, n.grad.item() * inv));
  });
}

Var sum_axis(const Var& a, std::int64_t axis, bool keepdim) {
  const Shape in_shape = a.shape();
  if (axis < 0) axis += static_cast<std::int64_t>(in_shape.size());
  Tensor out = ibrar::sum_axis(a.value(), axis, keepdim);
  return make_op(std::move(out), {a}, [in_shape, axis, keepdim](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    // Re-insert the reduced axis as 1, then broadcast the gradient back.
    Shape keep_shape = in_shape;
    keep_shape[static_cast<std::size_t>(axis)] = 1;
    const Tensor g = keepdim ? n.grad : n.grad.reshape(keep_shape);
    n.parents[0]->accumulate(ibrar::broadcast_to(g, in_shape));
  });
}

}  // namespace ibrar::ag
