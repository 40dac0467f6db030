#include <stdexcept>

#include "autograd/ops.hpp"
#include "tensor/conv.hpp"

namespace ibrar::ag {

Var conv2d(const Var& x, const Var& w, const Var& bias, const Conv2dSpec& spec) {
  const bool has_bias = bias.defined();
  std::vector<Var> parents = {x, w};
  if (has_bias) parents.push_back(bias);

  Tensor out = ibrar::conv2d(x.value(), w.value(),
                             has_bias ? &bias.value() : nullptr, spec);

  return make_op(std::move(out), std::move(parents), [spec, has_bias](Node& n) {
    const Tensor& xv = n.parents[0]->value;
    const Tensor& wv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      // Every element is a sum started from +0.
      n.parents[0]->accumulate_as_is(
          conv2d_input_grad(n.grad, xv.shape(), wv, spec));
    }
    if (n.parents[1]->requires_grad) {
      n.parents[1]->accumulate(
          conv2d_weight_grad(n.grad, xv, wv.shape(), spec));
    }
    if (has_bias && n.parents[2]->requires_grad) {
      n.parents[2]->accumulate(conv2d_bias_grad(n.grad));
    }
  });
}

Var maxpool2d(const Var& x, std::int64_t kernel, std::int64_t stride) {
  return make_op(ibrar::maxpool2d(x.value(), kernel, stride), {x},
                 [kernel, stride](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    // 0 + g at each winner and +0 elsewhere, or sums into zeros.
    n.parents[0]->accumulate_as_is(
        maxpool2d_backward(n.grad, n.parents[0]->value, kernel, stride));
  });
}

Var global_avg_pool(const Var& x) {
  const Shape x_shape = x.shape();
  return make_op(ibrar::global_avg_pool(x.value()), {x}, [x_shape](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(global_avg_pool_backward(n.grad, x_shape));
  });
}

}  // namespace ibrar::ag
