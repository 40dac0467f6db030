#include <stdexcept>

#include "autograd/ops.hpp"
#include "tensor/ops.hpp"

namespace ibrar::ag {

Var reshape(const Var& a, Shape new_shape) {
  const Shape old_shape = a.shape();
  return make_op(a.value().reshape(std::move(new_shape)), {a},
                 [old_shape](Node& n) {
                   if (n.parents[0]->requires_grad) {
                     n.parents[0]->accumulate(n.grad.reshape(old_shape));
                   }
                 });
}

Var flatten2d(const Var& a) {
  if (a.shape().empty()) throw std::invalid_argument("flatten2d: scalar");
  const auto n = a.shape()[0];
  return reshape(a, {n, a.numel() / n});
}

Var gather_cols(const Var& a, const std::vector<std::int64_t>& idx) {
  if (a.shape().size() != 2) throw std::invalid_argument("gather_cols: 2-D only");
  const auto rows = a.shape()[0];
  const auto cols = a.shape()[1];
  if (static_cast<std::int64_t>(idx.size()) != rows) {
    throw std::invalid_argument("gather_cols: index count != rows");
  }
  Tensor out({rows, 1});
  for (std::int64_t i = 0; i < rows; ++i) {
    const auto j = idx[static_cast<std::size_t>(i)];
    if (j < 0 || j >= cols) throw std::out_of_range("gather_cols index");
    out.at(i, 0) = a.value().at(i, j);
  }
  const Shape in_shape = a.shape();
  return make_op(std::move(out), {a}, [idx, in_shape](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor g(in_shape);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      g.at(static_cast<std::int64_t>(i), idx[i]) =
          n.grad.at(static_cast<std::int64_t>(i), 0);
    }
    n.parents[0]->accumulate(std::move(g));
  });
}

}  // namespace ibrar::ag
