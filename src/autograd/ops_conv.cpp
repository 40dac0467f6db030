#include <stdexcept>

#include "autograd/ops.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/gemm_packed.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/reduce.hpp"

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
    const auto nN = n.value.shape()[0];
    const auto nf = n.value.shape()[1];
    const auto spatial = n.value.shape()[2] * n.value.shape()[3];
    const auto ckk = wv.numel() / nf;
    // NCHW grad -> (N*OH*OW, F) spatial-major layout used by the GEMM.
    Tensor gprod({nN * spatial, nf});
    {
      const float* pg = n.grad.data().data();
      float* pp = gprod.data().data();
      ibrar::runtime::parallel_for(0, nN, 1, [&](std::int64_t n0, std::int64_t n1) {
        for (std::int64_t in_n = n0; in_n < n1; ++in_n) {
          for (std::int64_t of = 0; of < nf; ++of) {
            const float* plane = pg + (in_n * nf + of) * spatial;
            for (std::int64_t s = 0; s < spatial; ++s) {
              pp[(in_n * spatial + s) * nf + of] = plane[s];
            }
          }
        }
      });
    }
    if (n.parents[0]->requires_grad) {
      // gcols (N*OH*OW, CKK) = gprod * w, w read in place as (F, CKK).
      Tensor gcols({nN * spatial, ckk});
      gemm_packed(gprod.data().data(), GemmLayout::kRowMajor, wv.data().data(),
                  GemmLayout::kRowMajor, gcols.data().data(), nN * spatial, nf,
                  ckk);
      n.parents[0]->accumulate(col2im(gcols, xv.shape(), spec));
    }
    if (n.parents[1]->requires_grad) {
      // The weight gradient is the only reader of the im2col columns, so they
      // exist only here, one layer at a time.
      n.parents[1]->accumulate(
          ibrar::matmul_tn(gprod, im2col(xv, spec)).reshape(wv.shape()));
    }
    if (has_bias && n.parents[2]->requires_grad) {
      n.parents[2]->accumulate(ibrar::sum_axis(gprod, 0));
    }
  });
}

Var maxpool2d(const Var& x, std::int64_t kernel, std::int64_t stride) {
  PoolResult r = ibrar::maxpool2d(x.value(), kernel, stride);
  return make_op(std::move(r.out), {x},
                 [argmax = std::move(r.argmax)](Node& n) {
    if (!n.parents[0]->requires_grad) return;
    n.parents[0]->accumulate(
        maxpool2d_backward(n.grad, n.parents[0]->value.shape(), argmax));
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
