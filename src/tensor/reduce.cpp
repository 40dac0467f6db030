#include "tensor/reduce.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "runtime/parallel_for.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"

namespace ibrar {

Tensor sum(const Tensor& a) { return Tensor::scalar(sum_all(a)); }
Tensor mean(const Tensor& a) { return Tensor::scalar(mean_all(a)); }

Tensor sum_axis(const Tensor& a, std::int64_t axis, bool keepdim) {
  if (axis < 0) axis += a.rank();
  if (axis < 0 || axis >= a.rank()) throw std::invalid_argument("sum_axis: axis");
  const auto& shape = a.shape();
  std::int64_t outer = 1, inner = 1;
  for (std::int64_t i = 0; i < axis; ++i) outer *= shape[static_cast<std::size_t>(i)];
  for (std::int64_t i = axis + 1; i < a.rank(); ++i) inner *= shape[static_cast<std::size_t>(i)];
  const std::int64_t mid = shape[static_cast<std::size_t>(axis)];

  Shape out_shape;
  for (std::int64_t i = 0; i < a.rank(); ++i) {
    if (i == axis) {
      if (keepdim) out_shape.push_back(1);
    } else {
      out_shape.push_back(shape[static_cast<std::size_t>(i)]);
    }
  }
  Tensor out(out_shape);
  const float* pa = a.data().data();
  float* po = out.data().data();
  for (std::int64_t o = 0; o < outer; ++o) {
    for (std::int64_t m = 0; m < mid; ++m) {
      const float* src = pa + (o * mid + m) * inner;
      float* dst = po + o * inner;
      for (std::int64_t i = 0; i < inner; ++i) dst[i] += src[i];
    }
  }
  return out;
}

std::vector<std::int64_t> argmax_rows(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("argmax_rows: rank != 2");
  const auto m = a.dim(0), n = a.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    std::int64_t bi = 0;
    float best = a.at(i, 0);
    for (std::int64_t j = 1; j < n; ++j) {
      if (a.at(i, j) > best) {
        best = a.at(i, j);
        bi = j;
      }
    }
    out[static_cast<std::size_t>(i)] = bi;
  }
  return out;
}

Tensor softmax_rows(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("softmax_rows: rank != 2");
  const auto m = a.dim(0), n = a.dim(1);
  Tensor out(a.shape());
  const std::int64_t grain = runtime::grain_for(n);
  runtime::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < n; ++j) mx = std::max(mx, a.at(i, j));
      double denom = 0.0;
      for (std::int64_t j = 0; j < n; ++j) {
        const float e = std::exp(a.at(i, j) - mx);
        out.at(i, j) = e;
        denom += e;
      }
      const float inv = static_cast<float>(1.0 / denom);
      for (std::int64_t j = 0; j < n; ++j) out.at(i, j) *= inv;
    }
  });
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("log_softmax_rows: rank != 2");
  const auto m = a.dim(0), n = a.dim(1);
  Tensor out(a.shape());
  const std::int64_t grain = runtime::grain_for(n);
  runtime::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float mx = -std::numeric_limits<float>::infinity();
      for (std::int64_t j = 0; j < n; ++j) mx = std::max(mx, a.at(i, j));
      double denom = 0.0;
      for (std::int64_t j = 0; j < n; ++j) denom += std::exp(a.at(i, j) - mx);
      const float lse = mx + static_cast<float>(std::log(denom));
      for (std::int64_t j = 0; j < n; ++j) out.at(i, j) = a.at(i, j) - lse;
    }
  });
  return out;
}

Tensor pairwise_sq_dists(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("pairwise_sq_dists: rank != 2");
  const auto m = a.dim(0);
  // ||xi - xj||^2 = G_ii + G_jj - 2 G_ij with G = X X^T from the symmetric
  // blocked driver (half the GEMM FLOPs, bit-identical to matmul_nt(a, a)).
  const Tensor gram = matmul_nt_sym(a);  // (m, m)
  Tensor out({m, m});
  const std::int64_t grain = runtime::grain_for(m);
  runtime::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      for (std::int64_t j = 0; j < m; ++j) {
        const float d = gram.at(i, i) + gram.at(j, j) - 2.0f * gram.at(i, j);
        out.at(i, j) = std::max(d, 0.0f);
      }
    }
  });
  return out;
}

}  // namespace ibrar
