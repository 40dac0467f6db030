#include "tensor/ops.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "runtime/parallel_for.hpp"

namespace ibrar {
namespace {

// The maps below are templates over the element lambda, so each call inlines
// into its loop and the loop vectorizes (this file builds at -O3 in Release).
// Every element is a pure function of its inputs, and the runtime pool splits
// the flat range in grain-sized blocks, so neither the vector width nor the
// chunking changes a bit. Outputs start unfilled: every element is written.

/// out[i] = f(a[i]).
template <typename F>
Tensor unary_apply(const Tensor& a, F f) {
  Tensor out = Tensor::unfilled(a.shape());
  const float* pa = a.data().data();
  float* po = out.data().data();
  runtime::parallel_for(0, a.numel(), runtime::kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            po[i] = f(pa[i]);
                          }
                        });
  return out;
}

/// out[i] = f(a[i], b[i]) for two tensors of one shape.
template <typename F>
Tensor binary_apply(const Tensor& a, const Tensor& b, F f) {
  Tensor out = Tensor::unfilled(a.shape());
  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* po = out.data().data();
  runtime::parallel_for(0, a.numel(), runtime::kElementwiseGrain,
                        [&](std::int64_t i0, std::int64_t i1) {
                          for (std::int64_t i = i0; i < i1; ++i) {
                            po[i] = f(pa[i], pb[i]);
                          }
                        });
  return out;
}

// A broadcast binary op. Matching shapes and a one-element operand that does
// not raise the other's rank are flat maps; any other pair walks the output
// in row-major order, mapping each coordinate back into a and b with
// zero-stride on broadcast axes.
template <typename F>
Tensor broadcast_apply(const Tensor& a, const Tensor& b, F f) {
  if (a.same_shape(b)) return binary_apply(a, b, f);
  if (b.numel() == 1 && b.rank() <= a.rank()) {
    const float s = b[0];
    return unary_apply(a, [f, s](float x) { return f(x, s); });
  }
  if (a.numel() == 1 && a.rank() <= b.rank()) {
    const float s = a[0];
    return unary_apply(b, [f, s](float y) { return f(s, y); });
  }

  const Shape out_shape = broadcast_shape(a.shape(), b.shape());
  Tensor out = Tensor::unfilled(out_shape);
  const std::size_t rank = out_shape.size();
  // Align shapes to out rank with leading 1s, then compute effective strides
  // (0 where the input dimension is 1).
  auto aligned_strides = [&](const Tensor& t) {
    std::vector<std::int64_t> strides(rank, 0);
    const auto& ts = t.shape();
    const auto native = row_major_strides(ts);
    const std::size_t off = rank - ts.size();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      strides[off + i] = ts[i] == 1 ? 0 : native[i];
    }
    return strides;
  };
  const auto sa = aligned_strides(a);
  const auto sb = aligned_strides(b);

  const auto pa = a.data();
  const auto pb = b.data();
  auto po = out.data();
  const std::int64_t n = out.numel();
  runtime::parallel_for(0, n, runtime::kElementwiseGrain,
                        [&](std::int64_t f0, std::int64_t f1) {
    // Seed the odometer and both input offsets at flat index f0.
    std::vector<std::int64_t> coord(rank, 0);
    std::int64_t ia = 0;
    std::int64_t ib = 0;
    std::int64_t tmp = f0;
    for (std::int64_t d = static_cast<std::int64_t>(rank) - 1; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      coord[du] = tmp % out_shape[du];
      tmp /= out_shape[du];
      ia += coord[du] * sa[du];
      ib += coord[du] * sb[du];
    }
    for (std::int64_t flat = f0; flat < f1; ++flat) {
      po[static_cast<std::size_t>(flat)] =
          f(pa[static_cast<std::size_t>(ia)], pb[static_cast<std::size_t>(ib)]);
      // Increment the multi-index (odometer) and the two input offsets.
      for (std::int64_t d = static_cast<std::int64_t>(rank) - 1; d >= 0; --d) {
        const auto du = static_cast<std::size_t>(d);
        coord[du] += 1;
        ia += sa[du];
        ib += sb[du];
        if (coord[du] < out_shape[du]) break;
        ia -= sa[du] * out_shape[du];
        ib -= sb[du] * out_shape[du];
        coord[du] = 0;
      }
    }
  });
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return x + y; });
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return x - y; });
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return x * y; });
}
Tensor div(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return x / y; });
}
Tensor maximum(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return std::max(x, y); });
}
Tensor minimum(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return std::min(x, y); });
}
Tensor greater(const Tensor& a, const Tensor& b) {
  return broadcast_apply(a, b, [](float x, float y) { return x > y ? 1.0f : 0.0f; });
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary_apply(a, [s](float x) { return x + s; });
}
Tensor mul_scalar(const Tensor& a, float s) {
  return unary_apply(a, [s](float x) { return x * s; });
}
Tensor neg(const Tensor& a) { return unary_apply(a, [](float x) { return -x; }); }
Tensor exp(const Tensor& a) {
  return unary_apply(a, [](float x) { return std::exp(x); });
}
Tensor log(const Tensor& a) {
  return unary_apply(a, [](float x) { return std::log(std::max(x, 1e-38f)); });
}
Tensor abs(const Tensor& a) {
  return unary_apply(a, [](float x) { return std::fabs(x); });
}
Tensor sign(const Tensor& a) {
  return unary_apply(a, [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); });
}
Tensor relu(const Tensor& a) {
  return unary_apply(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}
Tensor relu_backward(const Tensor& g, const Tensor& x) {
  if (!g.same_shape(x)) {
    throw std::invalid_argument("relu_backward: gradient " +
                                shape_str(g.shape()) + " vs input " +
                                shape_str(x.shape()));
  }
  return binary_apply(g, x, [](float gv, float xv) {
    // g * (x > 0 ? 1 : 0), the select made on the bits of 1.0f: it stays
    // branch-free, so the loop vectorizes without -march=native too.
    const std::uint32_t keep = -static_cast<std::uint32_t>(xv > 0.0f);
    return gv * std::bit_cast<float>(keep & std::bit_cast<std::uint32_t>(1.0f));
  });
}
Tensor tanh(const Tensor& a) {
  return unary_apply(a, [](float x) { return std::tanh(x); });
}
Tensor square(const Tensor& a) {
  return unary_apply(a, [](float x) { return x * x; });
}
Tensor clamp(const Tensor& a, float lo, float hi) {
  return unary_apply(a, [lo, hi](float x) { return std::min(std::max(x, lo), hi); });
}

Tensor transpose2d(const Tensor& a) {
  if (a.rank() != 2) throw std::invalid_argument("transpose2d: rank != 2");
  const auto m = a.dim(0);
  const auto n = a.dim(1);
  Tensor out({n, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) out.at(j, i) = a.at(i, j);
  }
  return out;
}

Tensor take_rows(const Tensor& a, const std::vector<std::int64_t>& idx) {
  if (a.rank() < 1) throw std::invalid_argument("take_rows: scalar");
  // 0-row sources are legal (empty batches); any index into one throws below.
  const std::int64_t row_size = a.dim(0) > 0 ? a.numel() / a.dim(0) : 0;
  Shape shape = a.shape();
  shape[0] = static_cast<std::int64_t>(idx.size());
  Tensor out(shape);
  // Batch assembly hot path (DataLoader::next): rows copy independently.
  const std::int64_t grain = runtime::grain_for(row_size);
  runtime::parallel_for(
      0, static_cast<std::int64_t>(idx.size()), grain,
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const auto src = idx[static_cast<std::size_t>(r)];
          if (src < 0 || src >= a.dim(0)) throw std::out_of_range("take_rows index");
          std::copy_n(a.data().begin() + src * row_size, row_size,
                      out.data().begin() + r * row_size);
        }
      });
  return out;
}

void put_rows(Tensor& dst, const std::vector<std::int64_t>& idx,
              const Tensor& src) {
  if (dst.rank() < 1 || src.rank() < 1) {
    throw std::invalid_argument("put_rows: scalar");
  }
  if (src.dim(0) != static_cast<std::int64_t>(idx.size())) {
    throw std::invalid_argument("put_rows: src rows != index count");
  }
  if (idx.empty()) return;  // also covers legal 0-row destinations
  const std::int64_t row_size = dst.dim(0) > 0 ? dst.numel() / dst.dim(0) : 0;
  if (row_size == 0 || src.numel() / src.dim(0) != row_size) {
    throw std::invalid_argument("put_rows: trailing shape mismatch");
  }
  // Active-set scatter-back hot path: rows land independently, so the copies
  // fan out across the pool like take_rows' gathers.
  runtime::parallel_for(
      0, static_cast<std::int64_t>(idx.size()), runtime::grain_for(row_size),
      [&](std::int64_t r0, std::int64_t r1) {
        for (std::int64_t r = r0; r < r1; ++r) {
          const auto dstrow = idx[static_cast<std::size_t>(r)];
          if (dstrow < 0 || dstrow >= dst.dim(0)) {
            throw std::out_of_range("put_rows index");
          }
          std::copy_n(src.data().begin() + r * row_size, row_size,
                      dst.data().begin() + dstrow * row_size);
        }
      });
}

Tensor one_hot(const std::vector<std::int64_t>& labels, std::int64_t num_classes) {
  Tensor out({static_cast<std::int64_t>(labels.size()), num_classes});
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0 || labels[i] >= num_classes) {
      throw std::out_of_range("one_hot label");
    }
    out.at(static_cast<std::int64_t>(i), labels[i]) = 1.0f;
  }
  return out;
}

Tensor broadcast_to(const Tensor& a, const Shape& target) {
  if (broadcast_shape(a.shape(), target) != target) {
    throw std::invalid_argument("broadcast_to: " + shape_str(a.shape()) +
                                " does not broadcast to " + shape_str(target));
  }
  return add(a, Tensor(target));  // add with zeros performs the broadcast copy
}

Tensor reduce_to_shape(const Tensor& g, const Shape& target) {
  if (g.shape() == target) return g;
  if (broadcast_shape(target, g.shape()) != g.shape()) {
    throw std::invalid_argument("reduce_to_shape: " + shape_str(target) +
                                " does not broadcast to " +
                                shape_str(g.shape()));
  }
  const std::size_t out_rank = target.size();
  const std::size_t g_rank = g.shape().size();
  Tensor out(target);
  const auto g_shape = g.shape();
  const auto g_strides = row_major_strides(g_shape);
  // Target strides aligned to g's rank; 0 stride where target dim is 1 or absent.
  std::vector<std::int64_t> t_strides(g_rank, 0);
  const auto native = row_major_strides(target);
  const std::size_t off = g_rank - out_rank;
  for (std::size_t i = 0; i < out_rank; ++i) {
    t_strides[off + i] = target[i] == 1 ? 0 : native[i];
  }

  std::vector<std::int64_t> coord(g_rank, 0);
  std::int64_t it = 0;
  const auto pg = g.data();
  auto po = out.data();
  const std::int64_t n = g.numel();
  for (std::int64_t flat = 0; flat < n; ++flat) {
    po[static_cast<std::size_t>(it)] += pg[static_cast<std::size_t>(flat)];
    for (std::int64_t d = static_cast<std::int64_t>(g_rank) - 1; d >= 0; --d) {
      const auto du = static_cast<std::size_t>(d);
      coord[du] += 1;
      it += t_strides[du];
      if (coord[du] < g_shape[du]) break;
      it -= t_strides[du] * g_shape[du];
      coord[du] = 0;
    }
  }
  return out;
}

float sum_all(const Tensor& a) {
  const auto pa = a.data();
  // Grain-sized chunks with in-order combination: the grouping of the double
  // accumulation depends only on the grain, never on the thread count.
  const double s = runtime::parallel_reduce(
      0, static_cast<std::int64_t>(pa.size()), runtime::kElementwiseGrain, 0.0,
      [&](std::int64_t i0, std::int64_t i1) {
        double part = 0.0;
        for (std::int64_t i = i0; i < i1; ++i) part += pa[static_cast<std::size_t>(i)];
        return part;
      },
      [](double acc, double part) { return acc + part; });
  return static_cast<float>(s);
}

float mean_all(const Tensor& a) {
  return a.numel() == 0 ? 0.0f : sum_all(a) / static_cast<float>(a.numel());
}

float max_all(const Tensor& a) {
  const auto pa = a.data();
  return runtime::parallel_reduce(
      0, static_cast<std::int64_t>(pa.size()), runtime::kElementwiseGrain,
      -std::numeric_limits<float>::infinity(),
      [&](std::int64_t i0, std::int64_t i1) {
        float part = -std::numeric_limits<float>::infinity();
        for (std::int64_t i = i0; i < i1; ++i) {
          part = std::max(part, pa[static_cast<std::size_t>(i)]);
        }
        return part;
      },
      [](float acc, float part) { return std::max(acc, part); });
}

float min_all(const Tensor& a) {
  const auto pa = a.data();
  return runtime::parallel_reduce(
      0, static_cast<std::int64_t>(pa.size()), runtime::kElementwiseGrain,
      std::numeric_limits<float>::infinity(),
      [&](std::int64_t i0, std::int64_t i1) {
        float part = std::numeric_limits<float>::infinity();
        for (std::int64_t i = i0; i < i1; ++i) {
          part = std::min(part, pa[static_cast<std::size_t>(i)]);
        }
        return part;
      },
      [](float acc, float part) { return std::min(acc, part); });
}

float dot(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) throw std::invalid_argument("dot: size mismatch");
  const auto pa = a.data();
  const auto pb = b.data();
  const double s = runtime::parallel_reduce(
      0, static_cast<std::int64_t>(pa.size()), runtime::kElementwiseGrain, 0.0,
      [&](std::int64_t i0, std::int64_t i1) {
        double part = 0.0;
        for (std::int64_t i = i0; i < i1; ++i) {
          const auto u = static_cast<std::size_t>(i);
          part += double(pa[u]) * double(pb[u]);
        }
        return part;
      },
      [](double acc, double part) { return acc + part; });
  return static_cast<float>(s);
}

float l2_norm(const Tensor& a) { return std::sqrt(std::max(0.0f, dot(a, a))); }

float linf_norm(const Tensor& a) {
  const auto pa = a.data();
  return runtime::parallel_reduce(
      0, static_cast<std::int64_t>(pa.size()), runtime::kElementwiseGrain, 0.0f,
      [&](std::int64_t i0, std::int64_t i1) {
        float part = 0.0f;
        for (std::int64_t i = i0; i < i1; ++i) {
          part = std::max(part, std::fabs(pa[static_cast<std::size_t>(i)]));
        }
        return part;
      },
      [](float acc, float part) { return std::max(acc, part); });
}

}  // namespace ibrar
