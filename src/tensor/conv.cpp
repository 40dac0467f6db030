#include "tensor/conv.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "runtime/parallel_for.hpp"

namespace ibrar {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel, std::int64_t stride,
                          std::int64_t pad) {
  if (kernel < 1 || stride < 1 || pad < 0 || in + 2 * pad < kernel) {
    throw std::invalid_argument(
        "conv_out_dim: no output for input " + std::to_string(in) +
        ", kernel " + std::to_string(kernel) + ", stride " +
        std::to_string(stride) + ", pad " + std::to_string(pad));
  }
  return (in + 2 * pad - kernel) / stride + 1;
}

namespace {

/// (N, C, OH, OW) of max pooling x. Throws std::invalid_argument unless x
/// is NCHW and the window fits.
Shape pool_shape(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  if (x.rank() != 4) throw std::invalid_argument("maxpool2d: x must be NCHW");
  return {x.dim(0), x.dim(1), conv_out_dim(x.dim(2), kernel, stride, 0),
          conv_out_dim(x.dim(3), kernel, stride, 0)};
}

/// Runs the first-maximum-wins chain over every window of x, pooled to
/// `out`, and calls f(o, best, at) with the window's flat output index, its
/// maximum and the flat input index of the element that won. `at` starts at
/// the window's first element, which wins when nothing beats -inf. Planes
/// split across the pool; within a plane windows run in output order.
template <typename F>
void each_window(const Tensor& x, const Shape& out, std::int64_t kernel,
                 std::int64_t stride, F f) {
  const std::int64_t h = x.dim(2), w = x.dim(3), oh = out[2], ow = out[3];
  const float* px = x.data().data();
  const std::int64_t grain = runtime::grain_for(oh * ow * kernel * kernel);
  runtime::parallel_for(0, out[0] * out[1], grain,
                        [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const float* plane = px + p * h * w;
      std::int64_t o = p * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t at = (oy * stride) * w + ox * stride;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t i = (oy * stride + ky) * w + ox * stride + kx;
              if (plane[i] > best) {
                best = plane[i];
                at = i;
              }
            }
          }
          f(o++, best, p * h * w + at);
        }
      }
    }
  });
}

}  // namespace

Tensor maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  const Shape shape = pool_shape(x, kernel, stride);
  Tensor out = Tensor::unfilled(shape);  // every window writes its element
  float* po = out.data().data();
  each_window(x, shape, kernel, stride,
              [po](std::int64_t o, float best, std::int64_t) { po[o] = best; });
  return out;
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Tensor& x,
                          std::int64_t kernel, std::int64_t stride) {
  const Shape shape = pool_shape(x, kernel, stride);
  if (grad_out.shape() != shape) {
    throw std::invalid_argument("maxpool2d_backward: gradient shape mismatch");
  }
  Tensor gx(x.shape());
  const float* pg = grad_out.data().data();
  float* px = gx.data().data();
  // No two planes share an input element, so lanes never add into one.
  each_window(x, shape, kernel, stride,
              [pg, px](std::int64_t o, float, std::int64_t at) {
                px[at] += pg[o];
              });
  return gx;
}

Tensor global_avg_pool(const Tensor& x) {
  if (x.rank() != 4) throw std::invalid_argument("global_avg_pool: NCHW only");
  const auto n = x.dim(0), c = x.dim(1);
  const auto spatial = x.dim(2) * x.dim(3);
  Tensor out({n, c});
  const float* px = x.data().data();
  float* po = out.data().data();
  const std::int64_t grain = runtime::grain_for(spatial);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double s = 0.0;
      const float* plane = px + i * spatial;
      for (std::int64_t k = 0; k < spatial; ++k) s += plane[k];
      po[i] = static_cast<float>(s / static_cast<double>(spatial));
    }
  });
  return out;
}

Tensor global_avg_pool_backward(const Tensor& grad_out, const Shape& x_shape) {
  Tensor gx(x_shape);
  const auto n = x_shape[0], c = x_shape[1];
  const auto spatial = x_shape[2] * x_shape[3];
  const float* pg = grad_out.data().data();
  float* px = gx.data().data();
  const float inv = 1.0f / static_cast<float>(spatial);
  const std::int64_t grain = runtime::grain_for(spatial);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float g = pg[i] * inv;
      float* plane = px + i * spatial;
      for (std::int64_t k = 0; k < spatial; ++k) plane[k] = g;
    }
  });
  return gx;
}

}  // namespace ibrar
