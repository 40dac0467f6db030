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

PoolResult maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  if (x.rank() != 4) throw std::invalid_argument("maxpool2d: x must be NCHW");
  const auto n = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const auto oh = conv_out_dim(h, kernel, stride, 0);
  const auto ow = conv_out_dim(w, kernel, stride, 0);
  PoolResult r{Tensor::unfilled({n, c, oh, ow}), {}};
  r.argmax.resize(static_cast<std::size_t>(n * c * oh * ow));
  const float* px = x.data().data();
  float* po = r.out.data().data();
  // One (image, channel) plane per unit of work; each writes its own slice of
  // out/argmax.
  const std::int64_t out_spatial = oh * ow;
  const std::int64_t grain = runtime::grain_for(out_spatial * kernel * kernel);
  runtime::parallel_for(0, n * c, grain, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t plane_idx = p0; plane_idx < p1; ++plane_idx) {
      const float* plane = px + plane_idx * h * w;
      const std::int64_t plane_off = plane_idx * h * w;
      std::size_t oi = static_cast<std::size_t>(plane_idx * out_spatial);
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          // best_idx starts at the window's first element: the element the
          // first-maximum-wins chain picks when nothing beats -inf.
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = (oy * stride) * w + ox * stride;
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            for (std::int64_t kx = 0; kx < kernel; ++kx) {
              const std::int64_t iy = oy * stride + ky;
              const std::int64_t ix = ox * stride + kx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = iy * w + ix;
              }
            }
          }
          po[oi] = best;
          r.argmax[oi] = plane_off + best_idx;
          ++oi;
        }
      }
    }
  });
  return r;
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Shape& x_shape,
                          const std::vector<std::int64_t>& argmax) {
  Tensor gx(x_shape);
  const auto pg = grad_out.data();
  auto px = gx.data();
  for (std::size_t i = 0; i < argmax.size(); ++i) {
    px[static_cast<std::size_t>(argmax[i])] += pg[i];
  }
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
