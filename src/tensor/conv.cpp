#include "tensor/conv.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
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

/// Four floats, and their bit patterns: the K = 2 loops run the window
/// chain on four windows at once. 128-bit vectors exist on every x86-64
/// target, so those loops run the same lanes with and without AVX, and four
/// windows per step, carried across rows, keep vgg16's rows of 2 to 8
/// windows busy. A plain loop over a row's windows is too short for the
/// auto-vectorizer at AVX-512 widths and runs the chain scalar: on an
/// AVX-512 host its block-1 backward (100 x 8 x 16 x 16, one lane) took
/// 380-430 us against 63 us here.
typedef float Lanes __attribute__((vector_size(16)));
typedef std::uint32_t LaneBits __attribute__((vector_size(16)));

inline std::uint32_t bits_of(float v) {
  return std::bit_cast<std::uint32_t>(v);
}
inline LaneBits bits_of(Lanes v) { return reinterpret_cast<LaneBits>(v); }
inline float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }
inline Lanes from_bits(LaneBits b) { return reinterpret_cast<Lanes>(b); }
/// All ones where v > best, zeros elsewhere (and wherever v is NaN).
inline std::uint32_t beats(float v, float best) {
  return -static_cast<std::uint32_t>(v > best);
}
inline LaneBits beats(Lanes v, Lanes best) {
  return reinterpret_cast<LaneBits>(v > best);
}

/// A window's maximum and the offset ky * k + kx of the element that won,
/// for one window (F = float) or four (F = Lanes).
template <typename F, typename U>
struct Winner {
  F best;
  U at;
};

/// The first-maximum-wins chain over a k x k window whose element (ky, kx)
/// is at(ky, kx): from -inf in row-major order, an element takes over when
/// it beats the maximum so far, so a NaN never does and a tie keeps the
/// earlier element. When nothing beats -inf (all NaN or all -inf) the
/// window pools to -inf and its first element wins. The selects are made on
/// bit patterns, as in relu_backward: the chain has no branch to
/// mispredict. The one chain: the forward and backward loops call it, on
/// one window at a time or on four windows' lanes.
template <typename F, typename U, typename At>
inline Winner<F, U> window_chain(std::int64_t k, At at) {
  Winner<F, U> r{F{} - std::numeric_limits<float>::infinity(), U{}};
  for (std::int64_t ky = 0; ky < k; ++ky) {
    for (std::int64_t kx = 0; kx < k; ++kx) {
      const F v = at(ky, kx);
      const U take = beats(v, r.best);
      r.best = from_bits(bits_of(r.best) ^
                         ((bits_of(r.best) ^ bits_of(v)) & take));
      r.at ^= (r.at ^ static_cast<std::uint32_t>(ky * k + kx)) & take;
    }
  }
  return r;
}

/// window_chain over the window of x whose first element is `win`, in rows
/// of `w` floats.
inline Winner<float, std::uint32_t> window_at(const float* win,
                                               std::int64_t w,
                                               std::int64_t kernel) {
  return window_chain<float, std::uint32_t>(
      kernel,
      [&](std::int64_t ky, std::int64_t kx) { return win[ky * w + kx]; });
}

/// Where the K = 2 loops are in a run of planes: `off` is the flat index of
/// the first element of the next two windows of output row oy, which start
/// at column 2 * ox. Windows come two at a time, so a row must hold an even
/// number of them (ow even); the run carries on across rows and planes,
/// past a last row or column that lies in no window.
struct PairCursor {
  std::int64_t off, ox = 0, oy = 0;

  /// The flat index of this pair, and a step to the next one.
  std::int64_t next(std::int64_t h, std::int64_t w, std::int64_t oh,
                    std::int64_t ow) {
    const std::int64_t at = off;
    off += 4;
    if ((ox += 2) == ow) {
      ox = 0;
      off += 2 * w - 2 * ow;
      if (++oy == oh) {
        oy = 0;
        off += (h - 2 * oh) * w;
      }
    }
    return at;
  }
};

/// The four windows' elements of two pairs of windows at flat indices
/// first and second: lane l of e[ky * 2 + kx] is element (ky, kx) of the
/// l-th window, windows in output order.
struct FourWindows {
  Lanes e[4];

  FourWindows(const float* x, std::int64_t first, std::int64_t second,
              std::int64_t w) {
    for (std::int64_t ky = 0; ky < 2; ++ky) {
      Lanes lo, hi;
      std::memcpy(&lo, x + first + ky * w, sizeof lo);
      std::memcpy(&hi, x + second + ky * w, sizeof hi);
      e[ky * 2] = __builtin_shuffle(lo, hi, LaneBits{0, 2, 4, 6});
      e[ky * 2 + 1] = __builtin_shuffle(lo, hi, LaneBits{1, 3, 5, 7});
    }
  }

  Winner<Lanes, LaneBits> chain() const {
    return window_chain<Lanes, LaneBits>(
        2, [this](std::int64_t ky, std::int64_t kx) { return e[ky * 2 + kx]; });
  }
};

/// The (2, 2) pool of planes [p0, p1) of x (h x w, ow even) into po, four
/// windows per step; a last odd pair runs as the first half of a step whose
/// second half repeats it.
void pool2_planes(const float* px, float* po, std::int64_t p0, std::int64_t p1,
                  std::int64_t h, std::int64_t w, std::int64_t oh,
                  std::int64_t ow) {
  PairCursor cur{p0 * h * w};
  float* out = po + p0 * oh * ow;
  const std::int64_t pairs = (p1 - p0) * oh * ow / 2;
  for (std::int64_t q = 0; q < pairs; q += 2, out += 4) {
    const std::int64_t first = cur.next(h, w, oh, ow);
    const bool both = q + 1 < pairs;
    const std::int64_t second = both ? cur.next(h, w, oh, ow) : first;
    const Lanes best = FourWindows(px, first, second, w).chain().best;
    if (both) {
      std::memcpy(out, &best, sizeof best);
    } else {
      std::memcpy(out, &best, sizeof best / 2);
    }
  }
}

/// Input gradient of pool2_planes into planes [p0, p1) of gx, each element
/// written once: 0 + g at its window's winner, +0 everywhere else, a last
/// row and column that lie in no window included.
void unpool2_planes(const float* px, const float* pg, float* pgx,
                    std::int64_t p0, std::int64_t p1, std::int64_t h,
                    std::int64_t w, std::int64_t oh, std::int64_t ow) {
  PairCursor cur{p0 * h * w};
  const float* g = pg + p0 * oh * ow;
  const std::int64_t pairs = (p1 - p0) * oh * ow / 2;
  for (std::int64_t q = 0; q < pairs; q += 2, g += 4) {
    const std::int64_t first = cur.next(h, w, oh, ow);
    const bool both = q + 1 < pairs;
    const std::int64_t second = both ? cur.next(h, w, oh, ow) : first;
    const LaneBits at = FourWindows(px, first, second, w).chain().at;
    Lanes gv{};
    if (both) {
      std::memcpy(&gv, g, sizeof gv);
    } else {
      std::memcpy(&gv, g, sizeof gv / 2);
    }
    const LaneBits v = bits_of(0.0f + gv);
    LaneBits won[4];
    for (std::uint32_t k = 0; k < 4; ++k) {
      won[k] = v & reinterpret_cast<LaneBits>(at == k);
    }
    // Row ky of the first pair is lanes 0 and 1 of (ky, 0) and (ky, 1)
    // interleaved, that of the second pair lanes 2 and 3.
    for (std::int64_t ky = 0; ky < 2; ++ky) {
      const LaneBits r0 = __builtin_shuffle(won[ky * 2], won[ky * 2 + 1],
                                            LaneBits{0, 4, 1, 5});
      const LaneBits r1 = __builtin_shuffle(won[ky * 2], won[ky * 2 + 1],
                                            LaneBits{2, 6, 3, 7});
      std::memcpy(pgx + first + ky * w, &r0, sizeof r0);
      if (both) std::memcpy(pgx + second + ky * w, &r1, sizeof r1);
    }
  }
  for (std::int64_t p = p0; p < p1; ++p) {
    float* gx = pgx + p * h * w;
    if (w > 2 * ow) {
      for (std::int64_t y = 0; y < 2 * oh; ++y) gx[y * w + w - 1] = 0.0f;
    }
    std::fill(gx + 2 * oh * w, gx + h * w, 0.0f);
  }
}

/// Whether a pool runs pool2_planes and unpool2_planes: 2x2 windows at
/// stride 2, an even number of them per row (vgg16's pools).
inline bool on_lanes(std::int64_t kernel, std::int64_t stride,
                     std::int64_t ow) {
  return kernel == 2 && stride == 2 && ow % 2 == 0;
}

/// f(p0, p1) over the (image, channel) planes of a pool of output shape
/// `out`, split across the pool; no two planes share an element.
template <typename F>
void each_plane(const Shape& out, std::int64_t kernel, F f) {
  const std::int64_t grain =
      runtime::grain_for(out[2] * out[3] * kernel * kernel);
  runtime::parallel_for(0, out[0] * out[1], grain, f);
}

}  // namespace

Tensor maxpool2d(const Tensor& x, std::int64_t kernel, std::int64_t stride) {
  const Shape shape = pool_shape(x, kernel, stride);
  Tensor out = Tensor::unfilled(shape);  // every window writes its element
  const float* px = x.data().data();
  float* po = out.data().data();
  const std::int64_t h = x.dim(2), w = x.dim(3), oh = shape[2], ow = shape[3];
  each_plane(shape, kernel, [&](std::int64_t p0, std::int64_t p1) {
    if (on_lanes(kernel, stride, ow)) {
      return pool2_planes(px, po, p0, p1, h, w, oh, ow);
    }
    for (std::int64_t p = p0; p < p1; ++p) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const float* row = px + p * h * w + oy * stride * w;
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          po[(p * oh + oy) * ow + ox] =
              window_at(row + ox * stride, w, kernel).best;
        }
      }
    }
  });
  return out;
}

Tensor maxpool2d_backward(const Tensor& grad_out, const Tensor& x,
                          std::int64_t kernel, std::int64_t stride) {
  const Shape shape = pool_shape(x, kernel, stride);
  if (grad_out.shape() != shape) {
    throw std::invalid_argument("maxpool2d_backward: gradient shape mismatch");
  }
  const float* px = x.data().data();
  const float* pg = grad_out.data().data();
  const std::int64_t h = x.dim(2), w = x.dim(3), oh = shape[2], ow = shape[3];
  if (on_lanes(kernel, stride, ow)) {
    // No two windows share an element: each element of gx is written once,
    // 0 + g at its window's winner and +0 everywhere else, which is what
    // adding g into a zeroed result at the winner leaves.
    Tensor gx = Tensor::unfilled(x.shape());
    float* pgx = gx.data().data();
    each_plane(shape, kernel, [&](std::int64_t p0, std::int64_t p1) {
      unpool2_planes(px, pg, pgx, p0, p1, h, w, oh, ow);
    });
    return gx;
  }
  // Add each window's g at its winner into a zeroed result, windows in
  // output order, so overlapping windows add into shared elements. No two
  // planes share an input element, so lanes never add into one.
  Tensor gx(x.shape());
  float* pgx = gx.data().data();
  each_plane(shape, kernel, [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        for (std::int64_t ox = 0; ox < ow; ++ox) {
          const std::int64_t first = p * h * w + oy * stride * w + ox * stride;
          const std::uint32_t at = window_at(px + first, w, kernel).at;
          pgx[first + at / kernel * w + at % kernel] +=
              pg[(p * oh + oy) * ow + ox];
        }
      }
    }
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
