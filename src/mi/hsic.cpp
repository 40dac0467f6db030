#include "mi/hsic.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "runtime/parallel_for.hpp"

namespace ibrar::mi {
namespace {

/// Row sums, column sums, and the grand total of a square matrix — everything
/// H K H = K - rowmean - colmean + grand needs, without materializing the
/// centered matrix. Rows and columns each sum in ascending index order inside
/// fixed-grain chunks, so the result is the same at any pool size.
struct GramSums {
  std::vector<double> row;  ///< row[i]   = sum_j K(i, j)
  std::vector<double> col;  ///< col[j]   = sum_i K(i, j)
  double total = 0.0;       ///< sum_ij K(i, j)
};

GramSums gram_sums(const Tensor& k) {
  const auto m = k.dim(0);
  GramSums s;
  s.row.assign(static_cast<std::size_t>(m), 0.0);
  s.col.assign(static_cast<std::size_t>(m), 0.0);
  const float* pk = k.data().data();
  const std::int64_t grain = runtime::grain_for(m);
  runtime::parallel_for(0, m, grain, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      double acc = 0.0;
      const float* row = pk + i * m;
      for (std::int64_t j = 0; j < m; ++j) acc += row[j];
      s.row[static_cast<std::size_t>(i)] = acc;
    }
  });
  runtime::parallel_for(0, m, grain, [&](std::int64_t j0, std::int64_t j1) {
    for (std::int64_t j = j0; j < j1; ++j) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < m; ++i) acc += pk[i * m + j];
      s.col[static_cast<std::size_t>(j)] = acc;
    }
  });
  for (const auto v : s.row) s.total += v;
  return s;
}

/// tr((H Kx H) Ky^T) = sum_ij (H Kx H)_ij Ky_ij, assembled from the sums:
///   sum_ij Kx_ij Ky_ij - (1/m) sum_i rowx_i rowy_i - (1/m) sum_j colx_j coly_j
///   + totalx * totaly / m^2.
/// No centered matrix is ever formed; the only O(m^2) work is the elementwise
/// dot, reduced over fixed-grain row chunks in ascending order.
double centered_trace(const Tensor& kx, const Tensor& ky, const GramSums& sx,
                      const GramSums& sy) {
  const auto m = kx.dim(0);
  const float* px = kx.data().data();
  const float* py = ky.data().data();
  const double dot = runtime::parallel_reduce(
      std::int64_t{0}, m, runtime::grain_for(m), 0.0,
      [&](std::int64_t i0, std::int64_t i1) {
        double acc = 0.0;
        for (std::int64_t u = i0 * m; u < i1 * m; ++u) {
          acc += static_cast<double>(px[u]) * static_cast<double>(py[u]);
        }
        return acc;
      },
      [](double a, double b) { return a + b; });
  double row_dot = 0.0, col_dot = 0.0;
  for (std::int64_t i = 0; i < m; ++i) {
    row_dot += sx.row[static_cast<std::size_t>(i)] * sy.row[static_cast<std::size_t>(i)];
    col_dot += sx.col[static_cast<std::size_t>(i)] * sy.col[static_cast<std::size_t>(i)];
  }
  const double dm = static_cast<double>(m);
  return dot - row_dot / dm - col_dot / dm + sx.total * sy.total / (dm * dm);
}

void check_grams(const Tensor& kx, const Tensor& ky) {
  if (kx.rank() != 2 || kx.dim(0) != kx.dim(1) || !(kx.shape() == ky.shape())) {
    throw std::invalid_argument("hsic: Gram matrices must be square and equal");
  }
}

/// g * (H A H) built directly from precomputed sums: the gradient of the
/// fused trace with respect to the *other* Gram matrix. O(m^2), no GEMM,
/// no H.
Tensor centered_scaled(const Tensor& a, const GramSums& s, float g) {
  const auto m = a.dim(0);
  const double dm = static_cast<double>(m);
  const double grand = s.total / (dm * dm);
  Tensor out(a.shape());
  const float* pa = a.data().data();
  float* po = out.data().data();
  runtime::parallel_for(
      0, m, runtime::grain_for(m), [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const double ri = s.row[static_cast<std::size_t>(i)] / dm;
          for (std::int64_t j = 0; j < m; ++j) {
            po[i * m + j] = g * static_cast<float>(
                                    pa[i * m + j] -
                                    s.col[static_cast<std::size_t>(j)] / dm -
                                    ri + grand);
          }
        }
      });
  return out;
}

}  // namespace

float hsic(const Tensor& kx, const Tensor& ky) {
  check_grams(kx, ky);
  const auto m = kx.dim(0);
  if (m < 2) return 0.0f;
  const GramSums sx = gram_sums(kx);
  const GramSums sy = gram_sums(ky);
  const double denom = static_cast<double>(m - 1) * static_cast<double>(m - 1);
  return static_cast<float>(centered_trace(kx, ky, sx, sy) / denom);
}

ag::Var hsic(const ag::Var& kx, const ag::Var& ky) {
  check_grams(kx.value(), ky.value());
  const auto m = kx.shape()[0];
  if (m < 2) return ag::Var::constant(Tensor::scalar(0.0f));
  const float inv_denom =
      1.0f / (static_cast<float>(m - 1) * static_cast<float>(m - 1));
  // Fused forward (same path as the plain overload) with a closed-form
  // backward: d tr((H Kx H) Ky^T)/d Kx = H Ky H and symmetrically for Ky,
  // both assembled from row/column/grand sums — the explicit H matrix and the
  // two O(m^3) centering matmuls of the old graph are gone from both passes.
  GramSums sx = gram_sums(kx.value());
  GramSums sy = gram_sums(ky.value());
  const float tr = static_cast<float>(
      centered_trace(kx.value(), ky.value(), sx, sy) * inv_denom);
  // The closure keeps the forward's sums (2m doubles each) so backward never
  // re-sweeps the Gram matrices it already summed.
  return ag::make_op(
      Tensor::scalar(tr), {kx, ky},
      [inv_denom, sx = std::move(sx), sy = std::move(sy)](ag::Node& n) {
        const float g = n.grad.item() * inv_denom;
        if (n.parents[0]->requires_grad) {
          n.parents[0]->accumulate(centered_scaled(n.parents[1]->value, sy, g));
        }
        if (n.parents[1]->requires_grad) {
          n.parents[1]->accumulate(centered_scaled(n.parents[0]->value, sx, g));
        }
      });
}

float hsic_gaussian(const Tensor& x, const Tensor& y, float sigma_x,
                    float sigma_y) {
  const float sx = sigma_x > 0 ? sigma_x : scaled_sigma(x.dim(1));
  const float sy = sigma_y > 0 ? sigma_y : scaled_sigma(y.dim(1));
  return hsic(gram_gaussian(x, sx), gram_gaussian(y, sy));
}

}  // namespace ibrar::mi
