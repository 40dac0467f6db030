#include "data/synthetic.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace ibrar::data {
namespace {

constexpr float kPi = std::numbers::pi_v<float>;

/// Smooth random field: sum of `waves` random sinusoids with frequencies in
/// [f_lo, f_hi] cycles per image, unit-normalized amplitude.
Tensor random_field(std::int64_t channels, std::int64_t size, Rng& rng,
                    float f_lo, float f_hi, std::int64_t waves) {
  Tensor field({channels, size, size});
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t w = 0; w < waves; ++w) {
      const float fx = rng.uniform(f_lo, f_hi) * (rng.bernoulli(0.5) ? 1.f : -1.f);
      const float fy = rng.uniform(f_lo, f_hi) * (rng.bernoulli(0.5) ? 1.f : -1.f);
      const float phase = rng.uniform(0.0f, 2.0f * kPi);
      const float amp = rng.uniform(0.5f, 1.0f);
      for (std::int64_t y = 0; y < size; ++y) {
        for (std::int64_t x = 0; x < size; ++x) {
          const float ang = 2.0f * kPi *
                                (fx * static_cast<float>(x) +
                                 fy * static_cast<float>(y)) /
                                static_cast<float>(size) +
                            phase;
          field.at(c, y, x) += amp * std::sin(ang);
        }
      }
    }
  }
  // Normalize to unit RMS so amplitudes in the config are comparable.
  double ss = 0.0;
  for (const auto v : field.data()) ss += double(v) * v;
  const float rms = static_cast<float>(std::sqrt(ss / field.numel()));
  if (rms > 0) {
    for (auto& v : field.data()) v /= rms;
  }
  return field;
}

/// Circularly shift an image (C,H,W) by (dy, dx).
void shift_into(const Tensor& src, Tensor& dst, std::int64_t dy, std::int64_t dx) {
  const auto c = src.dim(0), h = src.dim(1), w = src.dim(2);
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < h; ++y) {
      const std::int64_t sy = ((y - dy) % h + h) % h;
      for (std::int64_t x = 0; x < w; ++x) {
        const std::int64_t sx = ((x - dx) % w + w) % w;
        dst.at(ic, y, x) = src.at(ic, sy, sx);
      }
    }
  }
}

std::vector<std::int64_t> sample_labels(const SyntheticConfig& cfg,
                                        std::int64_t n, Rng& rng) {
  std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
  if (cfg.class_weights.empty()) {
    // Balanced: round-robin then shuffle, so counts are exactly even.
    for (std::int64_t i = 0; i < n; ++i) {
      labels[static_cast<std::size_t>(i)] = i % cfg.num_classes;
    }
    rng.shuffle(labels);
  } else {
    if (static_cast<std::int64_t>(cfg.class_weights.size()) != cfg.num_classes) {
      throw std::invalid_argument("class_weights size mismatch");
    }
    double total = 0.0;
    for (const auto w : cfg.class_weights) total += w;
    for (auto& y : labels) {
      double u = rng.uniform(0.0f, 1.0f) * total;
      std::int64_t c = 0;
      while (c + 1 < cfg.num_classes && u > cfg.class_weights[static_cast<std::size_t>(c)]) {
        u -= cfg.class_weights[static_cast<std::size_t>(c)];
        ++c;
      }
      y = c;
    }
  }
  return labels;
}

/// `base` holds the crisp per-class content (non-robust + shared features);
/// `robust` the unit-normalized robust field, scaled per SAMPLE below so ERM
/// cannot rely on it as confidently as on the crisp component.
Dataset render_split(const SyntheticConfig& cfg, const Tensor& base,
                     const Tensor& robust, std::int64_t n, Rng& rng,
                     const std::vector<std::string>& names) {
  Dataset ds;
  ds.num_classes = cfg.num_classes;
  ds.class_names = names;
  ds.labels = sample_labels(cfg, n, rng);
  ds.images = Tensor({n, cfg.channels, cfg.image_size, cfg.image_size});

  const std::int64_t img_elems = cfg.channels * cfg.image_size * cfg.image_size;
  Tensor proto_view({cfg.channels, cfg.image_size, cfg.image_size});
  Tensor shifted(proto_view.shape());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto y = ds.labels[static_cast<std::size_t>(i)];
    const float robust_scale =
        cfg.robust_amplitude *
        (1.0f - cfg.robust_jitter * rng.uniform(0.0f, 1.0f));
    const float* pb = base.data().data() + y * img_elems;
    const float* pr = robust.data().data() + y * img_elems;
    for (std::int64_t k = 0; k < img_elems; ++k) {
      proto_view.data()[static_cast<std::size_t>(k)] =
          pb[k] + robust_scale * pr[k];
    }
    const std::int64_t dy = rng.randint(-cfg.max_shift, cfg.max_shift);
    const std::int64_t dx = rng.randint(-cfg.max_shift, cfg.max_shift);
    shift_into(proto_view, shifted, dy, dx);
    const float bright = rng.uniform(-cfg.brightness_jitter, cfg.brightness_jitter);
    float* dst = ds.images.data().data() + i * img_elems;
    const float* src = shifted.data().data();
    for (std::int64_t k = 0; k < img_elems; ++k) {
      const float v = src[k] + bright + rng.normal(0.0f, cfg.noise_std);
      dst[k] = std::min(1.0f, std::max(0.0f, v));
    }
  }
  return ds;
}

}  // namespace

SyntheticData generate(const SyntheticConfig& cfg) {
  Rng rng(cfg.seed);
  const auto cN = cfg.num_classes;
  const auto sz = cfg.image_size;
  const auto ch = cfg.channels;

  std::vector<std::string> names = cfg.class_names;
  if (names.empty()) {
    for (std::int64_t c = 0; c < cN; ++c) names.push_back("class" + std::to_string(c));
  }

  // Per-pair shared fields first, so each similar pair has a common component.
  std::vector<Tensor> shared_fields;
  shared_fields.reserve(cfg.shared_pairs.size());
  for (std::size_t p = 0; p < cfg.shared_pairs.size(); ++p) {
    shared_fields.push_back(random_field(ch, sz, rng, 0.5f, 2.0f, 4));
  }

  // `base` carries the crisp content (non-robust + shared); `robust_fields`
  // the unit robust fields, mixed in per sample with amplitude jitter.
  Tensor base({cN, ch, sz, sz});
  Tensor robust_fields({cN, ch, sz, sz});
  const std::int64_t img_elems = ch * sz * sz;
  for (std::int64_t c = 0; c < cN; ++c) {
    Tensor robust = random_field(ch, sz, rng, 0.5f, 2.0f, 4);
    Tensor nonrobust = random_field(ch, sz, rng, 4.0f, 7.0f, 4);
    float* dst = base.data().data() + c * img_elems;
    float* rdst = robust_fields.data().data() + c * img_elems;
    const float* pr = robust.data().data();
    const float* pn = nonrobust.data().data();
    for (std::int64_t k = 0; k < img_elems; ++k) {
      dst[k] = 0.5f + cfg.nonrobust_amplitude * pn[k];
      rdst[k] = pr[k];
    }
    for (std::size_t p = 0; p < cfg.shared_pairs.size(); ++p) {
      const auto& [a, b] = cfg.shared_pairs[p];
      if (a == c || b == c) {
        const float* ps = shared_fields[p].data().data();
        for (std::int64_t k = 0; k < img_elems; ++k) {
          dst[k] += cfg.shared_amplitude * ps[k];
        }
      }
    }
  }

  SyntheticData out;
  // Exported prototypes = mean image (robust field at its mean amplitude).
  out.prototypes = base;
  {
    const float mean_scale =
        cfg.robust_amplitude * (1.0f - 0.5f * cfg.robust_jitter);
    for (std::int64_t k = 0; k < out.prototypes.numel(); ++k) {
      out.prototypes[k] += mean_scale * robust_fields[k];
    }
  }
  Rng train_rng = rng.fork(1);
  Rng test_rng = rng.fork(2);
  out.train = render_split(cfg, base, robust_fields, cfg.train_size, train_rng,
                           names);
  out.test = render_split(cfg, base, robust_fields, cfg.test_size, test_rng,
                          names);
  return out;
}

SyntheticConfig cifar10_like(std::int64_t train_size, std::int64_t test_size,
                             std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_classes = 10;
  cfg.train_size = train_size;
  cfg.test_size = test_size;
  cfg.seed = seed;
  cfg.class_names = {"plane", "car", "bird", "cat", "deer",
                     "dog", "frog", "horse", "ship", "truck"};
  // Confusable pairs chosen to match the tendencies in the paper's Table 5.
  cfg.shared_pairs = {{1, 9},   // car <-> truck
                      {3, 5},   // cat <-> dog
                      {2, 4},   // bird <-> deer
                      {0, 8},   // plane <-> ship
                      {4, 7},   // deer <-> horse
                      {3, 6}};  // cat <-> frog
  return cfg;
}

SyntheticConfig cifar100_like(std::int64_t train_size, std::int64_t test_size,
                              std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_classes = 20;  // superclass-scale stand-in for the 100 classes
  cfg.train_size = train_size;
  cfg.test_size = test_size;
  cfg.seed = seed;
  cfg.robust_amplitude = 0.26f;
  cfg.shared_amplitude = 0.24f;
  for (std::int64_t c = 0; c + 1 < cfg.num_classes; c += 2) {
    cfg.shared_pairs.emplace_back(c, c + 1);
  }
  return cfg;
}

SyntheticConfig svhn_like(std::int64_t train_size, std::int64_t test_size,
                          std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_classes = 10;
  cfg.train_size = train_size;
  cfg.test_size = test_size;
  cfg.seed = seed;
  cfg.class_names = {"0", "1", "2", "3", "4", "5", "6", "7", "8", "9"};
  // SVHN's digit distribution: '1' dominates at ~19.6% — this is the
  // accuracy plateau the paper reports for stuck MART training (Fig. 4).
  cfg.class_weights = {0.070, 0.196, 0.148, 0.120, 0.100,
                       0.092, 0.080, 0.076, 0.066, 0.052};
  // Digits share strokes heavily: chain of shared pairs.
  cfg.shared_pairs = {{1, 7}, {3, 8}, {0, 8}, {5, 6}, {4, 9}, {2, 3}};
  cfg.shared_amplitude = 0.30f;
  cfg.robust_amplitude = 0.22f;
  cfg.noise_std = 0.08f;
  return cfg;
}

SyntheticConfig tinyimagenet_like(std::int64_t train_size, std::int64_t test_size,
                                  std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_classes = 20;  // scaled stand-in for 200 classes
  cfg.train_size = train_size;
  cfg.test_size = test_size;
  cfg.seed = seed;
  cfg.robust_amplitude = 0.22f;
  cfg.shared_amplitude = 0.26f;
  cfg.noise_std = 0.10f;
  for (std::int64_t c = 0; c + 1 < cfg.num_classes; ++c) {
    if (c % 3 != 2) cfg.shared_pairs.emplace_back(c, c + 1);
  }
  return cfg;
}

}  // namespace ibrar::data
