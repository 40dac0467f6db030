#include "attacks/engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/profile.hpp"
#include "runtime/parallel_for.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/reduce.hpp"

namespace ibrar::attacks::engine {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

std::vector<std::int64_t> iota_rows(std::int64_t n) {
  std::vector<std::int64_t> r(static_cast<std::size_t>(n));
  std::iota(r.begin(), r.end(), 0);
  return r;
}

}  // namespace

// ---- loss builders ----------------------------------------------------------

LossBuilder ce_loss() {
  return [](models::TapClassifier& model, const ag::Var& input,
            const std::vector<std::int64_t>& y,
            const std::vector<std::int64_t>& /*rows*/, ag::Var* logits_out) {
    ag::Var logits = model.forward(input);
    *logits_out = logits;
    return ag::cross_entropy(logits, y);
  };
}

LossBuilder kl_vs_clean_loss(Tensor p_clean) {
  return [p = std::move(p_clean)](models::TapClassifier& model,
                                  const ag::Var& input,
                                  const std::vector<std::int64_t>& /*y*/,
                                  const std::vector<std::int64_t>& rows,
                                  ag::Var* logits_out) {
    ag::Var logits = model.forward(input);
    *logits_out = logits;
    const Tensor p_rows = static_cast<std::int64_t>(rows.size()) == p.dim(0)
                              ? p
                              : take_rows(p, rows);
    return ag::kl_div(ag::Var::constant(p_rows), ag::log_softmax(logits));
  };
}

// ---- shared sub-primitives --------------------------------------------------

std::vector<std::int64_t> best_wrong_class(const Tensor& logits,
                                           const std::vector<std::int64_t>& y) {
  const auto m = logits.dim(0), c = logits.dim(1);
  std::vector<std::int64_t> idx(static_cast<std::size_t>(m));
  for (std::int64_t i = 0; i < m; ++i) {
    float best = -std::numeric_limits<float>::infinity();
    std::int64_t bj = y[static_cast<std::size_t>(i)] == 0 ? 1 : 0;
    for (std::int64_t j = 0; j < c; ++j) {
      if (j == y[static_cast<std::size_t>(i)]) continue;
      if (logits.at(i, j) > best) {
        best = logits.at(i, j);
        bj = j;
      }
    }
    idx[static_cast<std::size_t>(i)] = bj;
  }
  return idx;
}

std::vector<std::int64_t> subset(const std::vector<std::int64_t>& v,
                                 const std::vector<std::int64_t>& idx) {
  std::vector<std::int64_t> out;
  out.reserve(idx.size());
  for (const auto i : idx) out.push_back(v.at(static_cast<std::size_t>(i)));
  return out;
}

BestTracker::BestTracker(const Tensor& init)
    : best_(init),
      metric_(static_cast<std::size_t>(init.dim(0)), kInf),
      row_size_(init.dim(0) > 0 ? init.numel() / init.dim(0) : 0) {}

BestTracker::BestTracker(Tensor init, std::vector<float> metric)
    : best_(std::move(init)),
      metric_(std::move(metric)),
      row_size_(best_.dim(0) > 0 ? best_.numel() / best_.dim(0) : 0) {
  if (metric_.size() != static_cast<std::size_t>(best_.dim(0))) {
    throw std::invalid_argument("BestTracker: metric length != rows");
  }
}

void BestTracker::update_rows(const std::vector<std::int64_t>& rows,
                              const Tensor& cand,
                              const std::vector<float>& metric) {
  const auto k = static_cast<std::int64_t>(rows.size());
  runtime::parallel_for(
      0, k, runtime::grain_for(row_size_),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const auto u = static_cast<std::size_t>(i);
          const auto r = rows[u];
          if (metric[u] < metric_[static_cast<std::size_t>(r)]) {
            metric_[static_cast<std::size_t>(r)] = metric[u];
            std::copy_n(cand.data().begin() + i * row_size_, row_size_,
                        best_.data().begin() + r * row_size_);
          }
        }
      });
}

void BestTracker::overwrite_row(std::int64_t row, const Tensor& cand,
                                std::int64_t cand_row, float metric) {
  metric_[static_cast<std::size_t>(row)] = metric;
  std::copy_n(cand.data().begin() + cand_row * row_size_, row_size_,
              best_.data().begin() + row * row_size_);
}

void BestTracker::overwrite_rows(const std::vector<std::int64_t>& rows,
                                 const Tensor& cand) {
  const auto k = static_cast<std::int64_t>(rows.size());
  runtime::parallel_for(
      0, k, runtime::grain_for(row_size_),
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) {
          const auto r = rows[static_cast<std::size_t>(i)];
          std::copy_n(cand.data().begin() + i * row_size_, row_size_,
                      best_.data().begin() + r * row_size_);
        }
      });
}

void BestTracker::fill_unimproved(const std::vector<std::int64_t>& rows,
                                  const Tensor& cand) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto r = rows[i];
    if (std::isinf(metric_[static_cast<std::size_t>(r)])) {
      std::copy_n(cand.data().begin() +
                      static_cast<std::int64_t>(i) * row_size_,
                  row_size_, best_.data().begin() + r * row_size_);
    }
  }
}

bool BestTracker::improved(std::int64_t row) const {
  return !std::isinf(metric_[static_cast<std::size_t>(row)]);
}

ActiveSet::ActiveSet(std::int64_t n) : rows_(iota_rows(n)) {}

std::vector<std::int64_t> ActiveSet::retain(const std::vector<char>& keep) {
  if (keep.size() != rows_.size()) {
    throw std::invalid_argument("ActiveSet::retain: flag length != size");
  }
  std::vector<std::int64_t> kept_local;
  kept_local.reserve(rows_.size());
  std::vector<std::int64_t> kept_rows;
  kept_rows.reserve(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    if (keep[i]) {
      kept_local.push_back(static_cast<std::int64_t>(i));
      kept_rows.push_back(rows_[i]);
    }
  }
  rows_ = std::move(kept_rows);
  return kept_local;
}

// ---- the engine loop --------------------------------------------------------

Tensor run(models::TapClassifier& model, const Tensor& x,
           const std::vector<std::int64_t>& y, const AttackConfig& cfg,
           const Spec& spec, Rng& rng) {
  static obs::ProfileSite& prof = obs::profile_site("attacks/engine.run");
  obs::ProfileScope prof_scope(prof);
  if (x.rank() < 1 || x.dim(0) == 0) return x;
  const std::int64_t n = x.dim(0);
  if (y.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("engine::run: labels length != batch size");
  }
  if (cfg.active_set && (spec.l1_normalize || spec.batch_coupled_loss)) {
    throw std::invalid_argument(
        "engine::run: active_set=1 is incompatible with batch-coupled "
        "compositions (batch-mean L1 gradient normalization or MI losses) — "
        "dropping rows would change the surviving examples' trajectories; "
        "disable active_set for this attack");
  }
  if (cfg.active_set && spec.step == Step::kNesterovSign) {
    throw std::invalid_argument(
        "engine::run: active_set=1 is incompatible with Nesterov steps — the "
        "per-step logits are evaluated at the look-ahead point, not the "
        "iterate the active set would record");
  }
  const LossBuilder loss = spec.loss ? spec.loss : ce_loss();

  AttackModeGuard guard(model);

  const bool noisy = (spec.init == Init::kUniformBall && cfg.random_start) ||
                     spec.init == Init::kGaussian;
  // Without a random start every trajectory is identical, so extra restarts
  // would just repeat the first one at full cost (seed-PGD semantics).
  const std::int64_t restarts =
      noisy ? std::max<std::int64_t>(1, cfg.restarts) : 1;
  const float alpha = spec.step_size >= 0.0f ? spec.step_size : cfg.alpha;

  BestMode best = cfg.track_best;
  if (best == BestMode::kAuto) {
    best = restarts > 1 ? BestMode::kPerRestart : BestMode::kLastIterate;
  }
  // Last-iterate across restarts would throw away every trajectory but the
  // final one; promote to the seed implementation's per-restart tracking.
  if (restarts > 1 && best == BestMode::kLastIterate) {
    best = BestMode::kPerRestart;
  }
  // The active set retires examples at their first misclassified iterate, so
  // it implies per-step tracking: the margins are already computed, and only
  // under kPerStep does the full-batch run return a misclassified iterate for
  // exactly the same examples — keeping the scheduler cost-only. (Comparing
  // against an active_set=0 run therefore needs best=step there too.)
  if (cfg.active_set) best = BestMode::kPerStep;

  BestTracker tracker(x);
  std::vector<std::uint8_t> done(static_cast<std::size_t>(n), 0);

  for (std::int64_t r = 0; r < restarts; ++r) {
    // Init noise is drawn for the FULL batch even when the active set has
    // shrunk: the stream then depends only on (seed, restart, position), so
    // survivors see bit-identical draws with the active set on or off.
    Tensor start = x;
    if (noisy) {
      const Tensor noise =
          spec.init == Init::kUniformBall
              ? rand_uniform(x.shape(), rng, -cfg.eps, cfg.eps)
              : randn(x.shape(), rng, 0.0f, spec.init_sigma);
      start = add(start, noise);
      project_linf(start, x, cfg.eps, cfg.clip_lo, cfg.clip_hi);
    }

    std::vector<std::int64_t> rows;
    Tensor adv, xw;
    std::vector<std::int64_t> yw;
    if (cfg.active_set) {
      rows.reserve(static_cast<std::size_t>(n));
      for (std::int64_t i = 0; i < n; ++i) {
        if (!done[static_cast<std::size_t>(i)]) rows.push_back(i);
      }
      // continue, not break: later restarts must still consume their noise
      // draws (above) so the persistent stream never shifts with retirement.
      if (rows.empty()) continue;
      adv = take_rows(start, rows);
      xw = take_rows(x, rows);
      yw = subset(y, rows);
    } else {
      rows = iota_rows(n);
      adv = start;
      xw = x;
      yw = y;
    }

    Tensor g_acc;
    if (spec.step != Step::kSign) g_acc = Tensor(adv.shape());

    for (std::int64_t s = 0; s < cfg.steps; ++s) {
      static obs::ProfileSite& step_prof =
          obs::profile_site("attacks/engine.step");
      obs::ProfileScope step_scope(step_prof);
      Tensor point = adv;
      if (spec.step == Step::kNesterovSign) {
        point = add(adv, mul_scalar(g_acc, alpha * spec.decay));
        project_linf(point, xw, cfg.eps, cfg.clip_lo, cfg.clip_hi);
      }

      ag::Var input = ag::Var::param(point);
      ag::Var logits;
      ag::Var l = loss(model, input, yw, rows, &logits);
      l.backward();
      Tensor g = input.grad();

      if (cfg.active_set || best == BestMode::kPerStep) {
        // Margins were measured at `point` (== adv for sign steps, the
        // projected look-ahead for Nesterov), so `point` is the iterate the
        // tracker must pair with them — metric and tensor always agree.
        const auto m = attacks::margin_loss(logits.value(), yw);
        if (best == BestMode::kPerStep) tracker.update_rows(rows, point, m);
        if (cfg.active_set) {
          // update_rows above already recorded every misclassified iterate
          // (active_set implies kPerStep), so retirement is pure bookkeeping.
          std::vector<std::int64_t> keep_local;
          keep_local.reserve(rows.size());
          for (std::size_t i = 0; i < rows.size(); ++i) {
            if (m[i] < 0.0f) {
              done[static_cast<std::size_t>(rows[i])] = 1;
            } else {
              keep_local.push_back(static_cast<std::int64_t>(i));
            }
          }
          if (keep_local.size() != rows.size()) {
            if (keep_local.empty()) {
              rows.clear();
              break;
            }
            adv = take_rows(adv, keep_local);
            xw = take_rows(xw, keep_local);
            g = take_rows(g, keep_local);
            yw = subset(yw, keep_local);
            rows = subset(rows, keep_local);
            if (spec.step != Step::kSign) g_acc = take_rows(g_acc, keep_local);
          }
        }
      }

      if (spec.l1_normalize) {
        const float l1 = sum_all(abs(g)) / static_cast<float>(g.dim(0));
        if (l1 > 1e-12f) g = mul_scalar(g, 1.0f / l1);
      }

      switch (spec.step) {
        case Step::kSign:
          adv = add(adv, mul_scalar(sign(g), alpha));
          break;
        case Step::kMomentumSign:
        case Step::kNesterovSign:
          g_acc = add(mul_scalar(g_acc, spec.decay), g);
          adv = add(adv, mul_scalar(sign(g_acc), alpha));
          break;
      }
      project_linf(adv, xw, cfg.eps, cfg.clip_lo, cfg.clip_hi);
    }

    if (rows.empty()) continue;  // everything retired mid-trajectory

    if (best == BestMode::kLastIterate) {
      tracker.overwrite_rows(rows, adv);
    } else {
      // Trajectory-end margin evaluation (the seed multi-restart forward);
      // kPerStep needs it too, since the loop only saw pre-step iterates.
      std::vector<float> m;
      {
        ag::NoGradGuard ng;
        m = attacks::margin_loss(model.forward(ag::Var::constant(adv)).value(),
                                 yw);
      }
      tracker.update_rows(rows, adv, m);
      if (cfg.active_set) {
        for (std::size_t i = 0; i < rows.size(); ++i) {
          if (m[i] < 0.0f) done[static_cast<std::size_t>(rows[i])] = 1;
        }
      }
    }
  }
  return tracker.release();
}

}  // namespace ibrar::attacks::engine
