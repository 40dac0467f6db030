#include "train/evaluate.hpp"

#include <algorithm>
#include <stdexcept>

#include "attacks/registry.hpp"
#include "util/stopwatch.hpp"

namespace ibrar::train {
namespace {

/// Examples a sweep covers; rejects the batch sizes its loop could never
/// finish with.
std::int64_t sweep_size(const data::Dataset& ds, std::int64_t batch_size,
                        std::int64_t max_samples, const char* who) {
  if (batch_size <= 0) {
    throw std::invalid_argument(std::string(who) + ": batch_size must be > 0");
  }
  return max_samples <= 0 ? ds.size() : std::min(max_samples, ds.size());
}

}  // namespace

RobustReport evaluate_robust(models::TapClassifier& model,
                             const data::Dataset& ds,
                             const std::vector<attacks::Attack*>& suite,
                             const RobustEvalConfig& cfg) {
  Stopwatch total_sw;
  RobustReport report;
  report.examples =
      sweep_size(ds, cfg.batch_size, cfg.max_samples, "evaluate_robust");
  report.worst_case_correct.assign(
      static_cast<std::size_t>(report.examples), 1);
  report.per_attack.resize(suite.size());
  for (std::size_t a = 0; a < suite.size(); ++a) {
    report.per_attack[a].name = suite[a]->name();
  }

  std::int64_t clean_correct = 0;
  std::vector<std::int64_t> attack_correct(suite.size(), 0);

  for (std::int64_t start = 0; start < report.examples;
       start += cfg.batch_size) {
    const auto end = std::min(start + cfg.batch_size, report.examples);
    const auto batch = data::make_batch(ds, start, end);

    if (cfg.with_clean) {
      const auto clean_pred = attacks::predict(model, batch.x);
      for (std::size_t i = 0; i < clean_pred.size(); ++i) {
        const bool ok = clean_pred[i] == batch.y[i];
        clean_correct += ok ? 1 : 0;
        if (!ok) {
          report.worst_case_correct[static_cast<std::size_t>(start) + i] = 0;
        }
      }
    }

    for (std::size_t a = 0; a < suite.size(); ++a) {
      AttackResult& res = report.per_attack[a];
      Stopwatch sw;
      const Tensor adv = suite[a]->perturb(model, batch.x, batch.y);
      const auto* comp =
          dynamic_cast<const attacks::CompositeAttack*>(suite[a]);
      std::vector<std::uint8_t> ok_mask(static_cast<std::size_t>(batch.size()));
      if (comp != nullptr) {
        // The composite already predicted every stage output to build its
        // survivor mask; reuse it instead of re-forwarding the batch.
        for (std::size_t i = 0; i < ok_mask.size(); ++i) {
          ok_mask[i] = comp->last_success()[i] ? 0 : 1;
        }
      } else {
        const auto pred = attacks::predict(model, adv);
        for (std::size_t i = 0; i < pred.size(); ++i) {
          ok_mask[i] = pred[i] == batch.y[i] ? 1 : 0;
        }
      }
      res.seconds += sw.seconds();
      for (std::size_t i = 0; i < ok_mask.size(); ++i) {
        attack_correct[a] += ok_mask[i] ? 1 : 0;
        if (!ok_mask[i]) {
          report.worst_case_correct[static_cast<std::size_t>(start) + i] = 0;
        }
      }
      if (comp != nullptr) {
        const auto& trace = comp->last_trace();
        if (res.stages.size() != trace.size()) res.stages.resize(trace.size());
        for (std::size_t s = 0; s < trace.size(); ++s) {
          res.stages[s].name = trace[s].name;
          res.stages[s].forwarded += trace[s].forwarded;
          res.stages[s].fooled += trace[s].fooled;
        }
      }
    }
  }

  const auto n = report.examples;
  report.clean_acc =
      !cfg.with_clean
          ? -1.0
          : (n > 0 ? static_cast<double>(clean_correct) / static_cast<double>(n)
                   : 0.0);
  std::int64_t worst = 0;
  for (const auto ok : report.worst_case_correct) worst += ok ? 1 : 0;
  report.worst_case_acc =
      n > 0 ? static_cast<double>(worst) / static_cast<double>(n) : 0.0;
  for (std::size_t a = 0; a < suite.size(); ++a) {
    AttackResult& res = report.per_attack[a];
    res.robust_acc =
        n > 0 ? static_cast<double>(attack_correct[a]) / static_cast<double>(n)
              : 0.0;
    res.ns_per_example = n > 0 ? res.seconds * 1e9 / static_cast<double>(n) : 0.0;
    // Composite stages: cumulative accuracy = survivors of stages 0..s.
    std::int64_t fooled_so_far = 0;
    for (auto& st : res.stages) {
      fooled_so_far += st.fooled;
      st.robust_acc =
          n > 0 ? static_cast<double>(n - fooled_so_far) / static_cast<double>(n)
                : 0.0;
    }
  }
  report.seconds = total_sw.seconds();
  return report;
}

RobustReport evaluate_robust(models::TapClassifier& model,
                             const data::Dataset& ds,
                             const std::vector<std::string>& specs,
                             const RobustEvalConfig& cfg,
                             const attacks::AttackConfig& defaults) {
  std::vector<attacks::AttackPtr> owned;
  owned.reserve(specs.size());
  std::vector<attacks::Attack*> suite;
  suite.reserve(specs.size());
  for (const auto& s : specs) {
    owned.push_back(attacks::parse_spec(s, defaults));
    suite.push_back(owned.back().get());
  }
  return evaluate_robust(model, ds, suite, cfg);
}

std::vector<std::int64_t> adversarial_predictions(
    models::TapClassifier& model, const data::Dataset& ds,
    attacks::Attack& attack, std::int64_t batch_size, std::int64_t max_samples) {
  const auto n =
      sweep_size(ds, batch_size, max_samples, "adversarial_predictions");
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t start = 0; start < n; start += batch_size) {
    const auto end = std::min(start + batch_size, n);
    const auto batch = data::make_batch(ds, start, end);
    const Tensor adv = attack.perturb(model, batch.x, batch.y);
    const auto pred = attacks::predict(model, adv);
    out.insert(out.end(), pred.begin(), pred.end());
  }
  return out;
}

}  // namespace ibrar::train
