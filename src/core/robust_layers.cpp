#include "core/robust_layers.hpp"

#include "core/ibrar.hpp"
#include "train/evaluate.hpp"
#include "util/logging.hpp"

namespace ibrar::core {
namespace {

struct ProbeAccuracy {
  double adv = 0.0;
  double clean = 0.0;
};

/// PGD accuracy on cfg.eval_samples test examples, then clean accuracy on
/// the whole test set: two sweeps, because the sample counts differ.
ProbeAccuracy probe_accuracy(models::TapClassifier& model,
                             const data::Dataset& test_set,
                             const RobustLayerConfig& cfg) {
  attacks::PGD pgd(cfg.eval_attack);
  const std::int64_t batch = cfg.train.batch_size;
  ProbeAccuracy acc;
  acc.adv = train::evaluate_robust(model, test_set, {&pgd},
                                   {batch, cfg.eval_samples,
                                    /*with_clean=*/false})
                .per_attack.front()
                .robust_acc;
  acc.clean = train::evaluate_robust(model, test_set,
                                     std::vector<attacks::Attack*>{},
                                     {batch, -1})
                  .clean_acc;
  return acc;
}

}  // namespace

RobustLayerReport RobustLayerSelector::select(const data::Dataset& train_set,
                                              const data::Dataset& test_set) {
  RobustLayerReport report;

  // Baseline: CE only.
  {
    Rng rng(cfg_.train.seed);
    auto model = factory_(rng);
    train::Trainer trainer(model, std::make_shared<train::CEObjective>(),
                           cfg_.train);
    trainer.fit(train_set);
    const auto acc = probe_accuracy(*model, test_set, cfg_);
    report.baseline_adv_acc = acc.adv;
    report.baseline_test_acc = acc.clean;
    logging::info("robust-layers baseline: adv=", report.baseline_adv_acc,
              " clean=", report.baseline_test_acc);
  }

  // One probe network per tap, MI loss restricted to that tap.
  std::vector<std::string> tap_names;
  {
    Rng rng(cfg_.train.seed);
    tap_names = factory_(rng)->tap_names();
  }
  for (const auto& layer : tap_names) {
    Rng rng(cfg_.train.seed);
    auto model = factory_(rng);
    MILossConfig mi;
    mi.alpha = cfg_.alpha;
    mi.beta = cfg_.beta;
    mi.selection = LayerSelection::kExplicit;
    mi.layers = {layer};
    auto obj = std::make_shared<IBRARObjective>(nullptr, mi);
    train::Trainer trainer(model, obj, cfg_.train);
    trainer.fit(train_set);

    const auto acc = probe_accuracy(*model, test_set, cfg_);
    LayerProbeResult r;
    r.layer = layer;
    r.adv_acc = acc.adv;
    r.test_acc = acc.clean;
    r.robust = r.adv_acc >= report.baseline_adv_acc + cfg_.margin;
    logging::info("robust-layers probe ", layer, ": adv=", r.adv_acc,
              " clean=", r.test_acc, r.robust ? "  [ROBUST]" : "");
    if (r.robust) report.robust_layers.push_back(layer);
    report.per_layer.push_back(std::move(r));
  }

  // Fallback: if nothing cleared the margin, take the best layer — the
  // downstream MILossConfig requires a non-empty set.
  if (report.robust_layers.empty() && !report.per_layer.empty()) {
    const auto best = std::max_element(
        report.per_layer.begin(), report.per_layer.end(),
        [](const auto& a, const auto& b) { return a.adv_acc < b.adv_acc; });
    report.robust_layers.push_back(best->layer);
  }
  return report;
}

}  // namespace ibrar::core
