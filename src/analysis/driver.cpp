#include "analysis/driver.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "attacks/registry.hpp"
#include "mi/channel_score.hpp"
#include "mi/hsic.hpp"
#include "tensor/ops.hpp"
#include "train/hbar.hpp"
#include "train/mart.hpp"
#include "train/trades.hpp"
#include "train/vib.hpp"

namespace ibrar::analysis {

train::ObjectivePtr make_base_objective(const std::string& name,
                                        const attacks::AttackConfig& inner,
                                        models::TapClassifier& model) {
  if (name == "CE" || name == "plain") return std::make_shared<train::CEObjective>();
  if (name == "PGD") return std::make_shared<train::PGDATObjective>(inner);
  if (name == "TRADES") return std::make_shared<train::TRADESObjective>(inner);
  if (name == "MART") return std::make_shared<train::MARTObjective>(inner);
  if (name == "HBaR") return std::make_shared<train::HBaRObjective>();
  if (name == "VIB") return std::make_shared<train::VIBObjective>(model);
  throw std::invalid_argument(
      "unknown objective " + name +
      " (expected CE|plain|PGD|TRADES|MART|HBaR|VIB)");
}

models::TapClassifierPtr train_model(const models::ModelSpec& model_spec,
                                     const data::SyntheticData& data,
                                     const TrainSpec& spec, std::uint64_t seed,
                                     std::vector<train::EpochStats>* history,
                                     const data::Dataset* test,
                                     attacks::Attack* eval_attack,
                                     std::int64_t eval_adv_samples) {
  Rng rng(seed);
  auto model = models::make_model(model_spec, rng);
  std::vector<train::EpochStats> all_stats;
  auto tc = spec.train;

  if (spec.mi_warm_start_epochs > 0) {
    // Paper A.3: "we train the network with our MI loss method at the first
    // epoch to jump out of the loop".
    auto warm = std::make_shared<core::IBRARObjective>(nullptr, spec.mi);
    auto warm_tc = tc;
    warm_tc.epochs = std::min(spec.mi_warm_start_epochs, tc.epochs);
    train::Trainer warm_trainer(model, warm, warm_tc);
    auto h = warm_trainer.fit(data.train, test, eval_attack, eval_adv_samples);
    all_stats.insert(all_stats.end(), h.begin(), h.end());
    tc.epochs -= warm_tc.epochs;
  }

  if (tc.epochs > 0) {
    train::ObjectivePtr obj;
    // "plain" + IB-RAR means the MI loss alone carries the regularization
    // (the CE term reuses the tapped forward); any other base is wrapped.
    if (spec.ibrar && (spec.base == "plain" || spec.base == "CE")) {
      obj = std::make_shared<core::IBRARObjective>(nullptr, spec.mi);
    } else if (spec.ibrar) {
      obj = std::make_shared<core::IBRARObjective>(
          make_base_objective(spec.base, spec.inner, *model), spec.mi);
    } else {
      obj = make_base_objective(spec.base, spec.inner, *model);
    }
    train::Trainer trainer(model, obj, tc);
    if (spec.ibrar) {
      trainer.epoch_hook =
          core::make_mask_hook(core::FeatureMaskConfig{}, data.train);
    }
    auto h = trainer.fit(data.train, test, eval_attack, eval_adv_samples);
    all_stats.insert(all_stats.end(), h.begin(), h.end());
  }

  if (history != nullptr) *history = std::move(all_stats);
  model->set_training(false);
  return model;
}

StepSweep attack_step_sweep(models::TapClassifier& model,
                            const data::Dataset& ds, const std::string& attack,
                            const std::vector<std::int64_t>& steps,
                            const attacks::AttackConfig& defaults,
                            std::int64_t batch, std::int64_t max_samples) {
  StepSweep sweep;
  sweep.attack = attack;
  sweep.steps = steps;
  std::vector<attacks::AttackPtr> owned;
  std::vector<attacks::Attack*> suite;
  for (const auto st : steps) {
    attacks::AttackConfig cfg = defaults;
    cfg.steps = st;
    owned.push_back(attacks::make(attack, cfg));
    suite.push_back(owned.back().get());
  }
  const auto report = train::evaluate_robust(
      model, ds, suite, {batch, max_samples, /*with_clean=*/false});
  for (const auto& point : report.per_attack) {
    sweep.robust_acc.push_back(point.robust_acc);
    sweep.seconds.push_back(point.seconds);
  }
  return sweep;
}

ClusterReport cluster_report(const TapDump& dump, std::size_t tap_index,
                             const mi::TSNEConfig& cfg) {
  if (tap_index >= dump.taps.size()) {
    throw std::out_of_range("cluster_report: tap index");
  }
  ClusterReport rep;
  const Tensor& feats = dump.taps[tap_index];
  rep.feature = mi::cluster_metrics(feats, dump.labels);
  rep.embedding_points = mi::tsne(feats, cfg);
  rep.embedding = mi::cluster_metrics(rep.embedding_points, dump.labels);
  return rep;
}

namespace {

/// Contiguous row slice [begin, end) of a 2-D tensor (one block copy).
Tensor row_slice(const Tensor& t, std::int64_t begin, std::int64_t end) {
  const auto d = t.dim(1);
  Tensor out({end - begin, d});
  std::memcpy(out.data().data(), t.data().data() + begin * d,
              sizeof(float) * static_cast<std::size_t>((end - begin) * d));
  return out;
}

}  // namespace

InfoPlane info_plane(const TapDump& dump, std::vector<std::size_t> layers,
                     std::int64_t num_classes, const InfoPlaneConfig& cfg) {
  if (layers.empty()) {
    layers.resize(dump.taps.size());
    for (std::size_t i = 0; i < layers.size(); ++i) layers[i] = i;
  }
  for (const auto li : layers) {
    if (li >= dump.taps.size()) throw std::out_of_range("info_plane: layer index");
  }
  const Tensor y = one_hot(dump.labels, num_classes);
  const float sig_x = mi::scaled_sigma(dump.inputs.dim(1), cfg.sigma_mult);
  const float sig_y = mi::scaled_sigma(num_classes, cfg.sigma_mult_y);

  // Gram-level chunk loop: per chunk, build the X / Y / tap Grams once each
  // and reuse them across both HSIC pairs and every layer. Each chunk's
  // biased estimator targets the same population HSIC, so the per-chunk
  // values average sample-weighted; chunk <= 0 is one chunk == the plain
  // batch estimator.
  const auto n = dump.size();
  const std::int64_t chunk = cfg.chunk > 0 && cfg.chunk < n ? cfg.chunk : n;
  InfoPlane plane;
  plane.layer.reserve(layers.size());
  for (const auto li : layers) plane.layer.push_back(dump.tap_names[li]);
  std::vector<double> wxt(layers.size(), 0.0), wty(layers.size(), 0.0);
  std::int64_t samples = 0;
  for (std::int64_t b = 0; b < n; b += chunk) {
    const std::int64_t e = std::min(n, b + chunk);
    if (e - b < 2) break;  // a trailing single row carries no pair information
    const double w = static_cast<double>(e - b);
    const Tensor kx = mi::gram_gaussian(row_slice(dump.inputs, b, e), sig_x);
    const Tensor ky = mi::gram_gaussian(row_slice(y, b, e), sig_y);
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const Tensor& t = dump.taps[layers[i]];
      const Tensor kt = mi::gram_gaussian(
          row_slice(t, b, e), mi::scaled_sigma(t.dim(1), cfg.sigma_mult));
      wxt[i] += w * mi::hsic(kx, kt);
      wty[i] += w * mi::hsic(ky, kt);
    }
    samples += e - b;
  }
  for (std::size_t i = 0; i < layers.size(); ++i) {
    plane.i_xt.push_back(samples > 0 ? wxt[i] / samples : 0.0);
    plane.i_ty.push_back(samples > 0 ? wty[i] / samples : 0.0);
  }
  return plane;
}

std::vector<float> last_conv_channel_scores(const TapDump& dump,
                                            const models::TapClassifier& model,
                                            std::int64_t num_classes) {
  const std::size_t idx = model.last_conv_tap_index();
  // The model's tap index only addresses a full (unfiltered) capture.
  if (dump.tap_names != model.tap_names() || idx >= dump.taps.size()) {
    throw std::invalid_argument(
        "last_conv_channel_scores: dump must be a full capture of this model");
  }
  const Tensor feats = dump.taps[idx].reshape(dump.tap_shapes[idx]);
  return mi::channel_label_scores(feats, dump.labels, num_classes);
}

}  // namespace ibrar::analysis
