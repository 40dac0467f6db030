#include "core/feature_mask.hpp"

#include "mi/channel_score.hpp"

namespace ibrar::core {

std::vector<float> last_conv_channel_scores(models::TapClassifier& model,
                                            const data::Batch& batch) {
  ag::NoGradGuard ng;
  // Score the unmasked representation so previously-dropped channels can be
  // re-evaluated rather than frozen at score ~0.
  const bool had_mask = model.has_channel_mask();
  const Tensor saved_mask = model.channel_mask();
  model.clear_channel_mask();
  auto out = model.eval_forward_with_taps(ag::Var::constant(batch.x));
  const Tensor feats = out.taps.at(model.last_conv_tap_index()).value();
  if (had_mask) model.set_channel_mask(saved_mask);
  return mi::channel_label_scores(feats, batch.y, model.num_classes());
}

std::vector<float> FeatureMask::update(models::TapClassifier& model,
                                       const data::Dataset& ds) {
  const auto n = std::min<std::int64_t>(cfg_.scoring_samples, ds.size());
  std::vector<std::int64_t> idx(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) idx[static_cast<std::size_t>(i)] = i;
  const auto batch = data::make_batch(ds, idx);
  const auto scores = last_conv_channel_scores(model, batch);
  model.set_channel_mask(mi::mask_from_scores(scores, cfg_.drop_fraction));
  return scores;
}

}  // namespace ibrar::core
