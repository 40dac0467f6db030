#pragma once
// One-pass activation capture: run a model over a dataset in batches (eval
// mode, no autograd) and collect every tap as a flattened (n, d_l) matrix
// plus inputs, logits, predictions, and labels. The figure benches
// (bench_fig2-6) and the ibrar_analyze CLI all used to hand-roll this loop;
// they now share this one, and info_plane reads the dump in row chunks.

#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "models/classifier.hpp"

namespace ibrar::analysis {

/// Everything one tapped sweep over a dataset produces.
struct TapDump {
  std::vector<std::string> tap_names;   ///< copy of model.tap_names()
  std::vector<Tensor> taps;             ///< per tap: (n, d_l), row-flattened
  std::vector<Shape> tap_shapes;        ///< original shapes, dim 0 = n (so a
                                        ///< conv tap can be viewed as NCHW
                                        ///< again, e.g. for channel scoring)
  Tensor inputs;                        ///< (n, C*H*W) flattened inputs
  Tensor logits;                        ///< (n, num_classes)
  std::vector<std::int64_t> labels;     ///< length n
  std::vector<std::int64_t> preds;      ///< argmax over logits, length n
  double accuracy = 0.0;                ///< clean accuracy over the n rows

  std::int64_t size() const { return inputs.rank() == 2 ? inputs.dim(0) : 0; }
};

/// Capture taps for (at most `max_samples` of, <= 0 = all) `ds`, batched by
/// `batch`. The sweep rides the model's strictly-const eval forward
/// (TapClassifier::eval_forward_with_taps), so it always computes eval
/// semantics WITHOUT touching the model: no train/eval mode flip, no RNG
/// draws, no buffer writes. A training-time caller (e.g. the fig5 batch hook)
/// keeps its training flag untouched, and any number of captures can run
/// concurrently with each other and with serving forwards on one shared
/// model — the contract the multi-worker telemetry path relies on.
/// Deterministic: batches walk the dataset in order, so two captures of the
/// same model/dataset are bit-identical.
///
/// A non-empty `tap_indices` keeps only those taps (dump.tap_names/taps/
/// tap_shapes are then aligned to the selection, in the given order) — the
/// cheap form for callers like the Fig. 5 recording hook that probe one
/// layer per training batch and should not copy every tap.
TapDump capture_taps(const models::TapClassifier& model,
                     const data::Dataset& ds, std::int64_t max_samples = -1,
                     std::int64_t batch = 100,
                     const std::vector<std::size_t>& tap_indices = {});

}  // namespace ibrar::analysis
