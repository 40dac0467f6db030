#pragma once
// Versioned model registry: immutable snapshots behind a pointer swap.
//
// Serving must never lock the forward path against checkpoint reloads. The
// registry therefore holds the live model inside an immutable ModelSnapshot
// published through a shared_ptr that a mutex guards only while it is
// copied or swapped: workers copy the pointer once per micro-batch (a
// ref-count bump, no lock held across the forward) and keep the snapshot
// alive for exactly as long as their in-flight batch needs it. publish()
// swaps in a new version while old versions finish serving the batches that
// already grabbed them — the classic read-copy-update shape of
// hot-swappable servers.
//
// Snapshots are immutable BY TYPE: publish() puts the model into eval mode
// once and then hands it over as shared_ptr<const TapClassifier>, so the only
// forwards available to holders are eval_forward / eval_forward_with_taps.
// Those always run the model's one forward body in nn::Mode::kEval: no mode
// flips, no RNG draws, no buffer writes. That is what makes one snapshot
// safe to share across any number of serving workers and concurrent
// telemetry captures. Hot reload
// from disk goes through publish_checkpoint, which rebuilds the architecture
// from a ModelSpec and loads util/serialize checkpoint bytes into it before
// the swap.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "models/plan.hpp"
#include "models/registry.hpp"

namespace ibrar::serve {

/// One immutable published model version. The const element type means every
/// forward through a snapshot is the strictly-const eval path — enforced at
/// compile time, not by convention.
struct ModelSnapshot {
  std::shared_ptr<const models::TapClassifier> model;  ///< eval mode, immutable
  models::InferencePlan plan;      ///< model->lower(); empty if prepack=false
  std::uint64_t version = 0;       ///< monotonically increasing from 1
  std::string tag;                 ///< human label ("v2-finetuned", path, ...)
  Shape input_shape;               ///< per-sample (C, H, W) the model expects
  std::int64_t num_classes = 0;

  /// Batched tapped forward without a graph, bit-identical to
  /// model->eval_forward_with_taps: through the plan unless it is empty.
  /// Const through and through; safe from any number of threads at once.
  models::TapsOutput forward_with_taps(const Tensor& x) const {
    if (!plan.empty()) return plan.run(x);
    ag::NoGradGuard ng;
    return model->eval_forward_with_taps(ag::Var::constant(x));
  }

  /// (N, C, H, W) -> (N, num_classes) logits.
  Tensor forward(const Tensor& x) const {
    return forward_with_taps(x).logits.value();
  }
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Publish `model` as the new current version. The model is switched to
  /// eval mode here; `input_shape` is the per-sample (C, H, W) layout used to
  /// validate submissions. Returns the assigned version number.
  ///
  /// Unless `prepack` is false, the model is lowered here into the
  /// snapshot's InferencePlan — weights are packed into micro-kernel panels
  /// exactly once per published version, then shared read-only by every
  /// worker and micro-batch. The panel bytes are accounted in the
  /// `serve.snapshot_bytes` gauge and released when the last pinned snapshot
  /// of the version dies.
  std::uint64_t publish(models::TapClassifierPtr model, Shape input_shape,
                        std::string tag = "", bool prepack = true);

  /// Build `spec`'s architecture, load the util/serialize checkpoint at
  /// `path` into it (shapes must match), and publish it. Returns the new
  /// version; throws std::runtime_error on I/O, a malformed file or a shape
  /// mismatch (the previous version keeps serving untouched).
  std::uint64_t publish_checkpoint(const models::ModelSpec& spec,
                                   const std::string& path,
                                   std::string tag = "");

  /// The current snapshot (nullptr before the first publish): a pointer
  /// copy under a lock held for nothing else.
  std::shared_ptr<const ModelSnapshot> current() const;

 private:
  mutable std::mutex mu_;  ///< guards current_ while it is copied or swapped
  std::shared_ptr<const ModelSnapshot> current_;
};

}  // namespace ibrar::serve
