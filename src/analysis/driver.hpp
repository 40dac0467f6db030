#pragma once
// Unified analysis driver behind the paper's figure reproductions.
//
// One trained model + one captured TapDump is enough to emit every Fig. 2-6
// artifact: robust-accuracy step sweeps (Fig. 2), t-SNE cluster structure of
// a tap (Fig. 3), convergence traces (Fig. 4, from training history),
// information-plane HSIC coordinates per layer (Fig. 5, HSIC in row chunks),
// and the Eq. (3) channel scores. bench_fig2-6 and the ibrar_analyze CLI are
// thin compositions over these; bench/common.hpp's training helpers delegate
// here too, so the objective wiring lives in exactly one place.

#include <string>
#include <vector>

#include "analysis/capture.hpp"
#include "core/ibrar.hpp"
#include "data/synthetic.hpp"
#include "mi/tsne.hpp"
#include "models/registry.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

namespace ibrar::analysis {

// ---- training ---------------------------------------------------------------

/// Base objective by name: "CE" | "PGD" | "TRADES" | "MART" | "HBaR" | "VIB";
/// throws std::invalid_argument (listing the choices) for anything else.
train::ObjectivePtr make_base_objective(const std::string& name,
                                        const attacks::AttackConfig& inner,
                                        models::TapClassifier& model);

/// Everything that defines one training run of one method.
struct TrainSpec {
  std::string base = "CE";            ///< base objective name ("plain" == "CE")
  bool ibrar = false;                 ///< wrap with the IB-RAR MI loss + mask
  core::MILossConfig mi;              ///< used when ibrar
  attacks::AttackConfig inner;        ///< inner maximization for AT objectives
  train::TrainConfig train;
  /// Paper A.3 warm start: train this many initial epochs with the plain
  /// IB-RAR MI objective before switching to `base` (Fig. 4's "jump out of
  /// the majority-class loop"); 0 = off. Warm-start epochs count against
  /// train.epochs.
  std::int64_t mi_warm_start_epochs = 0;
};

/// Train one model per `spec`. When `test` is non-null per-epoch clean (and,
/// with `eval_attack`, adversarial) accuracy lands in `history` — the Fig. 4
/// convergence artifact. Returns the model in eval mode.
models::TapClassifierPtr train_model(
    const models::ModelSpec& model_spec, const data::SyntheticData& data,
    const TrainSpec& spec, std::uint64_t seed = 42,
    std::vector<train::EpochStats>* history = nullptr,
    const data::Dataset* test = nullptr, attacks::Attack* eval_attack = nullptr,
    std::int64_t eval_adv_samples = 200);

// ---- figure artifacts -------------------------------------------------------

/// Fig. 2 panel: robust accuracy as a function of attack optimization steps.
struct StepSweep {
  std::string attack;                 ///< registry name ("pgd", "cw", ...)
  std::vector<std::int64_t> steps;
  std::vector<double> robust_acc;     ///< one value per entry of `steps`
  std::vector<double> seconds;        ///< perturb+predict time per point
};

/// One evaluate_robust sweep whose suite holds `attack` at every step count.
StepSweep attack_step_sweep(models::TapClassifier& model,
                            const data::Dataset& ds, const std::string& attack,
                            const std::vector<std::int64_t>& steps,
                            const attacks::AttackConfig& defaults,
                            std::int64_t batch, std::int64_t max_samples);

/// Fig. 3: cluster structure of one captured tap, raw and t-SNE-embedded.
struct ClusterReport {
  mi::ClusterMetrics feature;         ///< in the raw flattened tap space
  mi::ClusterMetrics embedding;       ///< in the 2-D t-SNE embedding
  Tensor embedding_points;            ///< (n, 2)
};

ClusterReport cluster_report(const TapDump& dump, std::size_t tap_index,
                             const mi::TSNEConfig& cfg = {});

/// Fig. 5: HSIC information-plane coordinates per selected layer: Gaussian
/// HSIC over row chunks of the dump, averaged sample-weighted across chunks.
struct InfoPlaneConfig {
  std::int64_t chunk = 0;       ///< rows per HSIC chunk; <= 0 = one chunk
  float sigma_mult = 5.0f;      ///< bandwidth rule for X and T
  float sigma_mult_y = 1.0f;    ///< bandwidth rule for the one-hot labels
};

struct InfoPlane {
  std::vector<std::string> layer;
  std::vector<double> i_xt;     ///< HSIC(X, T_l)
  std::vector<double> i_ty;     ///< HSIC(Y, T_l)
};

InfoPlane info_plane(const TapDump& dump, std::vector<std::size_t> layers,
                     std::int64_t num_classes, const InfoPlaneConfig& cfg = {});

/// Eq. (3): per-channel HSIC(f_c, Y) scores of the last-conv tap.
std::vector<float> last_conv_channel_scores(const TapDump& dump,
                                            const models::TapClassifier& model,
                                            std::int64_t num_classes);

}  // namespace ibrar::analysis
