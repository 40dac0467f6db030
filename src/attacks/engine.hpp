#pragma once
// Composable gradient-attack engine.
//
// Every white-box attack in this library is an init -> step -> project ->
// track-best loop; this header decomposes that loop into orthogonal
// primitives so each attack is a ~10-line composition instead of a private
// copy of the machinery:
//
//   init      : where the trajectory starts (clean point / uniform-in-ball /
//               Gaussian, as TRADES uses)
//   loss      : what the inner maximization climbs (CE / KL against the
//               clean predictive distribution / any custom LossBuilder,
//               e.g. the adaptive IB objective)
//   step      : how the gradient becomes a move (plain sign / momentum sign /
//               Nesterov look-ahead sign)
//   project   : Linf eps-ball intersected with the [clip_lo, clip_hi] box
//   tracking  : which iterate is returned (last / best per restart / best
//               per step), with restart scheduling on top
//
// The engine also implements the active-set batch scheduler: with
// AttackConfig::active_set on, examples that are already misclassified are
// dropped from the working batch after each step via row compaction
// (take_rows), so the forward/backward GEMM cost tracks the shrinking set of
// survivors; results are scattered back on exit. Compaction is exact for
// per-example-independent compositions (eval-mode forwards are row-wise
// independent, and sign steps erase the 1/batch loss scale), so survivor
// trajectories are bit-identical to the non-compacted run. Batch-coupled
// compositions (the MI/NI batch-mean L1 normalizer, MI-estimator losses)
// reject active_set with an explanatory throw.
//
// Determinism: init noise is always drawn for the FULL batch shape, even when
// the active set has shrunk, so every example's noise depends only on
// (seed, restart, batch position) and the RNG stream is identical with the
// active set on or off. See README "Attack engine" for how this interacts
// with early stopping.

#include <functional>

#include "attacks/attack.hpp"

namespace ibrar::attacks::engine {

// ---- primitive vocabulary ---------------------------------------------------

enum class Init {
  kNone,         ///< start at the clean point
  kUniformBall,  ///< x + U(-eps, eps), honored only when cfg.random_start
  kGaussian,     ///< x + N(0, sigma) — TRADES' inner-loop init
};

enum class Step {
  kSign,          ///< adv += alpha * sign(g)
  kMomentumSign,  ///< g_acc = decay*g_acc + g; adv += alpha * sign(g_acc)
  kNesterovSign,  ///< gradient at the look-ahead point adv + alpha*decay*g_acc
};

/// Builds the differentiable loss the engine MAXIMIZES. `input` is the leaf
/// holding the current iterate; `y` the (possibly compacted) labels; `rows`
/// the original batch positions of the working rows (identity when the active
/// set is off — lets closures that captured full-batch state, like the KL
/// target, index the right rows). Must set *logits_out to the logits Var so
/// the engine can reuse the forward for margins and active-set decisions.
using LossBuilder = std::function<ag::Var(
    models::TapClassifier& model, const ag::Var& input,
    const std::vector<std::int64_t>& y, const std::vector<std::int64_t>& rows,
    ag::Var* logits_out)>;

/// Mean cross-entropy against the true labels (FGSM/PGD/MI/NI family).
LossBuilder ce_loss();

/// KL(p_clean || p(x')) with p_clean treated as a constant — TRADES' inner
/// maximization. `p_clean` holds FULL-batch clean probabilities; rows are
/// gathered per call so active-set compaction stays consistent.
LossBuilder kl_vs_clean_loss(Tensor p_clean);

/// One gradient-attack composition. AttackConfig supplies the budget (eps,
/// alpha, steps, restarts, clips, seed) plus the active_set / track_best
/// scheduling knobs; Spec supplies the primitives.
struct Spec {
  Init init = Init::kNone;
  float init_sigma = 1e-3f;  ///< for Init::kGaussian
  LossBuilder loss;          ///< empty = ce_loss()
  bool batch_coupled_loss = false;  ///< true forbids active_set (MI losses)
  Step step = Step::kSign;
  float decay = 1.0f;        ///< momentum / Nesterov mu
  bool l1_normalize = false; ///< batch-mean-L1 gradient normalization (MI/NI)
  float step_size = -1.0f;   ///< per-step size; < 0 means cfg.alpha
};

/// Run the composed attack. `rng` is the caller's stream (persisted across
/// batches by the Attack base class / TRADES objective) so fixed seeds
/// reproduce the exact seed-implementation draws.
Tensor run(models::TapClassifier& model, const Tensor& x,
           const std::vector<std::int64_t>& y, const AttackConfig& cfg,
           const Spec& spec, Rng& rng);

// ---- shared sub-primitives for bespoke attacks (CW / Square / FAB) ---------

/// Per-row index of the highest logit excluding the true class.
std::vector<std::int64_t> best_wrong_class(const Tensor& logits,
                                           const std::vector<std::int64_t>& y);

/// Elements of `v` at positions `idx`.
std::vector<std::int64_t> subset(const std::vector<std::int64_t>& v,
                                 const std::vector<std::int64_t>& idx);

/// Per-example best-iterate tracking over a full batch: keeps, per row, the
/// candidate with the lowest metric seen so far (margin for PGD restarts, L2
/// for CW, anything caller-defined). Rows never improved keep the init
/// tensor's content until fill_unimproved() overwrites them.
class BestTracker {
 public:
  /// Best starts as a copy of `init` with every metric at +infinity.
  explicit BestTracker(const Tensor& init);

  /// Best starts as `init` with caller-provided metrics (Square's stripes).
  BestTracker(Tensor init, std::vector<float> metric);

  /// cand row i (of rows.size() compacted rows) replaces best row rows[i]
  /// when metric[i] improves strictly. Row copies fan out on the thread pool.
  void update_rows(const std::vector<std::int64_t>& rows, const Tensor& cand,
                   const std::vector<float>& metric);

  /// Unconditionally store cand row `cand_row` as best row `row`.
  void overwrite_row(std::int64_t row, const Tensor& cand,
                     std::int64_t cand_row, float metric);

  /// Unconditionally store every cand row at its original position (the
  /// last-iterate scatter on active-set exit). Metrics are left untouched.
  void overwrite_rows(const std::vector<std::int64_t>& rows, const Tensor& cand);

  /// Rows still at +infinity metric take cand's row at the same compacted
  /// position (CW/FAB "never fooled -> final iterate" semantics).
  void fill_unimproved(const std::vector<std::int64_t>& rows, const Tensor& cand);

  bool improved(std::int64_t row) const;
  const std::vector<float>& metric() const { return metric_; }
  const Tensor& best() const { return best_; }
  Tensor release() { return std::move(best_); }

 private:
  Tensor best_;
  std::vector<float> metric_;
  std::int64_t row_size_ = 0;
};

/// Index bookkeeping for the active-set batch scheduler: the original batch
/// positions still being attacked. Attacks compact their working tensors to
/// rows() and shrink via retain().
class ActiveSet {
 public:
  explicit ActiveSet(std::int64_t n);

  const std::vector<std::int64_t>& rows() const { return rows_; }
  std::int64_t size() const { return static_cast<std::int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }

  /// Keep rows whose flag is true (`keep` is indexed by current compacted
  /// position). Returns the LOCAL positions kept, for compacting working
  /// tensors with take_rows; when its size equals the pre-call size nothing
  /// was dropped and compaction can be skipped.
  std::vector<std::int64_t> retain(const std::vector<char>& keep);

 private:
  std::vector<std::int64_t> rows_;
};

}  // namespace ibrar::attacks::engine
