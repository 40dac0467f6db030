// train-ibrar-pgdat: the paper's pipeline at the quick scale of
// bench/common.hpp. vgg16 on synth-cifar10 trains with PGD adversarial
// training wrapped by IB-RAR: a 4-step inner PGD, the MI loss on the robust
// layers and the Eq. 3 mask refreshed after every epoch. Every second epoch
// ends with the evaluation the trained model gets, clean accuracy plus
// PGD-10 over 500 test examples, so evaluation time is sampled across the
// run; the last one evaluates the trained model.
//
// The untraced pass runs Trainer::fit composed exactly as
// analysis::train_model composes it for base "PGD" with ibrar=true; it is
// spelled out here so a batch hook can time each step. The traced pass
// re-runs Trainer::fit's loop body as public calls with a span around each
// and must reproduce the untraced per-batch losses bit for bit.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "attacks/pgd.hpp"
#include "attacks/registry.hpp"
#include "core/ibrar.hpp"
#include "data/loader.hpp"
#include "data/registry.hpp"
#include "harness.hpp"
#include "models/registry.hpp"
#include "obs/profile.hpp"
#include "train/evaluate.hpp"

namespace perfbench {

using namespace ibrar;

namespace {

constexpr std::int64_t kTrainSize = 400;
constexpr std::int64_t kTestSize = 500;
constexpr std::int64_t kBatch = 100;
constexpr std::int64_t kInnerSteps = 4;
constexpr std::int64_t kEvalSteps = 10;
constexpr std::int64_t kEpochsPerEval = 2;
constexpr int kSetups = 3;

/// Everything one training run needs, derived from the workload seed.
struct Pipeline {
  data::SyntheticData data;
  models::ModelSpec spec;
  std::uint64_t model_seed = 0;
  train::TrainConfig tc;
  attacks::AttackConfig inner;
};

Pipeline make_pipeline(std::uint64_t seed, std::int64_t epochs) {
  Pipeline p;
  p.data = data::make_dataset("synth-cifar10", kTrainSize, kTestSize,
                              derive_seed(seed, 41));
  p.spec.name = "vgg16";
  p.spec.num_classes = p.data.train.num_classes;
  p.spec.image_size = p.data.train.height();
  p.spec.in_channels = p.data.train.channels();
  p.model_seed = derive_seed(seed, 42);
  p.tc.epochs = epochs;
  p.tc.batch_size = kBatch;
  p.tc.seed = derive_seed(seed, 43);
  p.inner.steps = kInnerSteps;
  return p;
}

models::TapClassifierPtr fresh_model(const Pipeline& p) {
  Rng rng(p.model_seed);
  return models::make_model(p.spec, rng);
}

/// Passes every call to the IB-RAR objective and keeps each batch's loss.
class RecordingObjective : public train::Objective {
 public:
  explicit RecordingObjective(train::ObjectivePtr inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  ag::Var compute(models::TapClassifier& model,
                  const data::Batch& batch) override {
    ag::Var loss = inner_->compute(model, batch);
    losses.push_back(loss.value().item());
    return loss;
  }

  std::vector<float> losses;

 private:
  train::ObjectivePtr inner_;
};

struct EvalRun {
  double clean_acc = 0.0;
  double robust_acc = 0.0;
  double seconds = 0.0;
  std::int64_t adv_outside = 0;
};

const char* const kEvalSpec = "pgd:steps=10";

EvalRun run_eval(models::TapClassifier& model, const data::Dataset& test) {
  EvalRun out;
  const std::int64_t t0 = now_ns();
  const auto report = train::evaluate_robust(
      model, test, std::vector<std::string>{kEvalSpec},
      train::RobustEvalConfig{kBatch, kTestSize, /*with_clean=*/true});
  out.seconds = sec(now_ns() - t0);
  out.clean_acc = report.clean_acc;
  out.robust_acc = report.per_attack.front().robust_acc;
  return out;
}

struct TrainRun {
  models::TapClassifierPtr model;
  std::vector<float> losses;
  /// Wall time from the end of one optimizer step to the end of the next
  /// (the first from the start of fit), so an epoch boundary's mask refresh
  /// falls into the first step of the next epoch.
  std::vector<double> step_ms;
  double seconds = 0.0;  ///< training alone, evaluations excluded
  std::vector<EvalRun> evals;
  double user_s = 0.0;       ///< process user CPU time, evaluations included
  double eval_user_s = 0.0;  ///< the evaluations' share of user_s
  double steal_frac = 0.0;  ///< host steal share over the run
};

TrainRun run_fit(const Pipeline& p) {
  TrainRun out;
  out.model = fresh_model(p);
  auto objective = std::make_shared<RecordingObjective>(
      std::make_shared<core::IBRARObjective>(
          std::make_shared<train::PGDATObjective>(p.inner),
          core::MILossConfig{}));
  train::Trainer trainer(out.model, objective, p.tc);
  const auto mask_hook =
      core::make_mask_hook(core::FeatureMaskConfig{}, p.data.train);
  std::int64_t mark = now_ns();
  std::int64_t eval_ns = 0;
  trainer.epoch_hook = [&](std::int64_t epoch, models::TapClassifier& m) {
    mask_hook(epoch, m);
    if ((epoch + 1) % kEpochsPerEval != 0) return;
    // Evaluate in eval mode, as the trained model is; no step is charged.
    const std::int64_t t = now_ns();
    const CpuMeter eval_meter;
    m.set_training(false);
    out.evals.push_back(run_eval(m, p.data.test));
    m.set_training(true);
    out.eval_user_s += eval_meter.user_s();
    mark += now_ns() - t;
    eval_ns += now_ns() - t;
  };
  trainer.batch_hook = [&](std::int64_t, std::int64_t,
                           models::TapClassifier&, const data::Batch&) {
    const std::int64_t t = now_ns();
    out.step_ms.push_back(ms(t - mark));
    mark = t;
  };
  const std::int64_t t0 = mark;
  const CpuMeter meter;
  trainer.fit(p.data.train);
  out.seconds = sec(now_ns() - t0 - eval_ns);
  out.user_s = meter.user_s();
  out.steal_frac = meter.steal_frac();
  out.losses = std::move(objective->losses);
  return out;
}

/// Elements of `adv` outside the eps-ball around `x` or outside [0, 1]. The
/// slack covers the rounding of x +- eps in float.
std::int64_t outside_ball(const Tensor& adv, const Tensor& x, float eps) {
  constexpr float kSlack = 1e-6f;
  std::int64_t bad = 0;
  const auto a = adv.data();
  const auto c = x.data();
  if (a.size() != c.size()) return static_cast<std::int64_t>(c.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const bool ok = std::abs(a[i] - c[i]) <= eps + kSlack && a[i] >= 0.0f &&
                    a[i] <= 1.0f;
    bad += ok ? 0 : 1;
  }
  return bad;
}

/// Trainer::fit's loop body as public calls, with a span around each call
/// into a layer. Stops after `max_batches` batches when positive (the
/// warm-up step).
struct Rerun {
  std::vector<float> losses;
  std::int64_t batches = 0;
  std::int64_t adv_outside = 0;
};

Rerun rerun_fit(const Pipeline& p, std::int64_t max_batches, SpanLog* log) {
  Rerun out;
  auto model = fresh_model(p);
  data::DataLoader loader(p.data.train, p.tc.batch_size, /*shuffle=*/true,
                          Rng(p.tc.seed));
  train::SGD opt(model->parameters(),
                 train::SGD::Config{p.tc.lr, p.tc.momentum,
                                    p.tc.weight_decay});
  train::StepLR sched(opt, p.tc.lr_step, p.tc.lr_gamma);
  attacks::PGD pgd(p.inner);
  const core::MILossConfig mi;
  const auto mask_hook =
      core::make_mask_hook(core::FeatureMaskConfig{}, p.data.train);
  Scope root(log, "train.fit");
  for (std::int64_t epoch = 0; epoch < p.tc.epochs; ++epoch) {
    model->set_training(true);
    loader.begin_epoch();
    data::Batch batch;
    for (;;) {
      {
        Scope s(log, "data.next");
        if (!loader.next(batch)) break;
      }
      Scope step(log, "train.step", static_cast<std::uint64_t>(out.batches));
      Tensor adv;
      {
        Scope s(log, "attacks.inner_perturb");
        adv = pgd.perturb(*model, batch.x, batch.y);
      }
      out.adv_outside += outside_ball(adv, batch.x, p.inner.eps);
      ag::Var base_loss, input;
      models::TapsOutput taps;
      {
        Scope s(log, "autograd.forward");
        base_loss = ag::cross_entropy(model->forward(ag::Var::constant(adv)),
                                      batch.y);
        input = ag::Var::constant(batch.x);
        taps = model->forward_with_taps(input);
      }
      ag::Var mi_term;
      {
        Scope s(log, "mi.loss");
        mi_term = core::mi_loss_term(mi, *model, input, taps.taps, batch.y);
      }
      ag::Var loss = ag::add(base_loss, mi_term);
      out.losses.push_back(loss.value().item());
      {
        Scope s(log, "autograd.backward");
        opt.zero_grad();
        loss.backward();
      }
      {
        Scope s(log, "train.optimizer");
        opt.step();
      }
      {
        Scope s(log, "train.acc_forward");
        ag::NoGradGuard ng;
        model->set_training(false);
        (void)attacks::predict(*model, batch.x);
        model->set_training(true);
      }
      if (++out.batches == max_batches) return out;
    }
    sched.epoch_end();
    Scope s(log, "core.mask_refresh");
    mask_hook(epoch, *model);
  }
  return out;
}

/// evaluate_robust's loop as public calls, with spans.
EvalRun rerun_eval(models::TapClassifier& model, const data::Dataset& test,
                   SpanLog* log) {
  EvalRun out;
  const auto attack = attacks::parse_spec(kEvalSpec);
  std::int64_t clean = 0, robust = 0;
  const std::int64_t n = std::min(kTestSize, test.size());
  const std::int64_t t0 = now_ns();
  Scope root(log, "eval");
  for (std::int64_t start = 0; start < n; start += kBatch) {
    const auto batch =
        data::make_batch(test, start, std::min(n, start + kBatch));
    std::vector<std::int64_t> pred;
    {
      Scope s(log, "attacks.eval_predict");
      pred = attacks::predict(model, batch.x);
    }
    for (std::size_t i = 0; i < pred.size(); ++i) {
      clean += pred[i] == batch.y[i] ? 1 : 0;
    }
    Tensor adv;
    {
      Scope s(log, "attacks.eval_perturb");
      adv = attack->perturb(model, batch.x, batch.y);
    }
    out.adv_outside += outside_ball(adv, batch.x, attack->config().eps);
    {
      Scope s(log, "attacks.eval_predict");
      pred = attacks::predict(model, adv);
    }
    for (std::size_t i = 0; i < pred.size(); ++i) {
      robust += pred[i] == batch.y[i] ? 1 : 0;
    }
  }
  out.seconds = sec(now_ns() - t0);
  out.clean_acc = static_cast<double>(clean) / static_cast<double>(n);
  out.robust_acc = static_cast<double>(robust) / static_cast<double>(n);
  return out;
}

}  // namespace

Result run_train_ibrar_pgdat(const RunArgs& args, Tracer& tracer) {
  Result r;
  // An evaluation per kEpochsPerEval epochs, and one such block per seven
  // measured seconds: at the measured rates (~1.5 s an epoch, ~2.5 s an
  // evaluation) that fills the run.
  const std::int64_t epochs =
      kEpochsPerEval *
      std::max<std::int64_t>(1, std::llround(args.seconds / 7.0));

  // Set-up, timed kSetups times: data, then one warm-up step of the loop
  // body on a freshly built throwaway model. The warm-up losses must agree
  // to the bit across set-ups.
  SetupTimes setups;
  std::vector<float> warm_losses;
  Pipeline p;
  for (int k = 0; k < kSetups; ++k) {
    Rerun warm;
    setups.time([&] {
      p = make_pipeline(args.seed, epochs);
      warm = rerun_fit(p, /*max_batches=*/1, nullptr);
    });
    warm_losses.push_back(warm.losses.front());
    if (warm.adv_outside > 0) {
      r.fail("warm-up: " + std::to_string(warm.adv_outside) +
             " adversarial pixels outside the eps-ball or [0, 1]");
    }
  }
  for (const float l : warm_losses) {
    if (std::memcmp(&l, &warm_losses.front(), sizeof l) != 0) {
      r.fail("warm-up losses differ across repeated set-ups");
      break;
    }
  }

  const TrainRun fit = run_fit(p);
  const EvalRun& eval = fit.evals.back();
  const double hwm = read_proc().hwm_mb;

  const auto steps = static_cast<std::int64_t>(fit.losses.size());
  r.attempted = steps + static_cast<std::int64_t>(fit.evals.size()) * kTestSize;
  for (const float l : fit.losses) {
    if (!std::isfinite(l)) ++r.failed;
  }
  if (r.failed > 0) r.fail(std::to_string(r.failed) + " non-finite losses");
  if (steps != epochs * (kTrainSize / kBatch)) {
    r.fail("fit ran " + std::to_string(steps) + " steps");
  }
  const auto train_examples = static_cast<double>(epochs * kTrainSize);
  const auto eval_examples =
      static_cast<double>(fit.evals.size() * kTestSize);
  std::vector<double> eval_rates;
  for (const auto& e : fit.evals) {
    eval_rates.push_back(static_cast<double>(kTestSize) / e.seconds);
  }
  const double user_cpu_ms_per_item =
      fit.user_s * 1e3 / (train_examples + eval_examples);
  r.end_to_end = {
      {"setup_s", percentile(setups.cpu_s, 0.5), "s"},
      {"peak_rss_mb", hwm, "MB"},
      {"user_cpu_ms_per_item", user_cpu_ms_per_item, "ms"},
  };
  r.info = {
      {"setup_wall_s", percentile(setups.wall_s, 0.5), "s"},
      {"host.steal_frac", fit.steal_frac, "fraction"},
      {"step_ms.p50", percentile(fit.step_ms, 0.5), "ms"},
      {"step_ms.p90", percentile(fit.step_ms, 0.9), "ms"},
      {"train_samples_per_s", train_examples / fit.seconds, "1/s"},
      {"eval_ex_per_s", percentile(eval_rates, 0.5), "1/s"},
      {"train_user_cpu_ms_per_example",
       (fit.user_s - fit.eval_user_s) * 1e3 / train_examples, "ms"},
      {"eval_user_cpu_ms_per_example", fit.eval_user_s * 1e3 / eval_examples,
       "ms"},
      {"fail_frac",
       static_cast<double>(r.failed) / static_cast<double>(r.attempted),
       "fraction"},
      {"epochs", static_cast<double>(epochs), "count"},
      {"steps", static_cast<double>(steps), "count"},
      {"evaluations", static_cast<double>(fit.evals.size()), "count"},
      {"final_loss", fit.losses.empty() ? 0.0 : fit.losses.back(), "nats"},
      {"clean_acc", eval.clean_acc, "fraction"},
      {"pgd10_acc", eval.robust_acc, "fraction"},
  };
  if (!args.trace) return r;

  // Traced pass: the loop body re-run with spans and the library's profile
  // sites on, then the evaluation loop likewise.
  SpanLog* log = tracer.thread_log("main");
  const CpuMeter traced_meter;
  obs::reset_profile();
  obs::set_profiling_enabled(true);
  const Rerun rerun = rerun_fit(p, /*max_batches=*/0, log);
  obs::set_profiling_enabled(false);
  const auto table = obs::profile_table();
  obs::reset_profile();
  const EvalRun traced_eval = rerun_eval(*fit.model, p.data.test, log);
  const double traced_user_cpu_ms_per_item =
      traced_meter.user_s() * 1e3 / (train_examples + kTestSize);

  if (rerun.losses.size() != fit.losses.size() ||
      std::memcmp(rerun.losses.data(), fit.losses.data(),
                  sizeof(float) * fit.losses.size()) != 0) {
    r.fail("re-run loop losses differ from Trainer::fit's");
    ++r.failed;
  }
  if (rerun.adv_outside + traced_eval.adv_outside > 0) {
    r.fail(std::to_string(rerun.adv_outside + traced_eval.adv_outside) +
           " adversarial pixels outside the eps-ball or [0, 1]");
    ++r.failed;
  }
  if (traced_eval.clean_acc != eval.clean_acc ||
      traced_eval.robust_acc != eval.robust_acc) {
    r.fail("re-run evaluation disagrees with evaluate_robust");
    ++r.failed;
  }

  const auto p50 = [&](const char* name) {
    return percentile(tracer.span_ms(name), 0.5);
  };
  const double batches = static_cast<double>(rerun.batches);
  auto& pl = r.per_layer;
  pl.push_back({"data.next_ms", p50("data.next"), "ms"});
  pl.push_back(
      {"attacks.inner_perturb_ms", p50("attacks.inner_perturb"), "ms"});
  pl.push_back({"autograd.forward_ms", p50("autograd.forward"), "ms"});
  pl.push_back({"mi.loss_ms", p50("mi.loss"), "ms"});
  pl.push_back({"autograd.backward_ms", p50("autograd.backward"), "ms"});
  pl.push_back({"train.optimizer_ms", p50("train.optimizer"), "ms"});
  pl.push_back({"train.acc_forward_ms", p50("train.acc_forward"), "ms"});
  pl.push_back({"core.mask_refresh_ms", p50("core.mask_refresh"), "ms"});
  pl.push_back({"tensor.conv2d_ms", site_ms(table, "tensor/conv2d", batches),
                "ms"});
  pl.push_back({"tensor.im2col_ms", site_ms(table, "tensor/im2col", batches),
                "ms"});
  pl.push_back({"tensor.matmul_nt_sym_ms",
                site_ms(table, "tensor/matmul_nt_sym", batches), "ms"});
  pl.push_back({"attacks.eval_step_ms",
                p50("attacks.eval_perturb") / static_cast<double>(kEvalSteps),
                "ms"});
  pl.push_back({"attacks.eval_predict_ms", p50("attacks.eval_predict"), "ms"});
  pl.push_back({"trace.overhead.cpu_frac",
                overhead_frac(user_cpu_ms_per_item, traced_user_cpu_ms_per_item,
                              false),
                "fraction"});
  pl.push_back({"trace.overhead.lat_p50_frac",
                overhead_frac(percentile(fit.step_ms, 0.5), p50("train.step"),
                              false),
                "fraction"});
  return r;
}

}  // namespace perfbench
