// ibrar_analyze — the unified figure driver.
//
// Trains one method from one config, captures every tap once
// (analysis::capture_taps), and emits the quantities behind each paper
// figure from that single capture + one robust evaluation sweep:
//
//   Fig. 2  robust accuracy vs attack steps (PGD / CW / NIFGSM)
//   Fig. 3  t-SNE cluster separation of the penultimate tap
//   Fig. 4  per-epoch convergence trace (clean + PGD accuracy)
//   Fig. 5  information-plane coordinates per layer (HSIC over row chunks)
//   Eq. 3   per-channel HSIC(f_c, Y) scores of the last conv tap
//
// Every artifact is also recorded to an ibrar-bench-v1 JSON document
// (--out, default ANALYZE.json): `kernel` names the artifact ("fig2/pgd"),
// `shape` the sweep point, `checksum` carries the headline metric, and
// `ns_per_op` the wall time.
//
//   ./ibrar_analyze --dataset synth-cifar10 --model vgg16 --base PGD --ibrar
//   ./ibrar_analyze --beta-sweep 2.0,0.5,0.1,0.0     # adds the Fig. 6 sweep
//
// Scales follow the same IBRAR_PROFILE / IBRAR_* env knobs as the benches.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/capture.hpp"
#include "analysis/driver.hpp"
#include "common.hpp"
#include "runtime/thread_pool.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

std::vector<double> parse_doubles(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const auto comma = csv.find(',', pos);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    out.push_back(std::stod(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

void record(JsonReporter& rep, const std::string& kernel,
            const std::string& shape, double metric, double seconds = 0.0) {
  BenchRecord r;
  r.kernel = kernel;
  r.shape = shape;
  r.checksum = metric;
  r.ns_per_op = seconds * 1e9;
  r.threads = runtime::num_threads();
  rep.add(r);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dataset = "synth-cifar10";
  std::string model_name = "vgg16";
  std::string base = "CE";
  std::string out_path = env::get_string("IBRAR_BENCH_OUT", "ANALYZE.json");
  bool ibrar_on = false;
  std::vector<double> beta_sweep;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--dataset") dataset = next();
    else if (arg == "--model") model_name = next();
    else if (arg == "--base") base = next();
    else if (arg == "--ibrar") ibrar_on = true;
    else if (arg == "--out") out_path = next();
    else if (arg == "--beta-sweep") beta_sweep = parse_doubles(next());
    else {
      std::fprintf(stderr,
                   "usage: ibrar_analyze [--dataset D] [--model M] [--base "
                   "CE|PGD|TRADES|MART|HBaR|VIB] [--ibrar] [--out FILE] "
                   "[--beta-sweep b1,b2,...]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (out_path.empty()) {
    std::fprintf(stderr, "--out (or IBRAR_BENCH_OUT) must name a file\n");
    return 2;
  }

  print_header("ibrar_analyze: unified Fig. 2-6 artifact driver");
  const auto s = default_scale();
  const auto data = data::make_dataset(dataset, s.train_size, s.test_size);
  models::ModelSpec spec;
  spec.name = model_name;
  spec.num_classes = data.train.num_classes;

  JsonReporter reporter(out_path);
  Stopwatch total;

  // ---- train (history doubles as the Fig. 4 convergence trace) -------------
  analysis::TrainSpec tspec;
  tspec.base = base;
  tspec.ibrar = ibrar_on;
  tspec.mi = default_mi();
  tspec.inner = inner_attack_config(s);
  tspec.train = train_config(s);
  attacks::AttackConfig eval_cfg;
  eval_cfg.steps = s.attack_steps;
  attacks::PGD eval_pgd(eval_cfg);
  std::vector<train::EpochStats> history;
  Stopwatch sw;
  auto model = analysis::train_model(spec, data, tspec, 42, &history,
                                     &data.test, &eval_pgd, s.eval_samples);
  const std::string method = base + (ibrar_on ? "+IB-RAR" : "");
  std::fprintf(stderr, "[analyze] trained %s (%.1fs)\n", method.c_str(),
               sw.reset());

  std::printf("-- fig4: convergence of %s --\n  epoch   :", method.c_str());
  for (const auto& st : history)
    std::printf(" %6lld", static_cast<long long>(st.epoch));
  std::printf("\n  natural :");
  for (const auto& st : history) std::printf(" %6.2f", 100 * st.test_acc);
  std::printf("\n  adv(PGD):");
  for (const auto& st : history) std::printf(" %6.2f", 100 * st.adv_acc);
  std::printf("\n\n");
  for (const auto& st : history) {
    record(reporter, "fig4/" + method,
           "epoch=" + std::to_string(st.epoch) + "/natural", st.test_acc,
           st.seconds);
    record(reporter, "fig4/" + method,
           "epoch=" + std::to_string(st.epoch) + "/pgd", st.adv_acc);
  }

  // ---- capture taps once ----------------------------------------------------
  const std::int64_t n_capture =
      std::min<std::int64_t>(data.test.size(), s.eval_samples);
  const auto dump = analysis::capture_taps(*model, data.test, n_capture,
                                           s.batch);
  std::fprintf(stderr, "[analyze] captured %lld samples x %zu taps (%.1fs)\n",
               static_cast<long long>(dump.size()), dump.taps.size(),
               sw.reset());
  record(reporter, "capture/clean_acc", "n=" + std::to_string(dump.size()),
         dump.accuracy);

  // ---- fig2: robust accuracy vs steps ---------------------------------------
  const bool paper_profile = env::profile() == env::Profile::kPaper;
  struct SweepSpec {
    const char* attack;
    std::vector<std::int64_t> steps;
  };
  const std::vector<SweepSpec> sweeps = {
      {"pgd", paper_profile ? std::vector<std::int64_t>{1, 10, 20, 30, 40, 50}
                            : std::vector<std::int64_t>{1, 10, 30}},
      {"cw", paper_profile ? std::vector<std::int64_t>{10, 20, 30, 40, 50}
                           : std::vector<std::int64_t>{10, 30}},
      {"nifgsm", paper_profile ? std::vector<std::int64_t>{1, 3, 5, 7, 9, 10, 20}
                               : std::vector<std::int64_t>{1, 5, 10}},
  };
  for (const auto& sp : sweeps) {
    // The sweep overwrites cfg.steps per point, so no per-attack defaults.
    attacks::AttackConfig defaults;
    const auto sweep = analysis::attack_step_sweep(
        *model, data.test, sp.attack, sp.steps, defaults, s.batch,
        s.eval_samples);
    std::printf("-- fig2: %s accuracy vs steps --\n ", sp.attack);
    for (std::size_t i = 0; i < sweep.steps.size(); ++i) {
      std::printf(" %lld:%.2f%%", static_cast<long long>(sweep.steps[i]),
                  100 * sweep.robust_acc[i]);
      record(reporter, std::string("fig2/") + sp.attack,
             "steps=" + std::to_string(sweep.steps[i]), sweep.robust_acc[i],
             sweep.seconds[i]);
    }
    std::printf("\n");
    std::fprintf(stderr, "[analyze] fig2 %s sweep done (%.1fs)\n", sp.attack,
                 sw.reset());
  }
  std::printf("\n");

  // ---- fig3: cluster structure of the penultimate tap -----------------------
  {
    const std::size_t tap = dump.taps.size() - 1;
    const auto rep = analysis::cluster_report(dump, tap);
    std::printf("-- fig3: cluster separation of %s --\n"
                "  features: inter/intra %.3f, silhouette %.3f\n"
                "  t-SNE   : inter/intra %.3f, silhouette %.3f\n\n",
                dump.tap_names[tap].c_str(), rep.feature.separation_ratio,
                rep.feature.silhouette, rep.embedding.separation_ratio,
                rep.embedding.silhouette);
    record(reporter, "fig3/feature_separation", dump.tap_names[tap],
           rep.feature.separation_ratio);
    record(reporter, "fig3/feature_silhouette", dump.tap_names[tap],
           rep.feature.silhouette);
    record(reporter, "fig3/tsne_separation", dump.tap_names[tap],
           rep.embedding.separation_ratio, sw.seconds());
    record(reporter, "fig3/tsne_silhouette", dump.tap_names[tap],
           rep.embedding.silhouette);
    std::fprintf(stderr, "[analyze] fig3 done (%.1fs)\n", sw.reset());
  }

  // ---- fig5: information plane ----------------------------------------------
  {
    analysis::InfoPlaneConfig ip;
    ip.chunk = s.batch;  // full capture, one Gram per batch-sized chunk
    const auto plane = analysis::info_plane(dump, {}, model->num_classes(), ip);
    std::printf("-- fig5: information plane (chunked HSIC x 1e3) --\n");
    for (std::size_t i = 0; i < plane.layer.size(); ++i) {
      std::printf("  %-12s I(X;T)=%7.3f  I(T;Y)=%7.3f\n",
                  plane.layer[i].c_str(), 1e3 * plane.i_xt[i],
                  1e3 * plane.i_ty[i]);
      record(reporter, "fig5/i_xt", plane.layer[i], plane.i_xt[i]);
      record(reporter, "fig5/i_ty", plane.layer[i], plane.i_ty[i]);
    }
    std::printf("\n");
    std::fprintf(stderr, "[analyze] fig5 done (%.1fs)\n", sw.reset());
  }

  // ---- Eq. 3 channel scores --------------------------------------------------
  {
    const auto scores =
        analysis::last_conv_channel_scores(dump, *model, model->num_classes());
    float lo = scores[0], hi = scores[0], mean = 0.0f;
    for (const auto v : scores) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      mean += v;
    }
    mean /= static_cast<float>(scores.size());
    std::printf("-- eq3: channel scores (%zu channels) min/mean/max = "
                "%.4g / %.4g / %.4g --\n\n",
                scores.size(), lo, mean, hi);
    record(reporter, "eq3/channel_score_mean",
           "channels=" + std::to_string(scores.size()), mean, sw.reset());
  }

  // ---- robust suite (worst case over attacks) --------------------------------
  {
    const auto rob = train::evaluate_robust(
        *model, data.test,
        std::vector<std::string>{"pgd:steps=" + std::to_string(s.attack_steps) +
                                     ",active_set=1,best=step",
                                 "fgsm"},
        {s.batch, s.eval_samples, /*with_clean=*/true});
    std::printf("-- robust suite: clean %.2f%%", 100 * rob.clean_acc);
    record(reporter, "suite/clean", method, rob.clean_acc);
    for (const auto& a : rob.per_attack) {
      std::printf("  %s %.2f%%", a.name.c_str(), 100 * a.robust_acc);
      record(reporter, "suite/" + a.name, method, a.robust_acc,
             a.seconds);
    }
    std::printf("  worst-case %.2f%% --\n\n", 100 * rob.worst_case_acc);
    record(reporter, "suite/worst_case", method, rob.worst_case_acc);
    std::fprintf(stderr, "[analyze] robust suite done (%.1fs)\n", sw.reset());
  }

  // ---- fig6: optional beta sweep --------------------------------------------
  for (const auto beta : beta_sweep) {
    analysis::TrainSpec bspec = tspec;
    bspec.ibrar = true;
    bspec.mi.beta = static_cast<float>(beta);
    bspec.mi.alpha = static_cast<float>(
        env::get_double("IBRAR_FIG6_ALPHA_RATIO", 4.0) * beta);
    auto bmodel = analysis::train_model(spec, data, bspec, 42);
    attacks::AttackConfig c;
    c.steps = s.attack_steps;
    attacks::PGD atk(c);
    const double acc =
        train::evaluate_robust(*bmodel, data.test, {&atk},
                               {s.batch, s.eval_samples, /*with_clean=*/false})
            .per_attack.front()
            .robust_acc;
    std::printf("-- fig6: beta=%.3f -> PGD %.2f%% --\n", beta, 100 * acc);
    record(reporter, "fig6/pgd", "beta=" + std::to_string(beta), acc,
           sw.reset());
  }

  reporter.write();
  std::printf("total %.1fs; artifacts in %s\n", total.seconds(),
              reporter.path().c_str());
  return 0;
}
