// Figure 5 reproduction: the information plane of VGG16's 4th conv block
// during training, with the MI loss vs plain CE.
//
// Estimator note: a Shwartz-Ziv binning estimator saturates at log2(n) for
// representations this wide (every sample's binned code is unique), so the
// bench records the quantities the paper actually optimizes: HSIC(X, T4) and
// HSIC(Y, T4), the Gaussian-kernel realization of I(X;T) / I(T;Y) used in
// Eq. 1.
//
// Expected shape (paper): with the MI loss, I(X;T) is driven down
// (compression) while I(T;Y) stays high; with CE only there is no
// compression phase.
//
// The probe capture + HSIC estimation go through the analysis driver
// (capture_taps + info_plane on a fixed probe subset); traces are recorded
// to BENCH_fig5.json.

#include "analysis/capture.hpp"
#include "analysis/driver.hpp"
#include "common.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

struct IPTrace {
  std::vector<double> i_xt;
  std::vector<double> i_ty;
};

IPTrace run(const models::ModelSpec& spec, const data::SyntheticData& data,
            const Scale& s, bool mi_loss) {
  Rng rng(42);
  auto model = models::make_model(spec, rng);
  train::ObjectivePtr obj =
      mi_loss ? train::ObjectivePtr(
                    std::make_shared<core::IBRARObjective>(nullptr, default_mi()))
              : train::ObjectivePtr(std::make_shared<train::CEObjective>());
  train::Trainer trainer(model, obj, train_config(s));

  // A fixed probe subset keeps the estimator comparable across recordings.
  const std::int64_t n_probe = std::min<std::int64_t>(200, data.train.size());
  const data::Dataset probe = data.train.head(n_probe);

  IPTrace trace;
  const std::int64_t record_every = env::scaled_int("IBRAR_FIG5_EVERY", 2, 5);
  trainer.batch_hook = [&](std::int64_t, std::int64_t batch_idx,
                           models::TapClassifier& m, const data::Batch&) {
    if (batch_idx % record_every != 0) return;
    // One tapped sweep of the probe — filtered to conv block 4 of VGG16 (the
    // paper's layer) so the hook copies a single tap, not all seven — then
    // the Eq. (1) HSIC pair. capture_taps saves/restores the training mode
    // around its eval-mode forwards.
    const auto dump = analysis::capture_taps(m, probe, n_probe, n_probe, {3});
    const auto plane = analysis::info_plane(dump, {0}, m.num_classes());
    trace.i_xt.push_back(plane.i_xt[0]);
    trace.i_ty.push_back(plane.i_ty[0]);
  };
  trainer.fit(data.train);
  return trace;
}

void print_trace(JsonReporter& reporter, const char* name, const IPTrace& t) {
  std::printf("%s (recorded %zu points, chronological; HSIC x 1e3)\n", name,
              t.i_xt.size());
  std::printf("  I(X;T4):");
  for (const auto v : t.i_xt) std::printf(" %6.3f", 1e3 * v);
  std::printf("\n  I(T4;Y):");
  for (const auto v : t.i_ty) std::printf(" %6.3f", 1e3 * v);
  std::printf("\n  compression I(X;T4) first->last: %.4f -> %.4f (x 1e3)\n\n",
              t.i_xt.empty() ? 0.0 : 1e3 * t.i_xt.front(),
              t.i_xt.empty() ? 0.0 : 1e3 * t.i_xt.back());
  for (std::size_t i = 0; i < t.i_xt.size(); ++i) {
    BenchRecord rec;
    rec.kernel = std::string("fig5/") + name;
    rec.shape = "point=" + std::to_string(i) + "/i_xt";
    rec.checksum = t.i_xt[i];
    reporter.add(rec);
    rec.shape = "point=" + std::to_string(i) + "/i_ty";
    rec.checksum = t.i_ty[i];
    reporter.add(rec);
  }
}

}  // namespace

int main() {
  print_header("Figure 5: information plane of conv block 4 (VGG16)");
  const auto s = default_scale();
  const auto data = data::make_dataset("synth-cifar10", s.train_size,
                                       s.test_size);
  models::ModelSpec spec;
  spec.name = "vgg16";

  JsonReporter reporter(env::get_string("IBRAR_BENCH_OUT", "BENCH_fig5.json"));
  print_trace(reporter, "MI loss (Eq. 1)", run(spec, data, s, true));
  print_trace(reporter, "Plain CE", run(spec, data, s, false));
  reporter.write();
  std::printf("Paper shape: the MI-loss run compresses I(X;T) while retaining "
              "I(T;Y); the CE run shows no compression.\n");
  return 0;
}
