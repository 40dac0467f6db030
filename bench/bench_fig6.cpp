// Figure 6 reproduction: sensitivity to the regularizer weights. Sweep beta
// (with alpha = 0.1 * beta, the paper's coupling) for
//   (a) PGD adversarial training of VGG16 on CIFAR-10, evaluated by
//       PGD / CW / FGSM;
//   (b) TRADES training of ResNet-18 on CIFAR-10, evaluated by
//       PGD / FAB / FGSM.
//
// Expected shape (paper): robustness has an interior optimum in beta; very
// large beta costs accuracy, beta = 0 loses the IB benefit.

#include "common.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

void sweep(JsonReporter& reporter, const char* title,
           const std::string& model_name, const std::string& base,
           const std::vector<double>& betas, const data::SyntheticData& data,
           const Scale& s, const std::vector<const char*>& attack_names) {
  models::ModelSpec spec;
  spec.name = model_name;
  spec.num_classes = data.train.num_classes;

  std::vector<std::string> header = {"beta (alpha=4*beta)"};
  for (const auto* a : attack_names) header.push_back(a);
  Table table(header);
  Stopwatch sw;
  for (const auto beta : betas) {
    core::MILossConfig mi = default_mi();
    mi.beta = static_cast<float>(beta);
    // Paper couples alpha = 0.1*beta at its HSIC scale; our calibration
    // (see EXPERIMENTS.md) puts the useful regime at alpha = 4*beta.
    mi.alpha = static_cast<float>(
        env::get_double("IBRAR_FIG6_ALPHA_RATIO", 4.0) * beta);
    auto model = train_method(base, /*ibrar=*/true, spec, data, s, 42, nullptr,
                              mi);
    std::vector<attacks::AttackPtr> owned;
    std::vector<attacks::Attack*> suite;
    for (const std::string a : attack_names) {
      attacks::AttackConfig c;
      if (a == "PGD") {
        c.steps = s.attack_steps;
        owned.push_back(std::make_unique<attacks::PGD>(c));
      } else if (a == "CW") {
        c.steps = s.cw_steps;
        owned.push_back(std::make_unique<attacks::CW>(c));
      } else if (a == "FAB") {
        c.steps = s.fab_steps;
        owned.push_back(std::make_unique<attacks::FAB>(c));
      } else {
        owned.push_back(std::make_unique<attacks::FGSM>(c));
      }
      suite.push_back(owned.back().get());
    }
    const auto adv = train::evaluate_robust(
        *model, data.test, suite,
        {s.batch, s.eval_samples, /*with_clean=*/false});
    std::vector<std::string> row = {Table::num(beta, 3)};
    for (std::size_t i = 0; i < attack_names.size(); ++i) {
      const double acc = adv.per_attack[i].robust_acc;
      row.push_back(Table::num(100 * acc, 2));
      BenchRecord rec;
      rec.kernel = std::string("fig6/") + title + "/" + attack_names[i];
      rec.shape = "beta=" + Table::num(beta, 3);
      rec.checksum = acc;
      reporter.add(rec);
    }
    table.add_row(std::move(row));
    std::fprintf(stderr, "[bench] fig6 %s beta=%.3f done (%.1fs)\n", title,
                 beta, sw.reset());
  }
  std::printf("-- %s --\n", title);
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  print_header("Figure 6: alpha/beta sensitivity sweep");
  const auto s = default_scale();
  const auto data = data::make_dataset("synth-cifar10", s.train_size,
                                       s.test_size);

  const bool paper_profile = env::profile() == env::Profile::kPaper;
  const std::vector<double> betas =
      paper_profile
          ? std::vector<double>{4.0, 2.0, 1.0, 0.5, 0.3, 0.15, 0.1, 0.06, 0.02, 0.0}
          : std::vector<double>{2.0, 0.5, 0.1, 0.0};

  JsonReporter reporter(env::get_string("IBRAR_BENCH_OUT", "BENCH_fig6.json"));
  sweep(reporter, "(a) PGD-AT, VGG16, synth-cifar10", "vgg16", "PGD", betas,
        data, s, {"PGD", "CW", "FGSM"});
  sweep(reporter, "(b) TRADES, ResNet-18, synth-cifar10", "resnet18", "TRADES",
        betas, data, s, {"PGD", "FAB", "FGSM"});
  reporter.write();
  return 0;
}
