// Table 4 reproduction (ablation): remove each ingredient of IB-RAR in turn
// on VGG16 and ResNet-18 over CIFAR-10 (no adversarial training):
//   (1) L_CE                      (plain baseline)
//   (2) L                         (MI loss only, Eq. 1)
//   (3) L_CE + alpha*sum I(X,T)   (compression only -> clean acc collapses)
//   (4) L_CE - beta*sum I(Y,T)    (relevance only -> marginal gains)
//   (5) L_CE + FC                 (mask without MI loss -> no gain)
//   (6) L + FC                    (full IB-RAR)

#include "common.hpp"

using namespace ibrar;
using namespace ibrar::bench;

namespace {

struct AblationRow {
  const char* name;
  float alpha;           ///< multiplier applied to default alpha
  float beta;
  bool mi_loss;          ///< include Eq. (1) at all
  bool mask;             ///< apply the Eq. (3) mask hook
  double ref[4];         ///< paper: Natural, PGD, NIFGSM, FGSM
};

models::TapClassifierPtr train_ablation(const AblationRow& row,
                                        const models::ModelSpec& spec,
                                        const data::SyntheticData& data,
                                        const Scale& s) {
  Rng rng(42);
  auto model = models::make_model(spec, rng);
  train::ObjectivePtr obj;
  if (row.mi_loss) {
    core::MILossConfig mi = default_mi();
    mi.alpha *= row.alpha;
    mi.beta *= row.beta;
    obj = std::make_shared<core::IBRARObjective>(nullptr, mi);
  } else {
    obj = std::make_shared<train::CEObjective>();
  }
  train::Trainer trainer(model, obj, train_config(s));
  if (row.mask) {
    trainer.epoch_hook = core::make_mask_hook(core::FeatureMaskConfig{},
                                              data.train);
  }
  trainer.fit(data.train);
  return model;
}

void run_ablation(const char* title, const std::string& model_name,
                  const std::vector<AblationRow>& rows, const Scale& s) {
  const auto data = data::make_dataset("synth-cifar10", s.train_size,
                                       s.test_size);
  models::ModelSpec spec;
  spec.name = model_name;

  Table table({"Loss", "Natural", "PGD", "NIFGSM", "FGSM"});
  Stopwatch sw;
  for (const auto& row : rows) {
    auto model = train_ablation(row, spec, data, s);
    const double natural =
        train::evaluate_robust(*model, data.test,
                               std::vector<attacks::Attack*>{}, {s.batch, -1})
            .clean_acc;
    attacks::AttackConfig pc;
    pc.steps = s.attack_steps;
    attacks::PGD pgd(pc);
    attacks::NIFGSM ni(pc);
    attacks::FGSM fgsm(attacks::AttackConfig{});
    const auto adv = train::evaluate_robust(
        *model, data.test, {&pgd, &ni, &fgsm},
        {s.batch, s.eval_samples, /*with_clean=*/false});
    table.add_row({row.name, pct_vs(natural, row.ref[0]),
                   pct_vs(adv.per_attack[0].robust_acc, row.ref[1]),
                   pct_vs(adv.per_attack[1].robust_acc, row.ref[2]),
                   pct_vs(adv.per_attack[2].robust_acc, row.ref[3])});
    std::fprintf(stderr, "[bench] %s / %s done (%.1fs)\n", title, row.name,
                 sw.reset());
  }
  std::printf("-- %s --\n", title);
  table.print();
  std::printf("\n");
}

}  // namespace

int main() {
  print_header("Table 4: ablation study (synth-cifar10)");
  const auto s = default_scale();

  const std::vector<AblationRow> vgg_rows = {
      // Single-term rows use amplified weights so each term's isolated effect
      // is visible at our smaller HSIC magnitudes (see EXPERIMENTS.md).
      {"(1) L_CE", 0, 0, false, false, {89.99, 0.10, 0.18, 11.80}},
      {"(2) L", 1, 1, true, false, {92.03, 12.39, 13.90, 43.49}},
      {"(3) L_CE + a*I(X,T)", 50, 0, true, false, {41.69, 0.16, 0.20, 9.98}},
      {"(4) L_CE - b*I(Y,T)", 0, 10, true, false, {91.50, 0.06, 0.99, 31.66}},
      {"(5) L_CE + FC", 0, 0, false, true, {89.41, 0.16, 0.14, 12.89}},
      {"(6) L + FC (IB-RAR)", 1, 1, true, true, {91.50, 35.86, 37.44, 55.92}},
  };
  run_ablation("CIFAR-10 with VGG16", "vgg16", vgg_rows, s);

  const std::vector<AblationRow> resnet_rows = {
      {"(1) L_CE", 0, 0, false, false, {92.19, 0.00, 0.00, 5.22}},
      {"(2) L", 1, 1, true, false, {93.32, 3.85, 4.71, 40.46}},
      {"(3) L_CE + a*I(X,T)", 50, 0, true, false, {10.00, 10.00, 10.00, 10.00}},
      {"(4) L_CE - b*I(Y,T)", 0, 10, true, false, {92.75, 0.00, 0.00, 8.90}},
      {"(5) L_CE + FC", 0, 0, false, true, {92.41, 0.00, 0.01, 4.26}},
      {"(6) L + FC (IB-RAR)", 1, 1, true, true, {93.13, 5.37, 6.09, 39.34}},
  };
  run_ablation("CIFAR-10 with ResNet18", "resnet18", resnet_rows, s);
  return 0;
}
