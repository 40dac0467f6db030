// Registry / spec-parser coverage: construction by name, the spec grammar
// (key=value overrides, composite pipelines), actionable error messages, and
// the RobustReport driver including per-stage composite statistics.

#include <gtest/gtest.h>

#include <stdexcept>

#include "attacks/registry.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "train/evaluate.hpp"
#include "train/trainer.hpp"

namespace ibrar::attacks {
namespace {

struct TrainedSetup {
  data::SyntheticData data = data::make_dataset("synth-cifar10", 240, 120);
  models::TapClassifierPtr model;

  TrainedSetup() {
    Rng rng(11);
    models::ModelSpec spec;
    spec.name = "mlp";
    model = models::make_model(spec, rng);
    train::TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 60;
    train::Trainer trainer(model, std::make_shared<train::CEObjective>(), tc);
    trainer.fit(data.train);
  }
};

TrainedSetup& setup() {
  static TrainedSetup s;
  return s;
}

/// EXPECT the call throws std::invalid_argument whose message contains every
/// given fragment (actionable-message contract).
template <typename Fn>
void expect_invalid(Fn&& fn, std::initializer_list<const char*> fragments) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const char* frag : fragments) {
      EXPECT_NE(msg.find(frag), std::string::npos)
          << "message missing '" << frag << "': " << msg;
    }
  }
}

TEST(Registry, MakesEveryRegisteredAttack) {
  AttackConfig cfg;
  cfg.steps = 2;
  for (const auto& name : registered_attacks()) {
    auto atk = make(name, cfg);
    ASSERT_NE(atk, nullptr) << name;
    EXPECT_FALSE(atk->name().empty());
    EXPECT_EQ(atk->config().steps, 2) << name;
  }
}

TEST(Registry, UnknownNameListsRegistry) {
  expect_invalid([] { make("pgdd"); }, {"unknown attack 'pgdd'", "pgd", "cw"});
}

TEST(SpecParser, ParsesKeyValueOverrides) {
  auto atk = parse_spec("pgd:steps=20,restarts=5,eps=0.05,alpha=0.01");
  EXPECT_EQ(atk->name(), "PGD20");
  EXPECT_EQ(atk->config().steps, 20);
  EXPECT_EQ(atk->config().restarts, 5);
  EXPECT_FLOAT_EQ(atk->config().eps, 0.05f);
  EXPECT_FLOAT_EQ(atk->config().alpha, 0.01f);
}

TEST(SpecParser, SchedulingKnobs) {
  auto atk = parse_spec("pgd:steps=4,active_set=1,best=step,random_start=0");
  EXPECT_TRUE(atk->config().active_set);
  EXPECT_EQ(atk->config().track_best, BestMode::kPerStep);
  EXPECT_FALSE(atk->config().random_start);
}

TEST(SpecParser, DefaultsSeedEveryStage) {
  AttackConfig defaults;
  defaults.eps = 0.1f;
  defaults.steps = 3;
  auto atk = parse_spec("fgsm", defaults);
  EXPECT_FLOAT_EQ(atk->config().eps, 0.1f);
}

TEST(SpecParser, UnknownAttackName) {
  expect_invalid([] { parse_spec("pdg:steps=3"); },
                 {"unknown attack 'pdg'", "registered attacks are"});
}

TEST(SpecParser, MalformedKeyValue) {
  expect_invalid([] { parse_spec("pgd:steps"); },
                 {"malformed option 'steps'", "key=value"});
  expect_invalid([] { parse_spec("pgd:=3"); }, {"malformed option"});
  expect_invalid([] { parse_spec("pgd:steps="); }, {"malformed option"});
}

TEST(SpecParser, NonNumericValue) {
  expect_invalid([] { parse_spec("pgd:steps=abc"); },
                 {"not an integer", "'abc'"});
  expect_invalid([] { parse_spec("pgd:eps=huge"); }, {"not a number"});
}

TEST(SpecParser, OutOfRangeEps) {
  expect_invalid([] { parse_spec("pgd:eps=2.0"); },
                 {"eps=2.0 out of range", "8/255"});
  expect_invalid([] { parse_spec("pgd:eps=-0.1"); }, {"out of range"});
  // NaN fails every comparison — it must still be rejected.
  expect_invalid([] { parse_spec("pgd:eps=nan"); }, {"out of range"});
  expect_invalid([] { parse_spec("pgd:eps=inf"); }, {"out of range"});
}

TEST(SpecParser, OutOfRangeBudgets) {
  expect_invalid([] { parse_spec("pgd:restarts=0"); }, {"restarts must be >= 1"});
  expect_invalid([] { parse_spec("pgd:steps=-1"); }, {"steps must be >= 0"});
  expect_invalid([] { parse_spec("pgd:alpha=-0.5"); }, {"alpha must be in"});
  expect_invalid([] { parse_spec("pgd:alpha=nan"); }, {"alpha must be in"});
}

TEST(SpecParser, OverflowingValuesRejected) {
  expect_invalid([] { parse_spec("pgd:steps=99999999999999999999"); },
                 {"overflows int64"});
  expect_invalid([] { parse_spec("cw:c=1e99"); }, {"overflows float"});
}

TEST(SpecParser, FGSMRejectsIterationKeys) {
  expect_invalid([] { parse_spec("fgsm:steps=5"); },
                 {"fgsm ignores 'steps'", "use pgd"});
  expect_invalid([] { parse_spec("fgsm:restarts=3"); }, {"fgsm ignores"});
  expect_invalid([] { parse_spec("fgsm:alpha=0.01"); }, {"fgsm ignores"});
  // eps, best, active_set and seed remain meaningful for FGSM.
  EXPECT_NO_THROW(parse_spec("fgsm:eps=0.05,best=step,active_set=1"));
}

TEST(SpecParser, AttackSpecificKeyOnWrongAttackRejected) {
  expect_invalid([] { parse_spec("pgd:momentum=0.9"); },
                 {"'momentum' belongs to 'nifgsm', not 'pgd'"});
  expect_invalid([] { parse_spec("fgsm:kappa=1"); }, {"belongs to 'cw'"});
}

TEST(SpecParser, AdaptiveIBKnobs) {
  auto atk = parse_spec("adaptive:steps=3,ib_alpha=2,ib_beta=0.5,layers=4+5+6");
  EXPECT_EQ(atk->config().steps, 3);
  expect_invalid([] { parse_spec("adaptive:layers=4+x"); }, {"not an integer"});
  expect_invalid([] { parse_spec("adaptive:layers=-1"); },
                 {"layers indices must be >= 0"});
}

TEST(SpecParser, UnknownKeyListsVocabulary) {
  expect_invalid([] { parse_spec("pgd:stepss=3"); },
                 {"unknown key 'stepss'", "eps, alpha, steps"});
}

TEST(SpecParser, ActiveSetRejectedForBatchCoupledStages) {
  expect_invalid([] { parse_spec("mifgsm:active_set=1"); },
                 {"mifgsm", "active_set"});
  expect_invalid([] { parse_spec("nifgsm:steps=2,active_set=1"); },
                 {"nifgsm"});
  expect_invalid([] { parse_spec("adaptive:active_set=1"); }, {"adaptive"});
}

TEST(SpecParser, UnknownBestMode) {
  expect_invalid([] { parse_spec("pgd:best=bestest"); },
                 {"best=bestest", "auto|last|restart|step"});
}

TEST(SpecParser, CompositeBothArrowFlavours) {
  auto ascii = parse_spec("fgsm->pgd:steps=3->cw:steps=2");
  auto utf8 = parse_spec("fgsm\xe2\x86\x92pgd:steps=3\xe2\x86\x92"
                         "cw:steps=2");
  auto* ca = dynamic_cast<CompositeAttack*>(ascii.get());
  auto* cu = dynamic_cast<CompositeAttack*>(utf8.get());
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cu, nullptr);
  EXPECT_EQ(ca->num_stages(), 3u);
  EXPECT_EQ(ca->name(), cu->name());
}

TEST(SpecParser, CompositeStageErrorsNameTheStage) {
  expect_invalid([] { parse_spec("fgsm->pgd:steps=oops"); },
                 {"stage 'pgd:steps=oops'"});
  expect_invalid([] { parse_spec("fgsm->"); }, {"empty attack name"});
}

TEST(Composite, SurvivorForwardingAndTrace) {
  auto atk = parse_spec("fgsm->pgd:steps=10,restarts=2");
  auto* comp = dynamic_cast<CompositeAttack*>(atk.get());
  ASSERT_NE(comp, nullptr);
  const auto batch = data::make_batch(setup().data.test, 0, 80);
  const Tensor adv = comp->perturb(*setup().model, batch.x, batch.y);
  ASSERT_EQ(adv.shape(), batch.x.shape());

  const auto& trace = comp->last_trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].forwarded, 80);
  // Stage 2 sees exactly the examples stage 1 failed to fool.
  EXPECT_EQ(trace[1].forwarded, 80 - trace[0].fooled);
  EXPECT_GE(trace[0].fooled, 0);

  // The ensemble is at least as strong as its weakest prefix.
  const double acc = accuracy(*setup().model, adv, batch.y);
  auto fgsm_only = parse_spec("fgsm");
  const double fgsm_acc = accuracy(
      *setup().model, fgsm_only->perturb(*setup().model, batch.x, batch.y),
      batch.y);
  EXPECT_LE(acc, fgsm_acc + 1e-9);
}

TEST(Driver, RobustReportSingleAttacks) {
  const auto report = train::evaluate_robust(
      *setup().model, setup().data.test,
      std::vector<std::string>{"fgsm", "pgd:steps=5"}, {50, 100});
  EXPECT_EQ(report.examples, 100);
  ASSERT_EQ(report.per_attack.size(), 2u);
  EXPECT_EQ(report.per_attack[0].name, "FGSM");
  EXPECT_EQ(report.per_attack[1].name, "PGD5");
  EXPECT_EQ(report.worst_case_correct.size(), 100u);
  // Worst case can never beat any single attack or the clean pass.
  for (const auto& a : report.per_attack) {
    EXPECT_LE(report.worst_case_acc, a.robust_acc + 1e-9);
    EXPECT_GT(a.seconds, 0.0);
    EXPECT_GT(a.ns_per_example, 0.0);
  }
  EXPECT_LE(report.worst_case_acc, report.clean_acc + 1e-9);
}

TEST(Driver, SuiteMatchesOneAttackSweeps) {
  // Every attack owns its RNG stream, so a five-attack sweep, which
  // interleaves the attacks batch by batch, must score each attack exactly
  // as a sweep of that attack alone does, and its worst case must be the
  // AND of the one-attack masks.
  const std::vector<std::string> specs = {"pgd:steps=5", "cw:steps=5", "fgsm",
                                          "fab:steps=3", "nifgsm:steps=5"};
  const train::RobustEvalConfig cfg{50, 100};
  const auto suite = train::evaluate_robust(*setup().model, setup().data.test,
                                            specs, cfg);
  ASSERT_EQ(suite.per_attack.size(), specs.size());
  std::vector<std::uint8_t> all_correct(100, 1);
  for (std::size_t a = 0; a < specs.size(); ++a) {
    const auto one = train::evaluate_robust(
        *setup().model, setup().data.test, std::vector<std::string>{specs[a]},
        cfg);
    EXPECT_EQ(suite.per_attack[a].robust_acc,
              one.per_attack.front().robust_acc)
        << specs[a];
    EXPECT_EQ(suite.clean_acc, one.clean_acc);
    ASSERT_EQ(one.worst_case_correct.size(), all_correct.size());
    for (std::size_t i = 0; i < all_correct.size(); ++i) {
      all_correct[i] &= one.worst_case_correct[i];
    }
  }
  EXPECT_EQ(suite.worst_case_correct, all_correct);
}

TEST(Driver, CompositeEndToEndOnePass) {
  // The acceptance-criteria spec: cheap → strong → expensive, one pass,
  // per-stage + worst-case accuracy in a single report.
  const auto report = train::evaluate_robust(
      *setup().model, setup().data.test,
      std::vector<std::string>{"fgsm\xe2\x86\x92pgd:restarts=3\xe2\x86\x92"
                               "cw:steps=20"},
      {50, 100});
  ASSERT_EQ(report.per_attack.size(), 1u);
  const auto& comp = report.per_attack.front();
  ASSERT_EQ(comp.stages.size(), 3u);
  EXPECT_EQ(comp.stages[0].forwarded, 100);
  double prev = 1.0;
  std::int64_t fooled = 0;
  for (const auto& st : comp.stages) {
    EXPECT_LE(st.robust_acc, prev + 1e-9);  // cumulative accuracy monotone
    prev = st.robust_acc;
    fooled += st.fooled;
  }
  EXPECT_NEAR(comp.stages.back().robust_acc,
              static_cast<double>(100 - fooled) / 100.0, 1e-9);
  // Composite robust accuracy equals the final cumulative stage accuracy.
  EXPECT_NEAR(comp.robust_acc, comp.stages.back().robust_acc, 1e-9);
  EXPECT_LE(report.worst_case_acc, comp.robust_acc + 1e-9);
}

}  // namespace
}  // namespace ibrar::attacks
