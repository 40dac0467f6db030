// IB-RAR core: layer resolution, MI loss wiring, feature mask lifecycle,
// robust-layer selector, and the combined objective.

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "core/feature_mask.hpp"
#include "core/ibrar.hpp"
#include "core/mi_loss.hpp"
#include "core/robust_layers.hpp"
#include "data/registry.hpp"
#include "models/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "train/evaluate.hpp"

namespace ibrar::core {
namespace {

models::TapClassifierPtr make_vgg(std::uint64_t seed = 1) {
  Rng rng(seed);
  models::ModelSpec spec;
  spec.name = "vgg16";
  return models::make_model(spec, rng);
}

TEST(MILoss, ResolveAllLayers) {
  auto model = make_vgg();
  MILossConfig cfg;
  cfg.selection = LayerSelection::kAll;
  const auto idx = resolve_layer_indices(cfg, *model);
  EXPECT_EQ(idx.size(), model->tap_names().size());
}

TEST(MILoss, ResolveRobustDefaultsForVGG) {
  auto model = make_vgg();
  MILossConfig cfg;  // kRobust
  const auto idx = resolve_layer_indices(cfg, *model);
  // conv_block5, fc1, fc2 -> taps 4, 5, 6.
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 4u);
  EXPECT_EQ(idx[1], 5u);
  EXPECT_EQ(idx[2], 6u);
}

TEST(MILoss, ResolveExplicitAndUnknownName) {
  auto model = make_vgg();
  MILossConfig cfg;
  cfg.selection = LayerSelection::kExplicit;
  cfg.layers = {"fc1"};
  const auto idx = resolve_layer_indices(cfg, *model);
  ASSERT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx[0], 5u);
  cfg.layers = {"nope"};
  EXPECT_THROW(resolve_layer_indices(cfg, *model), std::invalid_argument);
}

TEST(MILoss, ResolveRobustForResNetAndWRN) {
  Rng rng(2);
  models::ModelSpec spec;
  spec.name = "resnet18";
  auto resnet = models::make_model(spec, rng);
  MILossConfig cfg;
  EXPECT_EQ(resolve_layer_indices(cfg, *resnet).size(), 2u);
  spec.name = "wrn28";
  auto wrn = models::make_model(spec, rng);
  EXPECT_EQ(resolve_layer_indices(cfg, *wrn).size(), 2u);
}

TEST(MILoss, TermIsFiniteAndDifferentiable) {
  auto model = make_vgg();
  model->set_training(true);
  const auto data = data::make_dataset("synth-cifar10", 40, 10);
  const auto batch = data::make_batch(data.train, {0, 1, 2, 3, 4, 5, 6, 7});

  ag::Var input = ag::Var::constant(batch.x);
  auto out = model->forward_with_taps(input);
  MILossConfig cfg;
  ag::Var term = mi_loss_term(cfg, *model, input, out.taps, batch.y);
  EXPECT_TRUE(term.value().all_finite());
  model->zero_grad();
  term.backward();
  // Some parameter upstream of the taps must receive gradient.
  double g = 0;
  for (auto& p : model->parameters()) {
    for (std::int64_t i = 0; i < p.grad().numel(); ++i) {
      g += std::fabs(p.grad()[i]);
    }
  }
  EXPECT_GT(g, 0.0);
}

TEST(FeatureMaskTest, UpdateInstallsMaskWithCorrectDropCount) {
  auto model = make_vgg();
  const auto data = data::make_dataset("synth-cifar10", 60, 10);
  FeatureMaskConfig cfg;
  cfg.drop_fraction = 0.25f;  // 24 channels -> 6 dropped
  cfg.scoring_samples = 50;
  FeatureMask mask(cfg);
  const auto scores = mask.update(*model, data.train);
  EXPECT_EQ(static_cast<std::int64_t>(scores.size()),
            model->last_conv_channels());
  const Tensor& m = model->channel_mask();
  ASSERT_EQ(m.numel(), model->last_conv_channels());
  float kept = 0;
  for (std::int64_t i = 0; i < m.numel(); ++i) kept += m[i];
  EXPECT_FLOAT_EQ(kept, static_cast<float>(model->last_conv_channels() - 6));
}

TEST(FeatureMaskTest, DroppedChannelsAreLowestScoring) {
  auto model = make_vgg();
  const auto data = data::make_dataset("synth-cifar10", 60, 10);
  FeatureMask mask(FeatureMaskConfig{0.10f, 50});
  const auto scores = mask.update(*model, data.train);
  const Tensor& m = model->channel_mask();
  float max_dropped = -1e30f, min_kept = 1e30f;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (m[static_cast<std::int64_t>(i)] == 0.0f) {
      max_dropped = std::max(max_dropped, scores[i]);
    } else {
      min_kept = std::min(min_kept, scores[i]);
    }
  }
  EXPECT_LE(max_dropped, min_kept + 1e-9f);
}

TEST(FeatureMaskTest, RepeatedUpdateRescoresAllChannels) {
  // The score pass must unmask first, so a channel dropped once can recover.
  auto model = make_vgg();
  const auto data = data::make_dataset("synth-cifar10", 60, 10);
  FeatureMask mask(FeatureMaskConfig{0.10f, 50});
  const auto s1 = mask.update(*model, data.train);
  const auto s2 = mask.update(*model, data.train);
  // Identical network + batch -> identical scores both times.
  for (std::size_t i = 0; i < s1.size(); ++i) EXPECT_NEAR(s1[i], s2[i], 1e-5f);
}

TEST(IBRARObjectiveTest, PlainModeComputesFiniteLoss) {
  auto model = make_vgg();
  model->set_training(true);
  const auto data = data::make_dataset("synth-cifar10", 30, 10);
  const auto batch = data::make_batch(data.train, {0, 1, 2, 3, 4, 5, 6, 7});
  IBRARObjective obj(nullptr, MILossConfig{});
  ag::Var loss = obj.compute(*model, batch);
  EXPECT_TRUE(loss.value().all_finite());
  EXPECT_EQ(obj.name(), "plain (IB-RAR)");
}

TEST(IBRARObjectiveTest, WrapsBaseObjective) {
  auto model = make_vgg();
  model->set_training(true);
  const auto data = data::make_dataset("synth-cifar10", 30, 10);
  const auto batch = data::make_batch(data.train, {0, 1, 2, 3});
  attacks::AttackConfig inner;
  inner.steps = 2;
  auto base = std::make_shared<train::PGDATObjective>(inner);
  IBRARObjective obj(base, MILossConfig{});
  ag::Var loss = obj.compute(*model, batch);
  EXPECT_TRUE(loss.value().all_finite());
  EXPECT_EQ(obj.name(), "PGD-AT (IB-RAR)");
}

TEST(IBRARObjectiveTest, MILossChangesGradientsVsCE) {
  const auto data = data::make_dataset("synth-cifar10", 30, 10);
  const auto batch = data::make_batch(data.train, {0, 1, 2, 3, 4, 5, 6, 7});

  auto m1 = make_vgg(3);
  auto m2 = make_vgg(3);
  m1->set_training(false);  // disable dropout so the comparison is exact
  m2->set_training(false);

  train::CEObjective ce;
  m1->zero_grad();
  ce.compute(*m1, batch).backward();

  MILossConfig strong;
  strong.alpha = 5.0f;
  strong.beta = 0.5f;
  IBRARObjective ib(nullptr, strong);
  m2->zero_grad();
  ib.compute(*m2, batch).backward();

  const auto p1 = m1->parameters();
  const auto p2 = m2->parameters();
  double diff = 0;
  for (std::size_t i = 0; i < p1.size(); ++i) {
    for (std::int64_t k = 0; k < p1[i].numel(); ++k) {
      diff += std::fabs(p1[i].grad()[k] - p2[i].grad()[k]);
    }
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(IBRARObjectiveTest, BackwardLeavesGradientsOnParametersOnly) {
  // One step of the paper's PGD-AT + IB-RAR objective (Eq. 2) on vgg16 at
  // batch 100: the adversarial cross-entropy and the MI term on the clean
  // forward's taps, differentiated by one backward. Each op node's gradient
  // is released once its closure has run; every parameter keeps its own.
  const auto data = data::make_dataset("synth-cifar10", 100, 10);
  const auto batch = data::make_batch(data.train, 0, 100);
  attacks::AttackConfig inner;
  inner.steps = 4;
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 4}) {
    runtime::set_num_threads(lanes);
    const std::string at = "lanes=" + std::to_string(lanes);
    auto model = make_vgg(5);
    model->set_training(true);
    IBRARObjective obj(std::make_shared<train::PGDATObjective>(inner),
                       MILossConfig{});
    ag::Var loss = obj.compute(*model, batch);
    const auto params = model->parameters();
    for (const auto& p : params) {
      ASSERT_FALSE(p.node()->grad_ready) << "a fresh model's gradients";
    }
    loss.backward();

    // Every node the graph holds, from the root through all parents.
    std::vector<ag::Node*> stack{loss.node().get()};
    std::unordered_set<ag::Node*> seen{loss.node().get()};
    std::int64_t ops = 0, holding = 0;
    while (!stack.empty()) {
      ag::Node* n = stack.back();
      stack.pop_back();
      if (n->backward_fn) {
        ++ops;
        // An unset or released gradient holds no storage.
        if (n->grad_ready || n->grad.numel() > 0) ++holding;
      }
      for (const auto& parent : n->parents) {
        if (seen.insert(parent.get()).second) stack.push_back(parent.get());
      }
    }
    EXPECT_GT(ops, 100) << at;
    EXPECT_EQ(holding, 0) << "op nodes still holding a gradient, " << at;
    for (const auto& p : params) {
      const ag::Node& n = *p.node();
      EXPECT_EQ(seen.count(p.node().get()), 1u) << at;
      EXPECT_TRUE(n.grad_ready) << at;
      EXPECT_EQ(n.grad.shape(), n.value.shape()) << at;
      EXPECT_TRUE(n.grad.all_finite()) << at;
    }
  }
  runtime::set_num_threads(lanes0);
}

TEST(MaskHook, SkipsFirstEpochThenInstalls) {
  auto model = make_vgg();
  const auto data = data::make_dataset("synth-cifar10", 60, 10);
  auto hook = make_mask_hook(FeatureMaskConfig{0.10f, 40}, data.train,
                             /*first_epoch=*/2);
  hook(0, *model);  // epoch 0 -> epoch+1 = 1 < 2: no mask yet
  EXPECT_EQ(model->channel_mask().numel(), 0);
  hook(1, *model);  // epoch 1 -> 2 >= 2: mask installed
  EXPECT_EQ(model->channel_mask().numel(), model->last_conv_channels());
}

TEST(RobustLayerSelectorTest, FindsRobustLayersOnMLP) {
  // Small end-to-end probe run (MLP keeps it fast). The contract under test:
  // a report with one probe per tap, a baseline, and a non-empty robust set.
  const auto data = data::make_dataset("synth-cifar10", 200, 80);
  models::ModelSpec spec;
  spec.name = "mlp";
  RobustLayerConfig cfg;
  cfg.train.epochs = 3;
  cfg.train.batch_size = 50;
  cfg.eval_attack.steps = 5;
  cfg.eval_samples = 80;
  RobustLayerSelector selector(
      [&](Rng& rng) { return models::make_model(spec, rng); }, cfg);
  const auto report = selector.select(data.train, data.test);
  EXPECT_EQ(report.per_layer.size(), 2u);  // MLP has 2 taps
  EXPECT_FALSE(report.robust_layers.empty());
  EXPECT_GE(report.baseline_test_acc, 0.0);
  for (const auto& r : report.per_layer) {
    EXPECT_GE(r.adv_acc, 0.0);
    EXPECT_LE(r.adv_acc, 1.0);
  }
}

TEST(ToIBConfig, TranslatesFields) {
  auto model = make_vgg();
  MILossConfig cfg;
  cfg.alpha = 2.5f;
  cfg.beta = 0.3f;
  const auto ib = to_ib_config(cfg, *model);
  EXPECT_FLOAT_EQ(ib.alpha, 2.5f);
  EXPECT_FLOAT_EQ(ib.beta, 0.3f);
  EXPECT_EQ(ib.layer_indices.size(), 3u);
}

}  // namespace
}  // namespace ibrar::core
