// The analysis subsystem: tap capture, the unified figure driver's artifact
// helpers, and the training-objective factory the benches delegate to.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "analysis/capture.hpp"
#include "analysis/driver.hpp"
#include "data/registry.hpp"
#include "mi/hsic.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace ibrar::analysis {
namespace {

/// Shared tiny fixture: an untrained MLP over a small synthetic set (capture
/// and the artifact helpers don't care whether the model is trained).
struct Fixture {
  Fixture()
      : data(data::make_dataset("synth-cifar10", 40, 24)) {
    spec.name = "mlp";
    spec.num_classes = data.train.num_classes;
    Rng rng(3);
    model = models::make_model(spec, rng);
    model->set_training(false);
  }
  data::SyntheticData data;
  models::ModelSpec spec;
  models::TapClassifierPtr model;
};

TEST(Capture, ShapesLabelsAndAccuracy) {
  Fixture f;
  const auto dump = capture_taps(*f.model, f.data.test, -1, 10);
  const auto n = f.data.test.size();
  EXPECT_EQ(dump.size(), n);
  EXPECT_EQ(dump.tap_names, f.model->tap_names());
  ASSERT_EQ(dump.taps.size(), dump.tap_names.size());
  ASSERT_EQ(dump.taps.size(), dump.tap_shapes.size());
  for (std::size_t t = 0; t < dump.taps.size(); ++t) {
    EXPECT_EQ(dump.taps[t].dim(0), n);
    EXPECT_EQ(shape_numel(dump.tap_shapes[t]), dump.taps[t].numel());
  }
  EXPECT_EQ(dump.logits.dim(0), n);
  EXPECT_EQ(dump.logits.dim(1), f.model->num_classes());
  EXPECT_EQ(static_cast<std::int64_t>(dump.labels.size()), n);
  // Accuracy must agree with the recorded preds/labels.
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < dump.preds.size(); ++i) {
    if (dump.preds[i] == dump.labels[i]) ++correct;
  }
  EXPECT_DOUBLE_EQ(dump.accuracy,
                   static_cast<double>(correct) / static_cast<double>(n));
}

TEST(Capture, BatchSizeDoesNotChangeTheDump) {
  Fixture f;
  const auto a = capture_taps(*f.model, f.data.test, -1, 7);
  const auto b = capture_taps(*f.model, f.data.test, -1, 24);
  ASSERT_EQ(a.taps.size(), b.taps.size());
  for (std::size_t t = 0; t < a.taps.size(); ++t) {
    ASSERT_TRUE(a.taps[t].same_shape(b.taps[t]));
    EXPECT_EQ(std::memcmp(a.taps[t].data().data(), b.taps[t].data().data(),
                          sizeof(float) *
                              static_cast<std::size_t>(a.taps[t].numel())),
              0);
  }
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
}

TEST(Capture, MaxSamplesClampsAndValidates) {
  Fixture f;
  const auto dump = capture_taps(*f.model, f.data.test, 10, 100);
  EXPECT_EQ(dump.size(), 10);
  EXPECT_THROW(capture_taps(*f.model, f.data.test, 10, 0),
               std::invalid_argument);
}

TEST(Capture, TapFilterSelectsBitIdenticalColumns) {
  Fixture f;
  const auto full = capture_taps(*f.model, f.data.test, 16, 8);
  ASSERT_GE(full.taps.size(), 2u);
  const std::size_t pick = full.taps.size() - 1;
  const auto filtered = capture_taps(*f.model, f.data.test, 16, 8, {pick});
  ASSERT_EQ(filtered.taps.size(), 1u);
  EXPECT_EQ(filtered.tap_names[0], full.tap_names[pick]);
  ASSERT_TRUE(filtered.taps[0].same_shape(full.taps[pick]));
  EXPECT_EQ(std::memcmp(filtered.taps[0].data().data(),
                        full.taps[pick].data().data(),
                        sizeof(float) *
                            static_cast<std::size_t>(filtered.taps[0].numel())),
            0);
  EXPECT_THROW(capture_taps(*f.model, f.data.test, 16, 8, {99}),
               std::out_of_range);
  // Filtered dumps cannot feed the model-indexed channel scorer.
  EXPECT_THROW(last_conv_channel_scores(filtered, *f.model,
                                        f.model->num_classes()),
               std::invalid_argument);
}

TEST(Capture, RestoresTrainingMode) {
  Fixture f;
  f.model->set_training(true);
  (void)capture_taps(*f.model, f.data.test, 8, 8);
  EXPECT_TRUE(f.model->training());
  f.model->set_training(false);
  (void)capture_taps(*f.model, f.data.test, 8, 8);
  EXPECT_FALSE(f.model->training());
}

TEST(Driver, InfoPlaneMatchesDirectHsicWhenUnchunked) {
  Fixture f;
  const auto dump = capture_taps(*f.model, f.data.test, 20, 10);
  InfoPlaneConfig cfg;
  cfg.chunk = 0;  // one chunk == the plain batch estimator
  const auto plane = info_plane(dump, {0}, f.model->num_classes(), cfg);
  ASSERT_EQ(plane.layer.size(), 1u);
  const Tensor& t = dump.taps[0];
  const float sig_t = mi::scaled_sigma(t.dim(1), cfg.sigma_mult);
  const float direct = mi::hsic_gaussian(
      dump.inputs, t, mi::scaled_sigma(dump.inputs.dim(1), cfg.sigma_mult),
      sig_t);
  EXPECT_FLOAT_EQ(static_cast<float>(plane.i_xt[0]), direct);
  const Tensor y = one_hot(dump.labels, f.model->num_classes());
  const float direct_y = mi::hsic_gaussian(
      y, t, mi::scaled_sigma(f.model->num_classes(), cfg.sigma_mult_y), sig_t);
  EXPECT_FLOAT_EQ(static_cast<float>(plane.i_ty[0]), direct_y);
}

TEST(Driver, InfoPlaneChunkedAgreesWithUnchunkedOnDependentData) {
  // Chunked and unchunked are both biased estimators of the same population
  // HSIC; on strongly dependent iid rows they must land close.
  Rng rng(17);
  const std::int64_t n = 240, d = 8;
  TapDump dump;
  dump.inputs = randn({n, d}, rng);
  dump.taps = {mul_scalar(dump.inputs, 0.5f)};
  dump.tap_names = {"t"};
  dump.tap_shapes = {{n, d}};
  for (std::int64_t i = 0; i < n; ++i) dump.labels.push_back(i % 3);
  InfoPlaneConfig cfg;
  cfg.sigma_mult = 3.0f / std::sqrt(static_cast<float>(d));  // sigma = 3
  cfg.chunk = 0;
  const double batch = info_plane(dump, {0}, 3, cfg).i_xt[0];
  cfg.chunk = 60;
  const double chunked = info_plane(dump, {0}, 3, cfg).i_xt[0];
  ASSERT_GT(batch, 0.0);
  EXPECT_NEAR(chunked, batch, 0.5 * batch);
}

TEST(Driver, InfoPlaneDefaultsToAllLayersAndValidates) {
  Fixture f;
  const auto dump = capture_taps(*f.model, f.data.test, 16, 8);
  const auto plane = info_plane(dump, {}, f.model->num_classes());
  EXPECT_EQ(plane.layer.size(), dump.taps.size());
  for (const auto v : plane.i_xt) EXPECT_TRUE(std::isfinite(v));
  for (const auto v : plane.i_ty) EXPECT_TRUE(std::isfinite(v));
  EXPECT_THROW(info_plane(dump, {99}, f.model->num_classes()),
               std::out_of_range);
}

TEST(Driver, ClusterReportShapesAndValidation) {
  Fixture f;
  const auto dump = capture_taps(*f.model, f.data.test, 24, 12);
  mi::TSNEConfig cfg;
  cfg.iterations = 30;  // keep the unit test fast
  const auto rep = cluster_report(dump, dump.taps.size() - 1, cfg);
  EXPECT_EQ(rep.embedding_points.shape(), (Shape{24, 2}));
  EXPECT_TRUE(rep.embedding_points.all_finite());
  EXPECT_GT(rep.feature.mean_inter, 0.0);
  EXPECT_THROW(cluster_report(dump, dump.taps.size(), cfg), std::out_of_range);
}

TEST(Driver, LastConvChannelScoresMatchTapWidth) {
  Fixture f;
  const auto dump = capture_taps(*f.model, f.data.test, 16, 8);
  const auto scores =
      last_conv_channel_scores(dump, *f.model, f.model->num_classes());
  const auto idx = f.model->last_conv_tap_index();
  EXPECT_EQ(static_cast<std::int64_t>(scores.size()),
            dump.tap_shapes[idx][1]);
}

TEST(Driver, ObjectiveFactoryNamesAndErrors) {
  Fixture f;
  for (const char* name : {"CE", "plain", "PGD", "TRADES", "MART", "HBaR",
                           "VIB"}) {
    EXPECT_NE(make_base_objective(name, {}, *f.model), nullptr) << name;
  }
  EXPECT_THROW(make_base_objective("nope", {}, *f.model),
               std::invalid_argument);
}

TEST(Driver, TrainModelProducesHistoryAndWarmStart) {
  Fixture f;
  TrainSpec spec;
  spec.base = "CE";
  spec.train.epochs = 2;
  spec.train.batch_size = 20;
  std::vector<train::EpochStats> history;
  auto model = train_model(f.spec, f.data, spec, 5, &history, &f.data.test);
  ASSERT_NE(model, nullptr);
  EXPECT_FALSE(model->training());
  ASSERT_EQ(history.size(), 2u);
  EXPECT_GE(history[0].test_acc, 0.0);

  // Warm start splits the budget: 1 MI epoch + 1 base epoch, same total.
  TrainSpec warm = spec;
  warm.mi_warm_start_epochs = 1;
  std::vector<train::EpochStats> warm_history;
  (void)train_model(f.spec, f.data, warm, 5, &warm_history);
  EXPECT_EQ(warm_history.size(), 2u);
}

TEST(Driver, AttackStepSweepShapes) {
  Fixture f;
  const auto sweep = attack_step_sweep(*f.model, f.data.test, "fgsm", {1},
                                       {}, 12, 12);
  ASSERT_EQ(sweep.robust_acc.size(), 1u);
  EXPECT_GE(sweep.robust_acc[0], 0.0);
  EXPECT_LE(sweep.robust_acc[0], 1.0);
  EXPECT_THROW(attack_step_sweep(*f.model, f.data.test, "nope", {1}, {}, 12,
                                 12),
               std::invalid_argument);
}

}  // namespace
}  // namespace ibrar::analysis
