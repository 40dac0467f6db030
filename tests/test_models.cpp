// Model architectures: tap contracts, channel masks, output shapes,
// determinism, registry, VIB noise injection.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "models/mlp.hpp"
#include "models/registry.hpp"
#include "models/resnet.hpp"
#include "models/vgg.hpp"
#include "models/wideresnet.hpp"
#include "tensor/random.hpp"

namespace ibrar::models {
namespace {

Tensor test_images(std::int64_t n = 2, std::int64_t size = 16) {
  Rng rng(21);
  return rand_uniform({n, 3, size, size}, rng);
}

class ModelSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelSweep, ForwardShapesAndTaps) {
  Rng rng(1);
  ModelSpec spec;
  spec.name = GetParam();
  auto model = make_model(spec, rng);
  model->set_training(false);
  auto out = model->forward_with_taps(ag::Var::constant(test_images()));
  EXPECT_EQ(out.logits.shape(), (Shape{2, 10}));
  EXPECT_EQ(out.taps.size(), model->tap_names().size());
  for (const auto& t : out.taps) {
    EXPECT_EQ(t.shape()[0], 2);
    EXPECT_TRUE(t.value().all_finite());
  }
}

TEST_P(ModelSweep, DeterministicGivenSeed) {
  ModelSpec spec;
  spec.name = GetParam();
  Rng r1(7), r2(7);
  auto a = make_model(spec, r1);
  auto b = make_model(spec, r2);
  a->set_training(false);
  b->set_training(false);
  const Tensor x = test_images();
  const Tensor ya = a->forward(ag::Var::constant(x)).value();
  const Tensor yb = b->forward(ag::Var::constant(x)).value();
  for (std::int64_t i = 0; i < ya.numel(); ++i) EXPECT_FLOAT_EQ(ya[i], yb[i]);
}

TEST_P(ModelSweep, ChannelMaskZeroesChannels) {
  Rng rng(3);
  ModelSpec spec;
  spec.name = GetParam();
  auto model = make_model(spec, rng);
  model->set_training(false);
  const auto c = model->last_conv_channels();
  Tensor mask({c}, 1.0f);
  mask[0] = 0.0f;  // drop first channel
  model->set_channel_mask(mask);
  auto out = model->forward_with_taps(ag::Var::constant(test_images()));
  const Tensor& feat = out.taps.at(model->last_conv_tap_index()).value();
  // Channel 0 of the masked tap must be exactly zero for all samples.
  const auto spatial = feat.rank() == 4 ? feat.dim(2) * feat.dim(3) : 1;
  for (std::int64_t i = 0; i < feat.dim(0); ++i) {
    for (std::int64_t k = 0; k < spatial; ++k) {
      EXPECT_FLOAT_EQ(feat.data()[(i * c + 0) * spatial + k], 0.0f);
    }
  }
}

TEST_P(ModelSweep, MaskChangesLogits) {
  Rng rng(4);
  ModelSpec spec;
  spec.name = GetParam();
  auto model = make_model(spec, rng);
  model->set_training(false);
  const Tensor x = test_images();
  const Tensor before = model->forward(ag::Var::constant(x)).value();
  Tensor mask({model->last_conv_channels()}, 1.0f);
  for (std::int64_t i = 0; i < mask.numel(); i += 2) mask[i] = 0.0f;
  model->set_channel_mask(mask);
  const Tensor after = model->forward(ag::Var::constant(x)).value();
  double diff = 0;
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    diff += std::fabs(before[i] - after[i]);
  }
  EXPECT_GT(diff, 1e-4);
  model->clear_channel_mask();
  const Tensor restored = model->forward(ag::Var::constant(x)).value();
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_FLOAT_EQ(before[i], restored[i]);
  }
}

TEST_P(ModelSweep, HasChannelMaskTracksSetAndClear) {
  Rng rng(5);
  ModelSpec spec;
  spec.name = GetParam();
  auto model = make_model(spec, rng);
  EXPECT_FALSE(model->has_channel_mask());
  model->set_channel_mask(Tensor({model->last_conv_channels()}, 1.0f));
  EXPECT_TRUE(model->has_channel_mask());
  model->clear_channel_mask();
  EXPECT_FALSE(model->has_channel_mask());
}

INSTANTIATE_TEST_SUITE_P(Architectures, ModelSweep,
                         ::testing::Values("vgg16", "resnet18", "wrn28", "mlp"));

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void expect_same_bits(const TapsOutput& a, const TapsOutput& b) {
  EXPECT_TRUE(same_bits(a.logits.value(), b.logits.value()));
  ASSERT_EQ(a.taps.size(), b.taps.size());
  for (std::size_t t = 0; t < a.taps.size(); ++t) {
    EXPECT_TRUE(same_bits(a.taps[t].value(), b.taps[t].value())) << "tap " << t;
  }
}

std::vector<Tensor> buffer_values(TapClassifier& m) {
  std::vector<Tensor> out;
  for (auto& [name, b] : m.named_buffers()) out.push_back(*b);
  return out;
}

/// Each model's one forward body must route every child to the mode it was
/// given: batch norm, dropout and the VIB noise are where the two differ.
class ModelModes : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelModes, EvalForwardOfATrainingModelWritesAndDrawsNothing) {
  const auto make = [] {
    ModelSpec spec;
    spec.name = GetParam();
    Rng rng(31);
    auto m = make_model(spec, rng);
    m->set_penultimate_noise(0.5f);
    m->set_training(true);
    return m;
  };
  auto a = make();  // train, eval, train
  auto b = make();  // train, train: a's twin without the eval forward
  auto c = make();  // train, then the eval forward after set_training(false)
  const ag::Var x = ag::Var::constant(test_images(4));

  // A training forward moves every batch-norm running stat.
  const auto buf0 = buffer_values(*a);
  EXPECT_EQ(buf0.empty(), std::string(GetParam()) == "mlp");
  const auto a1 = a->forward_with_taps(x);
  const auto buf1 = buffer_values(*a);
  for (std::size_t i = 0; i < buf0.size(); ++i) {
    EXPECT_FALSE(same_bits(buf0[i], buf1[i])) << a->named_buffers()[i].first;
  }

  // The eval forward of a model left in training mode writes no buffer...
  const auto ev = a->eval_forward_with_taps(x);
  const auto buf2 = buffer_values(*a);
  for (std::size_t i = 0; i < buf1.size(); ++i) {
    EXPECT_TRUE(same_bits(buf1[i], buf2[i])) << a->named_buffers()[i].first;
  }
  // ...and draws nothing: the next training forward, and the buffers it
  // leaves, match the twin that never ran it.
  const auto a2 = a->forward_with_taps(x);
  const auto b1 = b->forward_with_taps(x);
  const auto b2 = b->forward_with_taps(x);
  expect_same_bits(a1, b1);
  expect_same_bits(a2, b2);
  const auto buf_a = buffer_values(*a);
  const auto buf_b = buffer_values(*b);
  for (std::size_t i = 0; i < buf_a.size(); ++i) {
    EXPECT_TRUE(same_bits(buf_a[i], buf_b[i])) << a->named_buffers()[i].first;
  }

  // That eval forward is the eval-mode forward_with_taps.
  c->forward_with_taps(x);
  c->set_training(false);
  expect_same_bits(ev, c->forward_with_taps(x));
}

INSTANTIATE_TEST_SUITE_P(Architectures, ModelModes,
                         ::testing::Values("vgg16", "resnet18", "wrn28", "mlp"));

TEST(VGG, TapNamesMatchPaperStructure) {
  Rng rng(5);
  VGGConfig cfg;
  MiniVGG vgg(cfg, rng);
  const auto& names = vgg.tap_names();
  ASSERT_EQ(names.size(), 7u);
  EXPECT_EQ(names[0], "conv_block1");
  EXPECT_EQ(names[4], "conv_block5");
  EXPECT_EQ(names[5], "fc1");
  EXPECT_EQ(names[6], "fc2");
  EXPECT_EQ(vgg.last_conv_tap_index(), 4u);
}

TEST(VGG, RejectsWrongBlockCount) {
  Rng rng(6);
  VGGConfig cfg;
  cfg.channels = {8, 8};
  EXPECT_THROW(MiniVGG(cfg, rng), std::invalid_argument);
}

TEST(VGG, MaskValidation) {
  Rng rng(7);
  VGGConfig cfg;
  MiniVGG vgg(cfg, rng);
  EXPECT_THROW(vgg.set_channel_mask(Tensor({3}, 1.0f)), std::invalid_argument);
}

TEST(ResNet, DownsamplingStages) {
  Rng rng(8);
  ResNetConfig cfg;
  MiniResNet net(cfg, rng);
  net.set_training(false);
  auto out = net.forward_with_taps(ag::Var::constant(test_images()));
  // Stages: 16 -> 8 -> 4 -> 2 spatial.
  EXPECT_EQ(out.taps[0].shape()[2], 16);
  EXPECT_EQ(out.taps[1].shape()[2], 8);
  EXPECT_EQ(out.taps[2].shape()[2], 4);
  EXPECT_EQ(out.taps[3].shape()[2], 2);
  EXPECT_EQ(out.taps[4].shape(), (Shape{2, cfg.channels.back()}));
}

TEST(WRN, GroupWidthsFollowWidenFactor) {
  Rng rng(9);
  WRNConfig cfg;
  MiniWRN net(cfg, rng);
  net.set_training(false);
  auto out = net.forward_with_taps(ag::Var::constant(test_images()));
  EXPECT_EQ(out.taps[0].shape()[1], cfg.base_width * cfg.widen);
  EXPECT_EQ(out.taps[2].shape()[1], cfg.base_width * cfg.widen * 4);
  EXPECT_EQ(net.last_conv_channels(), cfg.base_width * cfg.widen * 4);
}

TEST(MLPModel, FlattensImages) {
  Rng rng(10);
  MLPConfig cfg;
  cfg.in_features = 3 * 16 * 16;
  MLP mlp(cfg, rng);
  mlp.set_training(false);
  EXPECT_EQ(mlp.forward(ag::Var::constant(test_images())).shape(),
            (Shape{2, 10}));
}

TEST(Registry, UnknownNameThrows) {
  Rng rng(11);
  ModelSpec spec;
  spec.name = "alexnet";
  EXPECT_THROW(make_model(spec, rng), std::invalid_argument);
  EXPECT_THROW(default_robust_layers("alexnet"), std::invalid_argument);
}

TEST(Registry, DefaultRobustLayers) {
  const auto v = default_robust_layers("vgg16");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "conv_block5");
  EXPECT_EQ(default_robust_layers("resnet18").back(), "gap");
}

TEST(VIBNoise, InjectedOnlyInTraining) {
  Rng rng(12);
  ModelSpec spec;
  auto model = make_model(spec, rng);
  model->set_penultimate_noise(0.5f);
  const Tensor x = test_images();
  model->set_training(false);
  const Tensor a = model->forward(ag::Var::constant(x)).value();
  const Tensor b = model->forward(ag::Var::constant(x)).value();
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
  model->set_training(true);
  const Tensor c = model->forward(ag::Var::constant(x)).value();
  const Tensor d = model->forward(ag::Var::constant(x)).value();
  double diff = 0;
  for (std::int64_t i = 0; i < c.numel(); ++i) diff += std::fabs(c[i] - d[i]);
  EXPECT_GT(diff, 1e-5);  // dropout + noise make training forwards stochastic
}

TEST(ModelParams, ReasonableParameterCounts) {
  Rng rng(13);
  for (const char* name : {"vgg16", "resnet18", "wrn28"}) {
    ModelSpec spec;
    spec.name = name;
    auto model = make_model(spec, rng);
    EXPECT_GT(model->num_parameters(), 5000) << name;
    EXPECT_LT(model->num_parameters(), 500000) << name;
  }
}

TEST(ModelParams, CheckpointKeysArePinned) {
  // The parameter and buffer keys a checkpoint is saved and loaded under,
  // in order. A layer that fuses two modules into one must keep them, so a
  // checkpoint written before the fusion still loads.
  struct Keys {
    const char* model;
    const char* params;
    const char* buffers;
  };
  const Keys pinned[] = {
    {"vgg16",
     "block1.0.weight block1.0.bias block1.1.gamma block1.1.beta "
     "block1.3.weight block1.3.bias block1.4.gamma block1.4.beta "
     "block2.0.weight block2.0.bias block2.1.gamma block2.1.beta "
     "block2.3.weight block2.3.bias block2.4.gamma block2.4.beta "
     "block3.0.weight block3.0.bias block3.1.gamma block3.1.beta "
     "block3.3.weight block3.3.bias block3.4.gamma block3.4.beta "
     "block4.0.weight block4.0.bias block4.1.gamma block4.1.beta "
     "block4.3.weight block4.3.bias block4.4.gamma block4.4.beta "
     "block5.0.weight block5.0.bias block5.1.gamma block5.1.beta "
     "block5.3.weight block5.3.bias block5.4.gamma block5.4.beta "
     "fc1.weight fc1.bias fc2.weight fc2.bias head.weight head.bias",
     "block1.1.running_mean block1.1.running_var block1.4.running_mean "
     "block1.4.running_var block2.1.running_mean block2.1.running_var "
     "block2.4.running_mean block2.4.running_var block3.1.running_mean "
     "block3.1.running_var block3.4.running_mean block3.4.running_var "
     "block4.1.running_mean block4.1.running_var block4.4.running_mean "
     "block4.4.running_var block5.1.running_mean block5.1.running_var "
     "block5.4.running_mean block5.4.running_var"},
    {"resnet18",
     "stem.weight stem_bn.gamma stem_bn.beta stage1.0.conv1.weight "
     "stage1.0.bn1.gamma stage1.0.bn1.beta stage1.0.conv2.weight "
     "stage1.0.bn2.gamma stage1.0.bn2.beta stage2.0.conv1.weight "
     "stage2.0.bn1.gamma stage2.0.bn1.beta stage2.0.conv2.weight "
     "stage2.0.bn2.gamma stage2.0.bn2.beta stage2.0.proj.weight "
     "stage2.0.proj_bn.gamma stage2.0.proj_bn.beta stage3.0.conv1.weight "
     "stage3.0.bn1.gamma stage3.0.bn1.beta stage3.0.conv2.weight "
     "stage3.0.bn2.gamma stage3.0.bn2.beta stage3.0.proj.weight "
     "stage3.0.proj_bn.gamma stage3.0.proj_bn.beta stage4.0.conv1.weight "
     "stage4.0.bn1.gamma stage4.0.bn1.beta stage4.0.conv2.weight "
     "stage4.0.bn2.gamma stage4.0.bn2.beta stage4.0.proj.weight "
     "stage4.0.proj_bn.gamma stage4.0.proj_bn.beta head.weight head.bias",
     "stem_bn.running_mean stem_bn.running_var stage1.0.bn1.running_mean "
     "stage1.0.bn1.running_var stage1.0.bn2.running_mean "
     "stage1.0.bn2.running_var stage2.0.bn1.running_mean "
     "stage2.0.bn1.running_var stage2.0.bn2.running_mean "
     "stage2.0.bn2.running_var stage2.0.proj_bn.running_mean "
     "stage2.0.proj_bn.running_var stage3.0.bn1.running_mean "
     "stage3.0.bn1.running_var stage3.0.bn2.running_mean "
     "stage3.0.bn2.running_var stage3.0.proj_bn.running_mean "
     "stage3.0.proj_bn.running_var stage4.0.bn1.running_mean "
     "stage4.0.bn1.running_var stage4.0.bn2.running_mean "
     "stage4.0.bn2.running_var stage4.0.proj_bn.running_mean "
     "stage4.0.proj_bn.running_var"},
    {"wrn28",
     "stem.weight group1.0.bn1.gamma group1.0.bn1.beta "
     "group1.0.conv1.weight group1.0.bn2.gamma group1.0.bn2.beta "
     "group1.0.conv2.weight group1.0.proj.weight group2.0.bn1.gamma "
     "group2.0.bn1.beta group2.0.conv1.weight group2.0.bn2.gamma "
     "group2.0.bn2.beta group2.0.conv2.weight group2.0.proj.weight "
     "group3.0.bn1.gamma group3.0.bn1.beta group3.0.conv1.weight "
     "group3.0.bn2.gamma group3.0.bn2.beta group3.0.conv2.weight "
     "group3.0.proj.weight final_bn.gamma final_bn.beta head.weight "
     "head.bias",
     "group1.0.bn1.running_mean group1.0.bn1.running_var "
     "group1.0.bn2.running_mean group1.0.bn2.running_var "
     "group2.0.bn1.running_mean group2.0.bn1.running_var "
     "group2.0.bn2.running_mean group2.0.bn2.running_var "
     "group3.0.bn1.running_mean group3.0.bn1.running_var "
     "group3.0.bn2.running_mean group3.0.bn2.running_var "
     "final_bn.running_mean final_bn.running_var"},
  };
  auto split = [](const std::string& s) {
    std::vector<std::string> out;
    std::istringstream in(s);
    for (std::string k; in >> k;) out.push_back(k);
    return out;
  };
  for (const auto& k : pinned) {
    ModelSpec spec;
    spec.name = k.model;
    Rng rng(1);
    auto model = make_model(spec, rng);
    std::vector<std::string> params, buffers;
    for (const auto& [name, p] : model->named_parameters()) {
      params.push_back(name);
    }
    for (const auto& [name, b] : model->named_buffers()) {
      buffers.push_back(name);
    }
    EXPECT_EQ(params, split(k.params)) << k.model;
    EXPECT_EQ(buffers, split(k.buffers)) << k.model;
  }
}

}  // namespace
}  // namespace ibrar::models
