// NN layer semantics: shapes, parameter registration, init statistics,
// train/eval mode behaviour, sequential composition, checkpoint round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "util/serialize.hpp"

namespace ibrar::nn {
namespace {

TEST(Linear, ShapeAndBias) {
  Rng rng(1);
  Linear fc(8, 4, rng);
  ag::Var x = ag::Var::constant(Tensor({3, 8}, 1.0f));
  ag::Var y = fc.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 4}));
  EXPECT_EQ(fc.parameters().size(), 2u);
  Linear no_bias(8, 4, rng, /*bias=*/false);
  EXPECT_EQ(no_bias.parameters().size(), 1u);
}

TEST(Linear, GradientFlowsToParams) {
  Rng rng(2);
  Linear fc(4, 2, rng);
  ag::Var x = ag::Var::constant(Tensor({5, 4}, 0.5f));
  ag::Var loss = ag::mean(ag::square(fc.forward(x)));
  fc.zero_grad();
  loss.backward();
  bool any_nonzero = false;
  for (auto& p : fc.parameters()) {
    for (std::int64_t i = 0; i < p.grad().numel(); ++i) {
      any_nonzero = any_nonzero || p.grad()[i] != 0.0f;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(Conv2dLayer, OutputShape) {
  Rng rng(3);
  Conv2d conv(3, 8, rng);  // 3x3, stride 1, pad 1
  ag::Var x = ag::Var::constant(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(conv.forward(x).shape(), (Shape{2, 8, 16, 16}));
  Conv2d strided(3, 8, rng, Conv2dSpec{3, 2, 1});
  EXPECT_EQ(strided.forward(x).shape(), (Shape{2, 8, 8, 8}));
  Conv2d one(3, 8, rng, Conv2dSpec{1, 1, 0});
  EXPECT_EQ(one.forward(x).shape(), (Shape{2, 8, 16, 16}));
}

TEST(Init, KaimingScalesWithFanIn) {
  Rng rng(5);
  Tensor w({1000});
  kaiming_normal(w, 50, rng);
  double ss = 0;
  for (std::int64_t i = 0; i < w.numel(); ++i) ss += double(w[i]) * w[i];
  const double stddev = std::sqrt(ss / w.numel());
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 50.0), 0.03);
}

TEST(BatchNormLayer, NormalizesBatchInTraining) {
  Rng rng(7);
  BatchNorm2d bn(4);
  bn.set_training(true);
  Tensor x = randn({8, 4, 5, 5}, rng, 3.0f, 2.0f);
  ag::Var y = bn.forward(ag::Var::constant(x));
  // Per-channel mean ~0, var ~1 after normalization with unit gamma.
  const Tensor& v = y.value();
  for (std::int64_t c = 0; c < 4; ++c) {
    double s = 0, s2 = 0;
    std::int64_t n = 0;
    for (std::int64_t i = 0; i < 8; ++i) {
      for (std::int64_t k = 0; k < 25; ++k) {
        const float val = v.at(i, c, k / 5, k % 5);
        s += val;
        s2 += double(val) * val;
        ++n;
      }
    }
    EXPECT_NEAR(s / n, 0.0, 1e-3);
    EXPECT_NEAR(s2 / n, 1.0, 1e-2);
  }
}

TEST(BatchNormLayer, RunningStatsConvergeAndEvalUsesThem) {
  Rng rng(8);
  BatchNorm2d bn(2);
  bn.set_training(true);
  for (int i = 0; i < 50; ++i) {
    Tensor x = randn({16, 2, 3, 3}, rng, 1.0f, 0.5f);
    bn.forward(ag::Var::constant(x));
  }
  auto buffers = bn.named_buffers();
  ASSERT_EQ(buffers.size(), 2u);
  // running_mean ~1, running_var ~0.25.
  EXPECT_NEAR((*buffers[0].second)[0], 1.0f, 0.15f);
  EXPECT_NEAR((*buffers[1].second)[0], 0.25f, 0.1f);

  bn.set_training(false);
  Tensor x({1, 2, 1, 1}, {1.0f, 1.0f});
  ag::Var y = bn.forward(ag::Var::constant(x));
  // With input == running mean, eval output ~0.
  EXPECT_NEAR(y.value()[0], 0.0f, 0.2f);
}

TEST(DropoutLayer, EvalIsIdentity) {
  Dropout drop(0.5f, 11);
  drop.set_training(false);
  Tensor x({10}, 3.0f);
  ag::Var y = drop.forward(ag::Var::constant(x));
  for (std::int64_t i = 0; i < 10; ++i) EXPECT_FLOAT_EQ(y.value()[i], 3.0f);
}

TEST(SequentialLayer, ComposesAndCollectsParams) {
  Rng rng(12);
  Sequential seq;
  seq.push_back(std::make_shared<Linear>(6, 4, rng));
  seq.push_back(std::make_shared<ReLU>());
  seq.push_back(std::make_shared<Linear>(4, 2, rng));
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);
  ag::Var y = seq.forward(ag::Var::constant(Tensor({1, 6}, 1.0f)));
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  // Mode propagates to children.
  seq.set_training(false);
  EXPECT_FALSE(seq.training());
}

TEST(ModuleTree, NamedParametersAreQualified) {
  Rng rng(13);
  Sequential seq;
  seq.push_back(std::make_shared<Linear>(3, 3, rng));
  const auto named = seq.named_parameters();
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "0.weight");
  EXPECT_EQ(named[1].first, "0.bias");
}

TEST(ModuleTree, NumParametersCounts) {
  Rng rng(14);
  Linear fc(10, 5, rng);
  EXPECT_EQ(fc.num_parameters(), 10 * 5 + 5);
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  Rng rng(15);
  Sequential a;
  a.push_back(std::make_shared<Linear>(4, 3, rng));
  a.push_back(std::make_shared<BatchNorm2d>(3));

  const std::string path = "/tmp/ibrar_test_ckpt.bin";
  save_model(a, path);

  Rng rng2(99);
  Sequential b;
  b.push_back(std::make_shared<Linear>(4, 3, rng2));
  b.push_back(std::make_shared<BatchNorm2d>(3));
  load_model(b, path);

  const auto pa = a.named_parameters();
  const auto pb = b.named_parameters();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    for (std::int64_t k = 0; k < pa[i].second.numel(); ++k) {
      EXPECT_FLOAT_EQ(pa[i].second.value()[k], pb[i].second.value()[k]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsShapeMismatch) {
  Rng rng(16);
  Linear a(4, 3, rng);
  const std::string path = "/tmp/ibrar_test_ckpt2.bin";
  save_model(a, path);
  Linear b(4, 5, rng);
  EXPECT_THROW(load_model(b, path), std::runtime_error);
  std::remove(path.c_str());
}

/// A tensor's elements as a vector.
std::vector<float> values(const Tensor& t) {
  return std::vector<float>(t.data().begin(), t.data().end());
}

/// Every parameter and buffer value of `m`, in named order.
std::vector<std::vector<float>> model_state(Module& m) {
  std::vector<std::vector<float>> out;
  for (auto& [name, p] : m.named_parameters()) out.push_back(values(p.value()));
  for (auto& [name, b] : m.named_buffers()) out.push_back(values(*b));
  return out;
}

/// The blobs save_model would write for `m`.
std::vector<serialize::NamedBlob> model_blobs(Module& m) {
  std::vector<serialize::NamedBlob> blobs;
  for (auto& [name, p] : m.named_parameters()) {
    blobs.push_back({name, p.value().shape(), values(p.value())});
  }
  for (auto& [name, b] : m.named_buffers()) {
    blobs.push_back({"buffer:" + name, b->shape(), values(*b)});
  }
  return blobs;
}

TEST(Checkpoint, LoadRejectsPayloadShorterThanShape) {
  // A conv weight of shape (8, 3, 3, 3) cut to 108 of its 216 floats: the
  // next conv would read 216 floats from it.
  Rng rng(17);
  Conv2d conv(3, 8, rng);
  auto blobs = model_blobs(conv);
  ASSERT_EQ(blobs[0].name, "weight");
  blobs[0].data.resize(108);
  const std::string path = "/tmp/ibrar_test_ckpt_short.bin";
  serialize::save(path, blobs);
  const auto before = model_state(conv);
  EXPECT_THROW(load_model(conv, path), std::runtime_error);
  EXPECT_EQ(model_state(conv), before);
  EXPECT_EQ(conv.named_parameters()[0].second.numel(), 216);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsPayloadPastEndOfFile) {
  // A header claiming 2^62 floats (with a shape that agrees) must be refused
  // from the file size, before anything is allocated for it.
  const std::string path = "/tmp/ibrar_test_ckpt_eof.bin";
  serialize::save(path, {{"w", {1, 2}, {1.0f, 2.0f}}});
  std::vector<char> bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char c;
    while (std::fread(&c, 1, 1, f) == 1) bytes.push_back(c);
    std::fclose(f);
  }
  // Layout after the 16-byte header and the 4 + 1 byte name: u32 rank,
  // i64 dims, u64 numel, payload.
  const std::size_t dims_at = 16 + 4 + 1 + 4;
  const std::int64_t dims[2] = {std::int64_t{1} << 31, std::int64_t{1} << 31};
  const std::uint64_t numel = std::uint64_t{1} << 62;
  std::memcpy(bytes.data() + dims_at, dims, sizeof dims);
  std::memcpy(bytes.data() + dims_at + sizeof dims, &numel, sizeof numel);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  EXPECT_THROW(serialize::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadRejectsNegativeDim) {
  const std::string path = "/tmp/ibrar_test_ckpt_negdim.bin";
  serialize::save(path, {{"w", {-1, -4}, {1.0f, 2.0f, 3.0f, 4.0f}}});
  EXPECT_THROW(serialize::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, BadLastBlobLeavesModelUnchanged) {
  // Every blob is checked before any is written: a wrong shape on the last
  // parameter must not leave the earlier ones overwritten.
  Rng rng(18);
  Sequential a;
  a.push_back(std::make_shared<Linear>(4, 3, rng));
  a.push_back(std::make_shared<Linear>(3, 2, rng));
  auto blobs = model_blobs(a);
  ASSERT_EQ(blobs.back().name, "1.bias");
  blobs.back().shape = {5};
  blobs.back().data.assign(5, 0.5f);
  const std::string path = "/tmp/ibrar_test_ckpt_badlast.bin";
  serialize::save(path, blobs);

  Rng rng2(19);
  Sequential b;
  b.push_back(std::make_shared<Linear>(4, 3, rng2));
  b.push_back(std::make_shared<Linear>(3, 2, rng2));
  const auto before = model_state(b);
  EXPECT_THROW(load_model(b, path), std::runtime_error);
  EXPECT_EQ(model_state(b), before);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ibrar::nn
