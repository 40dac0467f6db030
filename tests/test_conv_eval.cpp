// The one conv driver (the contract in src/tensor/conv_eval.hpp): conv2d and
// ConvEvalPlan bit-identical to an independent im2col -> GEMM -> transpose
// lowering across ragged shapes and blockings, on ordinary values and on
// NaN, +-0, +-inf and subnormals in x and w (border rows and columns
// included), BN-fold exactness, lane-count invariance, model-level logit/tap
// equality of every classifier's lowered InferencePlan, the MLP's included
// (masked and unmasked, grad mode on and off, at 1, 3 and 4 lanes), the
// serve.snapshot_bytes gauge accounting of plan lifetimes (and of nothing
// else), and one-lane timing floors of the stride-1 forward, of the input
// gradient and of a served batch-1 mlp256 forward.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/var.hpp"
#include "conv_reference.hpp"
#include "models/mlp.hpp"
#include "models/plan.hpp"
#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/model_registry.hpp"
#include "special_values.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/random.hpp"
#include "timing.hpp"
#include "util/rng.hpp"

namespace ibrar {
namespace {

constexpr float kEps = 1e-5f;
/// ConvTiming's floor for one b1c1 forward at batch 100 on one lane, below
/// the gather's time and well above the in-place read's: with AVX-512 they
/// take about 2.2 and 0.6 ms. Without AVX the kernel's own arithmetic takes
/// most of the in-place forward's time (about 2.0 ms against the gather's
/// 3.4 ms), so such builds get a floor of their own. The same for one b2c1
/// input gradient: with AVX-512 the g pack and the row-run scatter take
/// 0.9-1.4 ms, g read in place and masked tap runs 0.45-0.6 ms; without AVX
/// the kernel is most of either, 1.4-2.1 ms against 1.0-1.6 ms, so that
/// floor has little headroom on a busy host. DenseTiming's floor for one
/// served batch-1 mlp256 forward on one lane sits between a forward that
/// packs every dense weight per call and one that reads panels packed at
/// publish: 150-160 against 33-55 us with AVX-512, 305-335 against
/// 120-145 us without AVX.
#if defined(__AVX__)
constexpr double kBlock1FloorMs = 1.5;
constexpr double kInputGradFloorMs = 0.85;
constexpr double kMlp256FloorUs = 100.0;
#else
constexpr double kBlock1FloorMs = 3.0;
constexpr double kInputGradFloorMs = 1.35;
constexpr double kMlp256FloorUs = 225.0;
#endif

bool bits_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

struct BnParams {
  Tensor gamma, beta, rm, rv;
};

BnParams make_bn(std::int64_t c, Rng& rng) {
  BnParams bn{randn({c}, rng), randn({c}, rng), randn({c}, rng),
              randn({c}, rng)};
  for (std::int64_t i = 0; i < c; ++i) bn.rv[i] = bn.rv[i] * bn.rv[i] + 0.25f;
  return bn;
}

/// vgg16's conv trunk at image 16 (channels 8/12/16/24/24, pools after
/// blocks 1-3): every distinct 3x3 pad-1 conv, as (C, H = W, F).
struct TrunkConv {
  const char* name;
  std::int64_t c, hw, f;
};
constexpr TrunkConv kVgg16Trunk[] = {
    {"vgg.b1c0", 3, 16, 8},   {"vgg.b1c1", 8, 16, 8},
    {"vgg.b2c0", 8, 8, 12},   {"vgg.b2c1", 12, 8, 12},
    {"vgg.b3c0", 12, 4, 16},  {"vgg.b3c1", 16, 4, 16},
    {"vgg.b4c0", 16, 2, 24},  {"vgg.b5c0", 24, 2, 24},
};

/// relu(bn(conv(x) + bias) [+ skip]): the independent conv lowering, then
/// the layer-by-layer eval ops.
Tensor reference(const Tensor& x, const Tensor& w, const Tensor* bias,
                 const Conv2dSpec& spec, const BnParams* bn,
                 const Tensor* skip, bool relu) {
  ag::NoGradGuard ng;
  ag::Var h = ag::Var::constant(reference_conv2d(x, w, bias, spec));
  if (bn != nullptr) {
    h = ag::batch_norm2d_eval(h, ag::Var::constant(bn->gamma),
                              ag::Var::constant(bn->beta), bn->rm, bn->rv,
                              kEps);
  }
  if (skip != nullptr) h = ag::add(h, ag::Var::constant(*skip));
  if (relu) h = ag::relu(h);
  return h.value();
}

}  // namespace

TEST(FoldBatchNorm, ReproducesBatchNormEvalBitExactly) {
  Rng rng(11);
  const Tensor x = randn({3, 7, 5, 6}, rng);
  const BnParams bn = make_bn(7, rng);
  const FoldedBn fold =
      fold_batch_norm(bn.gamma, bn.beta, bn.rm, bn.rv, kEps);
  ASSERT_TRUE(fold.defined());

  ag::NoGradGuard ng;
  const ag::Var ref = ag::batch_norm2d_eval(
      ag::Var::constant(x), ag::Var::constant(bn.gamma),
      ag::Var::constant(bn.beta), bn.rm, bn.rv, kEps);
  EXPECT_TRUE(bits_equal(batch_norm_relu(x, fold, false), ref.value()));
  EXPECT_TRUE(
      bits_equal(batch_norm_relu(x, fold, true), ag::relu(ref).value()));
}

TEST(FoldBatchNorm, DefaultFoldIsUndefined) {
  EXPECT_FALSE(FoldedBn{}.defined());
}

TEST(Conv2d, MatchesIndependentLoweringAcrossShapes) {
  struct Case {
    std::string name;
    std::int64_t n, c, h, w, f;
    Conv2dSpec spec;
  };
  std::vector<Case> cases;
  // Kernel 1, 3 and 4 at stride 1 and 2, pad 0 and 1, on a non-square input
  // with F = 5 (not a multiple of MR = 4).
  for (const std::int64_t k : {1, 3, 4}) {
    for (const std::int64_t stride : {1, 2}) {
      for (const std::int64_t pad : {0, 1}) {
        cases.push_back({"k" + std::to_string(k) + "s" +
                             std::to_string(stride) + "p" + std::to_string(pad),
                         2, 3, 7, 6, 5, {k, stride, pad}});
      }
    }
  }
  cases.push_back({"f24", 2, 8, 8, 8, 24, {3, 1, 1}});
  cases.push_back({"f130_crosses_mc", 2, 6, 6, 5, 130, {3, 1, 1}});
  cases.push_back({"ckk288_crosses_kc", 2, 32, 5, 5, 7, {3, 1, 1}});
  cases.push_back({"cols768_crosses_nc", 3, 4, 16, 16, 6, {3, 1, 1}});
  // vgg16's second block-1 conv (8 -> 8 at 16x16) at the training batch.
  cases.push_back({"vgg16_block1_b100", 100, 8, 16, 16, 8, {3, 1, 1}});
  // The whole vgg16 trunk at the serving batch sizes.
  for (const auto& t : kVgg16Trunk) {
    for (const std::int64_t n : {1, 2, 4, 8, 16, 32}) {
      cases.push_back({std::string(t.name) + "_b" + std::to_string(n), n,
                       t.c, t.hw, t.hw, t.f, {3, 1, 1}});
    }
  }

  const std::int64_t lanes0 = runtime::num_threads();
  for (const auto& tc : cases) {
    const std::uint64_t seed =
        0xc0u + static_cast<std::uint64_t>(tc.f * 131 + tc.c);
    Rng rng(seed);
    const Shape x_shape{tc.n, tc.c, tc.h, tc.w};
    const Shape w_shape{tc.f, tc.c, tc.spec.kernel, tc.spec.kernel};
    const Tensor x = randn(x_shape, rng);
    const Tensor w = randn(w_shape, rng);
    const Tensor bias = randn({tc.f}, rng);
    // The same shapes again with IEEE specials at every third element of x
    // and w, so the padding ring's neighbours carry NaN and +-inf too; NaN
    // matches NaN whatever its sign (canonical_nans).
    const Tensor xs = special_values(x_shape, seed);
    const Tensor ws = special_values(w_shape, ~seed);
    for (const bool special : {false, true}) {
      for (const bool with_bias : {false, true}) {
        const Tensor& xv = special ? xs : x;
        const Tensor& wv = special ? ws : w;
        const Tensor* b = with_bias ? &bias : nullptr;
        const Tensor ref = reference_conv2d(xv, wv, b, tc.spec);
        for (const std::int64_t lanes : {1, 4}) {
          runtime::set_num_threads(lanes);
          const Tensor got = conv2d(xv, wv, b, tc.spec);
          EXPECT_TRUE(special
                          ? bits_equal(canonical_nans(ref), canonical_nans(got))
                          : bits_equal(ref, got))
              << tc.name << (special ? " special" : "")
              << (with_bias ? " bias" : "") << " lanes=" << lanes;
        }
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

TEST(ConvEvalPlan, BitIdenticalAcrossRaggedShapesAndBatches) {
  struct Case {
    const char* name;
    std::int64_t c, h, w, f;
    Conv2dSpec spec;
    bool bias;
  };
  // Non-square, stride-2, 1x1 stride-2 projection, kernel == input, kernel
  // 1 under a pad of 1 (K < pad + 1: the output is wider than the input
  // plus one pad), kernel 4 under a pad of 1, a deep-VGG shape whose
  // spatial size (4) leaves NR=16 strips mostly empty at batch 1 and full at
  // batch >= 4, then the whole vgg16 trunk. Each at 1 and 4 lanes, on
  // ordinary values and on IEEE specials.
  std::vector<Case> cases = {
      {"square3x3", 5, 9, 9, 7, {3, 1, 1}, true},
      {"nonsquare", 4, 6, 10, 9, {3, 1, 1}, true},
      {"stride2", 6, 11, 7, 8, {3, 2, 1}, true},
      {"proj1x1s2", 8, 8, 8, 12, {1, 2, 0}, false},
      {"kernel_eq_input", 5, 4, 4, 6, {4, 1, 0}, false},
      {"k1s1p1", 3, 7, 6, 5, {1, 1, 1}, true},
      {"k4s1p1", 3, 12, 11, 5, {4, 1, 1}, true},
      {"deep_vgg", 16, 4, 4, 24, {3, 1, 1}, true},
  };
  for (const auto& t : kVgg16Trunk) {
    cases.push_back({t.name, t.c, t.hw, t.hw, t.f, {3, 1, 1}, true});
  }
  const std::vector<std::int64_t> batches = {1, 2, 3, 4, 5, 8, 16, 32};
  constexpr std::int64_t kLanes[] = {1, 4};
  const std::int64_t lanes0 = runtime::num_threads();
  for (const auto& tc : cases) {
    for (const bool special : {false, true}) {
      Rng rng(0x5eedu + static_cast<std::uint64_t>(tc.f));
      const Shape w_shape{tc.f, tc.c, tc.spec.kernel, tc.spec.kernel};
      const Tensor w = special ? special_values(w_shape, 0x5eedu)
                               : randn(w_shape, rng);
      const Tensor bias = randn({tc.f}, rng);
      const BnParams bn = make_bn(tc.f, rng);
      const ConvEvalPlan plan(
          w, tc.bias ? &bias : nullptr, tc.spec,
          fold_batch_norm(bn.gamma, bn.beta, bn.rm, bn.rv, kEps), true);
      EXPECT_EQ(plan.in_channels(), tc.c);
      EXPECT_EQ(plan.out_channels(), tc.f);
      for (const auto n : batches) {
        const std::uint64_t xseed = 0x90u ^ static_cast<std::uint64_t>(n);
        Rng xrng(xseed);
        const Shape x_shape{n, tc.c, tc.h, tc.w};
        const Tensor x =
            special ? special_values(x_shape, xseed) : randn(x_shape, xrng);
        // Every output stays alive until the reference is computed, so an
        // element the driver never writes cannot pass by holding the bits
        // of a recycled buffer.
        std::vector<Tensor> got;
        for (const std::int64_t lanes : kLanes) {
          runtime::set_num_threads(lanes);
          got.push_back(plan.run(x));
        }
        const Tensor ref =
            reference(x, w, tc.bias ? &bias : nullptr, tc.spec, &bn, nullptr,
                      true);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_TRUE(bits_equal(ref, got[i]))
              << tc.name << (special ? " special" : "") << " batch=" << n
              << " lanes=" << kLanes[i];
        }
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

TEST(ConvEvalPlan, ConvOnlyAndResidualSkipVariants) {
  Rng rng(21);
  const Conv2dSpec spec{3, 1, 1};
  const Tensor w = randn({10, 6, 3, 3}, rng);
  const Tensor x = randn({3, 6, 8, 8}, rng);
  const Tensor skip = randn({3, 10, 8, 8}, rng);
  const BnParams bn = make_bn(10, rng);

  // Bare conv (WRN pre-activation blocks use these: BN runs before the conv).
  const ConvEvalPlan bare(w, nullptr, spec, FoldedBn{}, false);
  EXPECT_TRUE(bits_equal(reference(x, w, nullptr, spec, nullptr, nullptr,
                                   false),
                         bare.run(x)));

  // Post-activation residual: relu(add(bn(conv(x)), skip)) fused into the
  // epilogue (resnet BasicBlock tail).
  const ConvEvalPlan res(w, nullptr, spec,
                         fold_batch_norm(bn.gamma, bn.beta, bn.rm, bn.rv,
                                         kEps),
                         true);
  EXPECT_TRUE(bits_equal(reference(x, w, nullptr, spec, &bn, &skip, true),
                         res.run(x, &skip)));
}

TEST(ConvEvalPlan, LaneCountDoesNotChangeBits) {
  Rng rng(31);
  const Conv2dSpec spec{3, 1, 1};
  const Tensor w = randn({12, 8, 3, 3}, rng);
  const Tensor x = randn({8, 8, 16, 16}, rng);
  const BnParams bn = make_bn(12, rng);
  const ConvEvalPlan plan(
      w, nullptr, spec, fold_batch_norm(bn.gamma, bn.beta, bn.rm, bn.rv, kEps),
      true);
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  const Tensor r1 = plan.run(x);
  runtime::set_num_threads(4);
  const Tensor r4 = plan.run(x);
  runtime::set_num_threads(lanes0);
  EXPECT_TRUE(bits_equal(r1, r4));
  EXPECT_TRUE(bits_equal(r1, plan.run(x)));
}

TEST(ConvEvalModels, PlanLogitsAndTapsMatchLayerByLayer) {
  constexpr std::int64_t kLanes[] = {1, 3, 4};
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::string name : {"vgg16", "resnet18", "wrn28", "mlp"}) {
    for (const bool masked : {false, true}) {
      models::ModelSpec spec;
      spec.name = name;
      Rng rng(77);
      auto model = models::make_model(spec, rng);
      model->set_training(false);
      if (masked) {
        // An Eq. 3 mask that drops every third last-conv channel (the MLP's
        // last hidden unit), as an IB-RAR-trained model carries one.
        Tensor mask({model->last_conv_channels()}, 1.0f);
        for (std::int64_t c = 0; c < mask.numel(); c += 3) mask[c] = 0.0f;
        model->set_channel_mask(mask);
      }
      const models::InferencePlan plan = model->lower();
      ASSERT_FALSE(plan.empty()) << name;

      for (const bool grad : {true, false}) {
        // Grad on is the attack loops' mode: the model's eval forward must
        // stay differentiable while the plan, which always runs without a
        // graph, still reproduces its bits.
        std::optional<ag::NoGradGuard> ng;
        if (!grad) ng.emplace();
        ASSERT_EQ(ag::grad_enabled(), grad);
        for (const std::int64_t n : {1, 5, 32}) {
          const std::string where = name + (masked ? " masked" : "") +
                                    (grad ? " grad" : " no-grad") +
                                    " batch=" + std::to_string(n);
          Rng xrng(3 + static_cast<std::uint64_t>(n));
          const Tensor x = randn(
              {n, spec.in_channels, spec.image_size, spec.image_size}, xrng);
          // Every plan output stays alive until the reference is computed.
          std::vector<models::TapsOutput> outs;
          for (const std::int64_t lanes : kLanes) {
            runtime::set_num_threads(lanes);
            outs.push_back(plan.run(x));
          }
          runtime::set_num_threads(lanes0);
          const auto ref = model->eval_forward_with_taps(ag::Var::constant(x));
          EXPECT_EQ(ref.logits.requires_grad(), grad) << where;
          for (std::size_t l = 0; l < outs.size(); ++l) {
            const auto& out = outs[l];
            const std::string at =
                where + " lanes=" + std::to_string(kLanes[l]);
            EXPECT_FALSE(out.logits.requires_grad()) << at;
            EXPECT_TRUE(bits_equal(ref.logits.value(), out.logits.value()))
                << at << " logits";
            ASSERT_EQ(ref.taps.size(), out.taps.size()) << at;
            for (std::size_t t = 0; t < ref.taps.size(); ++t) {
              EXPECT_TRUE(
                  bits_equal(ref.taps[t].value(), out.taps[t].value()))
                  << at << " tap " << t;
            }
          }
        }
      }
    }
  }
}

TEST(ConvEvalModels, DenseModelLowersToALinearPlan) {
  models::ModelSpec spec;
  spec.name = "mlp";
  Rng rng(5);
  EXPECT_FALSE(models::make_model(spec, rng)->lower().empty());
}

TEST(ConvTiming, Block1ForwardReadsBInPlace) {
  // vgg16's b1c1 (8 -> 8 at 16x16, 3x3 pad 1) at the training batch on one
  // lane: the forward of every attack step. It fails when the forward
  // gathers each B element with a bounds check from 16 base pointers
  // instead of reading the B rows in place from one zero-padded copy of x.
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  Rng rng(37);
  const Tensor x = randn({100, 8, 16, 16}, rng);
  const Tensor w = randn({8, 8, 3, 3}, rng);
  const Tensor b = randn({8}, rng);
  float sink = 0.0f;
  const double ms = best_wall_ns(30, [&] {
                      sink += conv2d(x, w, &b, Conv2dSpec{3, 1, 1})[0];
                    }) *
                    1e-6;
  runtime::set_num_threads(lanes0);
  EXPECT_TRUE(std::isfinite(sink));
  SKIP_UNLESS_TIMING_BUILD() << ms << " ms per forward";
  EXPECT_LT(ms, kBlock1FloorMs) << ms << " ms per forward";
}

TEST(ConvTiming, InputGradReadsGInPlace) {
  // vgg16's b2c1 (12 -> 12 at 8x8, 3x3 pad 1) input gradient at the
  // training batch on one lane: the end of every attack step's backward. It
  // fails when g is packed into B strips and C is scattered into dx in runs
  // of one output row, instead of B read in place from g's planes and each
  // tap row added as one masked run.
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  Rng rng(41);
  const Tensor g = randn({100, 12, 8, 8}, rng);
  const Tensor w = randn({12, 12, 3, 3}, rng);
  float sink = 0.0f;
  const double ms = best_wall_ns(30, [&] {
                      sink += conv2d_input_grad(g, {100, 12, 8, 8}, w,
                                                Conv2dSpec{3, 1, 1})[0];
                    }) *
                    1e-6;
  runtime::set_num_threads(lanes0);
  EXPECT_TRUE(std::isfinite(sink));
  SKIP_UNLESS_TIMING_BUILD() << ms << " ms per input gradient";
  EXPECT_LT(ms, kInputGradFloorMs) << ms << " ms per input gradient";
}

TEST(DenseTiming, Mlp256Batch1PlanForward) {
  // The serve-mlp-churn model (768 -> 256 -> 256 -> 10) published with its
  // plan, one request's forward on one lane. It fails when a served batch
  // packs a dense layer's whole weight per call instead of reading panels
  // packed once at publish.
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  models::MLPConfig cfg;
  cfg.in_features = 3 * 16 * 16;
  cfg.hidden = {256, 256};
  cfg.num_classes = 10;
  Rng rng(47);
  serve::ModelRegistry reg;
  reg.publish(std::make_shared<models::MLP>(cfg, rng), {3, 16, 16});
  const auto snap = reg.current();
  Rng xrng(53);
  const Tensor x = rand_uniform({1, 3, 16, 16}, xrng, 0.0f, 1.0f);
  float sink = 0.0f;
  const double us =
      best_wall_ns(30, [&] { sink += snap->forward(x)[0]; }) * 1e-3;
  runtime::set_num_threads(lanes0);
  EXPECT_TRUE(std::isfinite(sink));
  SKIP_UNLESS_TIMING_BUILD() << us << " us per forward";
  EXPECT_LT(us, kMlp256FloorUs) << us << " us per forward";
}

TEST(Conv2d, LeavesSnapshotBytesGaugeUnchanged) {
  // conv2d packs its weights per call; only a snapshot's plans are counted.
  auto& gauge = obs::registry().gauge("serve.snapshot_bytes");
  const double base = gauge.value();
  Rng rng(43);
  const Tensor x = randn({2, 4, 6, 6}, rng);
  const Tensor w = randn({8, 4, 3, 3}, rng);
  const Tensor b = randn({8}, rng);
  const Conv2dSpec spec{3, 1, 1};
  (void)conv2d(x, w, &b, spec);
  EXPECT_EQ(gauge.value(), base);
  ag::Var xv = ag::Var::param(x), wv = ag::Var::param(w),
          bv = ag::Var::param(b);
  ag::sum(ag::conv2d(xv, wv, bv, spec)).backward();
  EXPECT_EQ(gauge.value(), base);
}

TEST(ConvEvalPlan, GaugeAccountsPackedBytesUntilDestroy) {
  auto& gauge = obs::registry().gauge("serve.snapshot_bytes");
  const double base = gauge.value();
  Rng rng(41);
  const Tensor w = randn({8, 4, 3, 3}, rng);
  {
    ConvEvalPlan plan(w, nullptr, Conv2dSpec{3, 1, 1}, FoldedBn{}, false);
    const double bytes = static_cast<double>(plan.packed_bytes());
    EXPECT_GT(bytes, 0.0);
    EXPECT_EQ(gauge.value(), base + bytes);
  }
  EXPECT_EQ(gauge.value(), base);
}

}  // namespace ibrar
