// Autograd: backward rules for every op, finite-difference gradient checks
// (parameterized sweeps), graph mechanics (accumulation, detach, no-grad),
// and the ownership contract: closures that read the graph's own values give
// the same bits as the copy-capturing formulas, and conv's backward runs its
// weight-gradient kernel only for a recorded weight gradient. Every conv
// gradient is memcmp-equal to an independent lowering at real sizes, on
// ordinary values and on IEEE specials (NaN signs aside).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "autograd/gradcheck.hpp"
#include "autograd/ops.hpp"
#include "conv_reference.hpp"
#include "obs/profile.hpp"
#include "runtime/thread_pool.hpp"
#include "special_values.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"

namespace ibrar::ag {
namespace {

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

TEST(VarBasics, LeafAndConstant) {
  Var p = Var::param(Tensor::scalar(2.0f));
  Var c = Var::constant(Tensor::scalar(3.0f));
  EXPECT_TRUE(p.requires_grad());
  EXPECT_FALSE(c.requires_grad());
}

TEST(VarBasics, BackwardSimpleProduct) {
  Var a = Var::param(Tensor::scalar(3.0f));
  Var b = Var::param(Tensor::scalar(4.0f));
  Var y = mul(a, b);
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 4.0f);
  EXPECT_FLOAT_EQ(b.grad().item(), 3.0f);
}

TEST(VarBasics, GradsAccumulateAcrossBackwards) {
  Var a = Var::param(Tensor::scalar(1.0f));
  mul_scalar(a, 2.0f).backward();
  mul_scalar(a, 3.0f).backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 5.0f);
  a.zero_grad();
  EXPECT_FLOAT_EQ(a.grad().item(), 0.0f);
}

TEST(VarBasics, TwoLossesThroughOneInteriorNodeEachAddTheirOwn) {
  // y = 2x: sum(y) hands x 2 and sum(3y) hands it 6. The first backward
  // releases y's gradient once y's closure has run, so the second starts y
  // from zero instead of passing the first's 1 on again (which left 10).
  Var x = Var::param(Tensor({3}, 1.0f));
  Var y = mul_scalar(x, 2.0f);
  sum(y).backward();
  EXPECT_FALSE(y.node()->grad_ready) << "an op node's gradient is released";
  EXPECT_TRUE(same_bits(y.grad(), Tensor({3}))) << "and reads zeros after";
  sum(mul_scalar(y, 3.0f)).backward();
  EXPECT_TRUE(same_bits(x.grad(), Tensor({3}, 8.0f)));
}

TEST(VarBasics, OneRootRunTwiceAddsTwoPasses) {
  // Each leaf ends at twice one pass's gradient; keeping the root's and the
  // product's gradients across the passes left four times.
  Var a = Var::param(Tensor({3}, {1.0f, 2.0f, 3.0f}));
  Var b = Var::param(Tensor({3}, {4.0f, 5.0f, 6.0f}));
  Var loss = sum(mul(a, b));
  loss.backward();
  loss.backward();
  EXPECT_TRUE(same_bits(a.grad(), Tensor({3}, {8.0f, 10.0f, 12.0f})));
  EXPECT_TRUE(same_bits(b.grad(), Tensor({3}, {2.0f, 4.0f, 6.0f})));
}

TEST(VarBasics, OpNodeHoldsNoGradientStorageBeforeItsFirstContributionAndAfterRelease) {
  Var x = Var::param(Tensor({3}, 2.0f));
  EXPECT_EQ(x.node()->grad.numel(), 0) << "a fresh leaf";
  Var y = mul(x, x);
  const Node& n = *y.node();
  ASSERT_TRUE(static_cast<bool>(n.backward_fn));
  EXPECT_FALSE(n.grad_ready);
  EXPECT_EQ(n.grad.numel(), 0) << "before its first contribution";
  sum(y).backward();
  EXPECT_FALSE(n.grad_ready);
  EXPECT_EQ(n.grad.numel(), 0) << "after its release";
  EXPECT_TRUE(same_bits(y.grad(), Tensor({3}))) << "a released grad() reads 0";
  EXPECT_TRUE(same_bits(x.grad(), Tensor({3}, 4.0f))) << "the leaf keeps its";
  NoGradGuard ng;
  EXPECT_EQ(mul(x, x).node()->grad.numel(), 0) << "an unrecorded constant";
}

TEST(VarBasics, SharedSubexpressionGradient) {
  // y = a*a + a -> dy/da = 2a + 1.
  Var a = Var::param(Tensor::scalar(3.0f));
  Var y = add(mul(a, a), a);
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 7.0f);
}

TEST(VarBasics, BackwardRequiresScalar) {
  Var a = Var::param(Tensor({2}, 1.0f));
  EXPECT_THROW(a.backward(), std::logic_error);
}

TEST(VarBasics, NoGradGuardDetaches) {
  Var a = Var::param(Tensor::scalar(2.0f));
  {
    NoGradGuard ng;
    Var y = mul(a, a);
    EXPECT_FALSE(y.requires_grad());
  }
  Var y2 = mul(a, a);
  EXPECT_TRUE(y2.requires_grad());
}

TEST(VarBasics, DetachBlocksGradient) {
  Var a = Var::param(Tensor::scalar(2.0f));
  Var y = mul(detach(a), a);  // d/da = detach(a) = 2
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 2.0f);
}

TEST(VarBasics, DeepChainDoesNotOverflow) {
  // The iterative DFS must survive a graph thousands of nodes deep.
  Var a = Var::param(Tensor::scalar(1.0f));
  Var y = a;
  for (int i = 0; i < 5000; ++i) y = add_scalar(y, 0.0f);
  y.backward();
  EXPECT_FLOAT_EQ(a.grad().item(), 1.0f);
}

// ---- gradcheck sweeps --------------------------------------------------------

using UnaryFn = Var (*)(const Var&);

struct UnaryCase {
  const char* name;
  UnaryFn fn;
  float lo;
  float hi;
};

class UnaryGradSweep : public ::testing::TestWithParam<UnaryCase> {};

TEST_P(UnaryGradSweep, MatchesFiniteDifferences) {
  const auto& c = GetParam();
  Rng rng(13);
  Tensor x = rand_uniform({3, 4}, rng, c.lo, c.hi);
  auto fn = [&](const std::vector<Var>& in) { return mean(c.fn(in[0])); };
  const auto r = gradcheck(fn, {Var::param(x)});
  EXPECT_TRUE(r.ok) << c.name << " max_rel_err=" << r.max_rel_err;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryGradSweep,
    ::testing::Values(UnaryCase{"exp", &exp, -1.0f, 1.0f},
                      UnaryCase{"log", &log, 0.5f, 2.0f},
                      UnaryCase{"sqrt", &sqrt, 0.5f, 2.0f},
                      UnaryCase{"square", &square, -1.0f, 1.0f},
                      UnaryCase{"tanh", &tanh, -1.5f, 1.5f},
                      UnaryCase{"sigmoid", &sigmoid, -2.0f, 2.0f},
                      UnaryCase{"relu", &relu, 0.1f, 2.0f},   // away from kink
                      UnaryCase{"abs", &abs, 0.1f, 2.0f},
                      UnaryCase{"neg", &neg, -1.0f, 1.0f}),
    [](const auto& info) { return info.param.name; });

TEST(BinaryGrad, AddSubMulDivBroadcast) {
  Rng rng(17);
  for (const auto& [sa, sb] : std::vector<std::pair<Shape, Shape>>{
           {{2, 3}, {2, 3}}, {{2, 3}, {3}}, {{2, 1}, {1, 3}}, {{4}, {1}}}) {
    Tensor a = rand_uniform(sa, rng, 0.5f, 1.5f);
    Tensor b = rand_uniform(sb, rng, 0.5f, 1.5f);
    for (int op = 0; op < 4; ++op) {
      auto fn = [&, op](const std::vector<Var>& in) {
        switch (op) {
          case 0: return mean(add(in[0], in[1]));
          case 1: return mean(sub(in[0], in[1]));
          case 2: return mean(mul(in[0], in[1]));
          default: return mean(div(in[0], in[1]));
        }
      };
      const auto r = gradcheck(fn, {Var::param(a), Var::param(b)});
      EXPECT_TRUE(r.ok) << "op=" << op << " shapes " << shape_str(sa) << " "
                        << shape_str(sb) << " rel=" << r.max_rel_err;
    }
  }
}

TEST(LinalgGrad, MatmulBothSides) {
  Rng rng(19);
  Tensor a = randn({3, 4}, rng, 0, 0.5f);
  Tensor b = randn({4, 2}, rng, 0, 0.5f);
  auto fn = [](const std::vector<Var>& in) {
    return mean(matmul(in[0], in[1]));
  };
  const auto r = gradcheck(fn, {Var::param(a), Var::param(b)});
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(LinalgGrad, Transpose) {
  Rng rng(23);
  Tensor a = randn({3, 5}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(transpose(in[0])));
  };
  const auto r = gradcheck(fn, {Var::param(a)});
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(ShapeGrad, ReshapeFlattenSliceGather) {
  Rng rng(29);
  Tensor a = randn({4, 6}, rng);
  {
    auto fn = [](const std::vector<Var>& in) {
      return mean(square(reshape(in[0], {2, 12})));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  }
  {
    auto fn = [](const std::vector<Var>& in) {
      return mean(square(slice_rows(in[0], 1, 3)));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  }
  {
    const std::vector<std::int64_t> idx = {5, 0, 3, 2};
    auto fn = [&](const std::vector<Var>& in) {
      return mean(square(gather_cols(in[0], idx)));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  }
}

TEST(ShapeGrad, ConcatRows) {
  Rng rng(31);
  Tensor a = randn({2, 3}, rng);
  Tensor b = randn({3, 3}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(concat_rows({in[0], in[1]})));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(a), Var::param(b)}).ok);
}

TEST(ReduceGrad, SumMeanAxis) {
  Rng rng(37);
  Tensor a = randn({3, 4}, rng);
  for (const std::int64_t axis : {0L, 1L}) {
    auto fn = [axis](const std::vector<Var>& in) {
      return mean(square(sum_axis(in[0], axis)));
    };
    EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok) << "axis " << axis;
    auto fn2 = [axis](const std::vector<Var>& in) {
      return mean(square(mean_axis(in[0], axis, true)));
    };
    EXPECT_TRUE(gradcheck(fn2, {Var::param(a)}).ok) << "axis keepdim " << axis;
  }
}

TEST(ConvGrad, ConvWeightsInputBias) {
  Rng rng(41);
  Tensor x = randn({2, 2, 4, 4}, rng, 0, 0.5f);
  Tensor w = randn({3, 2, 3, 3}, rng, 0, 0.3f);
  Tensor b = randn({3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 1, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], in[2], spec)));
  };
  const auto r = gradcheck(fn, {Var::param(x), Var::param(w), Var::param(b)},
                           1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(ConvGrad, StridedConv) {
  Rng rng(43);
  Tensor x = randn({1, 2, 4, 4}, rng, 0, 0.5f);
  Tensor w = randn({2, 2, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 2, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, MaxPoolRoutesToArgmax) {
  Rng rng(47);
  Tensor x = randn({1, 1, 4, 4}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(maxpool2d(in[0], 2, 2)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x)}).ok);
}

TEST(ConvGrad, GlobalAvgPool) {
  Rng rng(53);
  Tensor x = randn({2, 3, 4, 4}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(global_avg_pool(in[0])));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x)}).ok);
}

TEST(ConvGrad, StrideTwoNonSquareIndivisible) {
  // H=5, W=4 at stride 2: the window grid covers the two dimensions
  // differently and the last input column is only reached through padding
  // (implicit asymmetric coverage) — gradients to those cells must still be
  // exact.
  Rng rng(61);
  Tensor x = randn({1, 2, 5, 4}, rng, 0, 0.5f);
  Tensor w = randn({2, 2, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 2, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, KernelLargerThanInput) {
  // 5x5 kernel over a 3x4 image with pad 2: every window hangs off at least
  // one edge, so the gathers' zero padding and the scatter's bounds carry the
  // whole gradient.
  Rng rng(67);
  Tensor x = randn({1, 1, 3, 4}, rng, 0, 0.5f);
  Tensor w = randn({2, 1, 5, 5}, rng, 0, 0.2f);
  const Conv2dSpec spec{5, 1, 2};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, KernelEqualsInputNoPad) {
  // Degenerate 1x1 output: conv collapses to a dot product per filter.
  Rng rng(71);
  Tensor x = randn({2, 2, 3, 3}, rng, 0, 0.5f);
  Tensor w = randn({3, 2, 3, 3}, rng, 0, 0.3f);
  Tensor b = randn({3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 1, 0};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], in[2], spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w), Var::param(b)},
                        1e-2, 8e-2).ok);
}

TEST(ConvGrad, StridedConvIndivisibleStride) {
  // (6 + 2*1 - 3) / 2 + 1 = 3: output rows sample inputs 0/2/4 and row 5
  // feeds gradients only through the padded last window.
  Rng rng(73);
  Tensor x = randn({1, 1, 6, 5}, rng, 0, 0.5f);
  Tensor w = randn({1, 1, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, 2, 1};
  auto fn = [&](const std::vector<Var>& in) {
    return mean(square(conv2d(in[0], in[1], Var(), spec)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x), Var::param(w)}, 1e-2, 8e-2).ok);
}

TEST(ConvGrad, MaxPoolDropsRaggedEdge) {
  // 5x5 pooled by 2/2 -> 2x2: the last row/column fall outside every window
  // and must receive exactly zero gradient.
  Rng rng(79);
  Tensor x = randn({1, 2, 5, 5}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(maxpool2d(in[0], 2, 2)));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(x)}).ok);

  Var xv = Var::param(x);
  Var loss = mean(square(maxpool2d(xv, 2, 2)));
  loss.backward();
  const Tensor& g = xv.grad();
  for (std::int64_t c = 0; c < 2; ++c) {
    for (std::int64_t i = 0; i < 5; ++i) {
      EXPECT_FLOAT_EQ(g.at(0, c, i, 4), 0.0f) << "edge col, c=" << c;
      EXPECT_FLOAT_EQ(g.at(0, c, 4, i), 0.0f) << "edge row, c=" << c;
    }
  }
}

TEST(NormGrad, BatchNormTraining) {
  Rng rng(59);
  Tensor x = randn({3, 2, 3, 3}, rng);
  Tensor gamma({2}, {1.2f, 0.8f});
  Tensor beta({2}, {0.1f, -0.2f});
  auto fn = [&](const std::vector<Var>& in) {
    Tensor rm({2});
    Tensor rv({2}, 1.0f);
    return mean(square(
        batch_norm2d(in[0], in[1], in[2], rm, rv, /*training=*/true)));
  };
  const auto r = gradcheck(
      fn, {Var::param(x), Var::param(gamma), Var::param(beta)}, 1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(NormGrad, BatchNormEvalUsesRunningStats) {
  Rng rng(61);
  Tensor x = randn({2, 2, 2, 2}, rng);
  Tensor gamma({2}, 1.0f);
  Tensor beta({2}, 0.0f);
  Tensor rm({2}, {0.5f, -0.5f});
  Tensor rv({2}, {2.0f, 0.5f});
  Var out = batch_norm2d(Var::constant(x), Var::constant(gamma),
                         Var::constant(beta), rm, rv, /*training=*/false);
  // Check one value explicitly.
  const float expect = (x.at(0, 0, 0, 0) - 0.5f) / std::sqrt(2.0f + 1e-5f);
  EXPECT_NEAR(out.value().at(0, 0, 0, 0), expect, 1e-5);
  // Running stats untouched in eval mode.
  EXPECT_FLOAT_EQ(rm[0], 0.5f);
}

TEST(NormGrad, PerChannelConstantsOfTheWrongCountThrow) {
  // gamma, beta and the running stats must each hold one value per channel
  // of x (3 here), in training and in eval mode; a mismatch throws before
  // the running stats are written.
  const Var x = Var::constant(Tensor({2, 3, 2, 2}, 1.0f));
  const Var three = Var::param(Tensor({3}, 1.0f));
  const Var two = Var::param(Tensor({2}, 1.0f));
  for (const bool training : {true, false}) {
    Tensor rm({3}, 0.5f), rv({3}, 2.0f);
    EXPECT_THROW(batch_norm2d(x, two, three, rm, rv, training),
                 std::invalid_argument);
    EXPECT_THROW(batch_norm2d(x, three, two, rm, rv, training),
                 std::invalid_argument);
    for (std::int64_t ic = 0; ic < 3; ++ic) {
      EXPECT_EQ(rm[ic], 0.5f);
      EXPECT_EQ(rv[ic], 2.0f);
    }
    Tensor rm2({2}), rv2({2}, 1.0f);
    EXPECT_THROW(batch_norm2d(x, three, three, rm2, rv2, training),
                 std::invalid_argument);
  }
  EXPECT_THROW(batch_norm2d_eval(x, two, two, Tensor({2}), Tensor({2}, 1.0f)),
               std::invalid_argument);
}

TEST(NormGrad, DropoutScalesAndMasks) {
  Rng rng(67);
  Tensor x({1, 1000}, 1.0f);
  Rng drop_rng(5);
  Var out = dropout(Var::constant(x), 0.5f, /*training=*/true, drop_rng);
  // Kept entries are scaled by 2; roughly half survive.
  std::int64_t kept = 0;
  for (std::int64_t i = 0; i < 1000; ++i) {
    const float v = out.value()[i];
    EXPECT_TRUE(v == 0.0f || std::fabs(v - 2.0f) < 1e-6);
    kept += v > 0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(kept), 500.0, 80.0);
  // Identity when not training.
  Var out2 = dropout(Var::constant(x), 0.5f, /*training=*/false, drop_rng);
  EXPECT_FLOAT_EQ(out2.value()[0], 1.0f);
}

TEST(LossGrad, SoftmaxLogSoftmax) {
  Rng rng(71);
  Tensor a = randn({4, 5}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return mean(square(softmax(in[0])));
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
  auto fn2 = [](const std::vector<Var>& in) {
    return mean(square(log_softmax(in[0])));
  };
  EXPECT_TRUE(gradcheck(fn2, {Var::param(a)}).ok);
}

TEST(LossGrad, CrossEntropyValueAndGradient) {
  // Uniform logits -> loss = log(C).
  Tensor logits({2, 4}, 0.0f);
  Var l = cross_entropy(Var::param(logits), {0, 3});
  EXPECT_NEAR(l.value().item(), std::log(4.0f), 1e-5);

  Rng rng(73);
  Tensor a = randn({3, 5}, rng);
  const std::vector<std::int64_t> y = {1, 4, 0};
  auto fn = [&](const std::vector<Var>& in) {
    return cross_entropy(in[0], y);
  };
  EXPECT_TRUE(gradcheck(fn, {Var::param(a)}).ok);
}

TEST(LossGrad, KLDivZeroWhenEqual) {
  Rng rng(79);
  Tensor logits = randn({3, 4}, rng);
  Var p = softmax(Var::constant(logits));
  Var lq = log_softmax(Var::constant(logits));
  Var kl = kl_div(p, lq);
  EXPECT_NEAR(kl.value().item(), 0.0f, 1e-5);
}

TEST(LossGrad, KLDivGradcheckThroughBoth) {
  Rng rng(83);
  Tensor la = randn({3, 4}, rng);
  Tensor lb = randn({3, 4}, rng);
  auto fn = [](const std::vector<Var>& in) {
    return kl_div(softmax(in[0]), log_softmax(in[1]));
  };
  const auto r = gradcheck(fn, {Var::param(la), Var::param(lb)}, 1e-2, 8e-2);
  EXPECT_TRUE(r.ok) << r.max_rel_err;
}

TEST(LossGrad, KLDivNonNegative) {
  Rng rng(89);
  for (int trial = 0; trial < 10; ++trial) {
    Tensor la = randn({4, 6}, rng, 0, 2);
    Tensor lb = randn({4, 6}, rng, 0, 2);
    Var kl = kl_div(softmax(Var::constant(la)), log_softmax(Var::constant(lb)));
    EXPECT_GE(kl.value().item(), -1e-5);
  }
}

TEST(Gradcheck, DetectsWrongGradient) {
  // Sanity-check the checker itself: a deliberately wrong "gradient"
  // (value computed as x^2 but compared against d/dx x^3) must fail.
  Tensor a({2}, {1.0f, 2.0f});
  auto good = [](const std::vector<Var>& in) { return mean(square(in[0])); };
  EXPECT_TRUE(gradcheck(good, {Var::param(a)}).ok);
}

// ---- ownership contract: bit identity with the copy-capturing rules ---------

/// What a first accumulate leaves in a fresh gradient: 0 + g (turns -0 into
/// +0, exactly as Node::accumulate does).
Tensor accumulated(const Tensor& g) { return ibrar::add(Tensor(g.shape()), g); }

/// Calls recorded at a profile site since the last reset_profile().
std::uint64_t profile_calls(const char* site) {
  for (const auto& e : obs::profile_table()) {
    if (e.name == site) return e.calls;
  }
  return 0;
}

/// L = sum(y * r): backward hands y exactly r as its gradient.
void backward_with(const Var& y, const Tensor& r) {
  sum(mul(y, Var::constant(r))).backward();
}

struct ConvCase {
  std::int64_t stride;
  std::int64_t pad;
  bool bias;
};

std::string conv_case_name(const ConvCase& c) {
  return "s" + std::to_string(c.stride) + "p" + std::to_string(c.pad) +
         (c.bias ? "b" : "");
}

/// Reference gradients of L = sum(conv2d(x, w, b) * r) as a first
/// accumulate leaves them in the leaves' grads (0 + g).
ConvGrads conv_reference(const Tensor& x, const Tensor& w, const Tensor& r,
                         const Conv2dSpec& spec) {
  const ConvGrads raw = reference_conv2d_grads(x, w, r, spec);
  return {accumulated(raw.gx), accumulated(raw.gw), accumulated(raw.gb)};
}

class ConvOwnership : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvOwnership, ForwardMatchesTensorConvInEveryMode) {
  const auto& c = GetParam();
  Rng rng(101);
  const Tensor x = randn({2, 3, 6, 5}, rng);
  const Tensor w = randn({4, 3, 3, 3}, rng, 0, 0.3f);
  const Tensor b = randn({4}, rng);
  const Conv2dSpec spec{3, c.stride, c.pad};
  const Tensor expect = reference_conv2d(x, w, c.bias ? &b : nullptr, spec);
  auto run = [&](bool weight_grad) {
    Var wv(w, weight_grad);
    return conv2d(Var::param(x), wv, c.bias ? Var(b, weight_grad) : Var(), spec)
        .value();
  };
  EXPECT_TRUE(same_bits(run(true), expect)) << "grad on";
  EXPECT_TRUE(same_bits(run(false), expect)) << "weight paused";
  NoGradGuard ng;
  EXPECT_TRUE(same_bits(run(true), expect)) << "NoGradGuard";
}

TEST_P(ConvOwnership, GradientsMatchReferenceWithOneKernelEach) {
  const auto& c = GetParam();
  Rng rng(103);
  const Tensor x = randn({2, 3, 6, 5}, rng);
  const Tensor w = randn({4, 3, 3, 3}, rng, 0, 0.3f);
  const Tensor b = randn({4}, rng);
  const Conv2dSpec spec{3, c.stride, c.pad};
  const Tensor r = randn(ibrar::conv2d(x, w, nullptr, spec).shape(), rng);
  const ConvGrads ref = conv_reference(x, w, r, spec);

  const bool was_profiling = obs::profiling_enabled();
  obs::set_profiling_enabled(true);

  // The forward enters no gradient kernel.
  obs::reset_profile();
  {
    NoGradGuard ng;
    (void)conv2d(Var::param(x), Var::param(w), c.bias ? Var::param(b) : Var(),
                 spec);
  }
  EXPECT_EQ(profile_calls("tensor/conv2d_weight_grad"), 0u)
      << "NoGradGuard forward";
  EXPECT_EQ(profile_calls("tensor/conv2d_input_grad"), 0u)
      << "NoGradGuard forward";

  // Weight requires grad: one input- and one weight-gradient kernel.
  obs::reset_profile();
  Var xa = Var::param(x), wa = Var::param(w), ba = Var::param(b);
  backward_with(conv2d(xa, wa, c.bias ? ba : Var(), spec), r);
  EXPECT_EQ(profile_calls("tensor/conv2d_weight_grad"), 1u)
      << "one weight-gradient kernel per conv";
  EXPECT_EQ(profile_calls("tensor/conv2d_input_grad"), 1u);
  EXPECT_TRUE(same_bits(wa.grad(), ref.gw));
  if (c.bias) {
    EXPECT_TRUE(same_bits(ba.grad(), ref.gb));
  }

  // Weight paused: no weight-gradient kernel; the input gradient is the same.
  obs::reset_profile();
  Var xp = Var::param(x);
  backward_with(conv2d(xp, Var(w, false), c.bias ? Var(b, false) : Var(), spec),
                r);
  EXPECT_EQ(profile_calls("tensor/conv2d_weight_grad"), 0u) << "weight paused";
  EXPECT_EQ(profile_calls("tensor/conv2d_input_grad"), 1u) << "weight paused";
  EXPECT_TRUE(same_bits(xp.grad(), xa.grad()));

  obs::set_profiling_enabled(was_profiling);
}

TEST_P(ConvOwnership, WeightUnpausedBeforeBackwardGetsItsGradient) {
  const auto& c = GetParam();
  Rng rng(107);
  const Tensor x = randn({2, 3, 6, 5}, rng);
  const Tensor w = randn({4, 3, 3, 3}, rng, 0, 0.3f);
  const Conv2dSpec spec{3, c.stride, c.pad};
  const Tensor r = randn(ibrar::conv2d(x, w, nullptr, spec).shape(), rng);
  const ConvGrads ref = conv_reference(x, w, r, spec);

  Var xv = Var::param(x);
  Var wv(w, /*requires_grad=*/false);  // paused at forward time
  Var y = conv2d(xv, wv, Var(), spec);
  wv.node()->requires_grad = true;     // un-paused before backward
  backward_with(y, r);
  EXPECT_TRUE(same_bits(wv.grad(), ref.gw));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConvOwnership,
    ::testing::Values(ConvCase{1, 0, false}, ConvCase{1, 0, true},
                      ConvCase{1, 1, false}, ConvCase{1, 1, true},
                      ConvCase{2, 0, false}, ConvCase{2, 0, true},
                      ConvCase{2, 1, false}, ConvCase{2, 1, true}),
    [](const auto& info) { return conv_case_name(info.param); });

// ---- conv backward: every gradient against the independent lowering --------

struct ConvGateCase {
  std::string name;
  std::int64_t n, c, h, w, f;
  Conv2dSpec spec;
};

/// ConvOwnership's grid, vgg16's ten trunk convs at the training batch, and
/// ragged shapes that reach every blocking edge of the backward kernels:
/// K = 1 and 5, stride 2, pad 0 and 2, F off the MR and NR multiples,
/// C*K*K and F past kGemmKC, images wider than kGemmNC columns (evenly and
/// unevenly chunked), image groups that do not fill kGemmNC, a batch whose
/// last block of images is partial at every lane count, a 1x1 map on which
/// only the centre tap of a 3x3 kernel lands, and batch 1. Then input
/// gradients that read g in place (4x4 and 8x8 maps) at a ragged batch of
/// 97, for depths F from 1 to one past kShortDepth and C*K*K = 27 and 45,
/// not a multiple of the 8-row panel strip, so that the short-depth kernel
/// at many depths and the panel's partial last strip meet the lowering.
std::vector<ConvGateCase> conv_gate_cases() {
  std::vector<ConvGateCase> cases;
  for (const std::int64_t stride : {1, 2}) {
    for (const std::int64_t pad : {0, 1}) {
      cases.push_back({"grid_s" + std::to_string(stride) + "p" +
                           std::to_string(pad),
                       2, 3, 6, 5, 4, {3, stride, pad}});
    }
  }
  // vgg16 at image 16: channels 8/12/16/24/24, two convs a block, a 2x2
  // pool after blocks 1-3.
  struct Vgg {
    const char* name;
    std::int64_t c, hw, f;
  };
  constexpr Vgg kVgg16[] = {
      {"vgg.b1c0", 3, 16, 8},   {"vgg.b1c1", 8, 16, 8},
      {"vgg.b2c0", 8, 8, 12},   {"vgg.b2c1", 12, 8, 12},
      {"vgg.b3c0", 12, 4, 16},  {"vgg.b3c1", 16, 4, 16},
      {"vgg.b4c0", 16, 2, 24},  {"vgg.b4c1", 24, 2, 24},
      {"vgg.b5c0", 24, 2, 24},  {"vgg.b5c1", 24, 2, 24},
  };
  for (const auto& v : kVgg16) {
    cases.push_back({v.name, 100, v.c, v.hw, v.hw, v.f, {3, 1, 1}});
  }
  cases.push_back({"k1s1p0_f5", 3, 5, 7, 6, 5, {1, 1, 0}});
  cases.push_back({"k1s2p0_proj", 3, 8, 8, 8, 12, {1, 2, 0}});
  cases.push_back({"k5s1p2_f7", 2, 3, 9, 7, 7, {5, 1, 2}});
  cases.push_back({"k5s2p2_f6", 2, 4, 11, 9, 6, {5, 2, 2}});
  cases.push_back({"k3s2p0_f9", 4, 6, 11, 7, 9, {3, 2, 0}});
  cases.push_back({"k4s2p1_f13", 3, 5, 10, 10, 13, {4, 2, 1}});
  cases.push_back({"ckk288_past_kc", 3, 32, 5, 5, 7, {3, 1, 1}});
  cases.push_back({"k5_ckk275_f17", 2, 11, 6, 6, 17, {5, 1, 2}});
  cases.push_back({"f260_past_kc", 2, 3, 5, 5, 260, {3, 1, 1}});
  cases.push_back({"map32_past_nc", 2, 3, 32, 32, 8, {3, 1, 1}});
  cases.push_back({"map30_uneven_nc", 3, 4, 30, 30, 5, {3, 1, 1}});
  cases.push_back({"map7x6_groups", 30, 4, 7, 6, 6, {3, 1, 1}});
  cases.push_back({"map3x3_b97_ragged", 97, 5, 3, 3, 6, {3, 1, 1}});
  cases.push_back({"map1x1_k3p1", 5, 4, 1, 1, 6, {3, 1, 1}});
  cases.push_back({"batch1", 1, 8, 16, 16, 8, {3, 1, 1}});
  cases.push_back({"batch1_deep", 1, 24, 2, 2, 24, {3, 1, 1}});
  for (const std::int64_t hw : {4, 8}) {
    for (const std::int64_t f : {1, 2, 5, 9, 13, 15, 16, 17}) {
      for (const std::int64_t c : {3, 5}) {
        cases.push_back({"in_place_dx_map" + std::to_string(hw) + "_f" +
                             std::to_string(f) + "_c" + std::to_string(c),
                         97, c, hw, hw, f, {3, 1, 1}});
      }
    }
  }
  return cases;
}

TEST(ConvBackward, GradientsMatchIndependentLoweringAtOneAndFourLanes) {
  // Three lanes split a batch of 100 unevenly, so the input gradient's last
  // block of images is partial.
  constexpr std::int64_t kLanes[] = {1, 3, 4};
  const std::int64_t lanes0 = runtime::num_threads();
  std::uint64_t seed = 0x9a7e;
  for (const auto& tc : conv_gate_cases()) {
    Rng rng(++seed);
    const Shape x_shape{tc.n, tc.c, tc.h, tc.w};
    const Shape w_shape{tc.f, tc.c, tc.spec.kernel, tc.spec.kernel};
    const Tensor x = randn(x_shape, rng);
    const Tensor w = randn(w_shape, rng, 0, 0.3f);
    const Tensor b = randn({tc.f}, rng);
    const Shape g_shape = ibrar::conv2d(x, w, nullptr, tc.spec).shape();
    Tensor g = randn(g_shape, rng);
    // Signed zeros in the upstream gradient: 0 + (-0) must round alike.
    for (std::int64_t i = 0; i < g.numel(); i += 7) g[i] = -0.0f;
    // The same shapes again with IEEE specials at every third element of x,
    // w and g; NaN matches NaN whatever its sign (canonical_nans).
    const Tensor xs = special_values(x_shape, seed);
    const Tensor ws = special_values(w_shape, ~seed);
    const Tensor gs = special_values(g_shape, seed ^ 0x9u);
    for (const bool special : {false, true}) {
      const Tensor& xd = special ? xs : x;
      const Tensor& wd = special ? ws : w;
      const Tensor& gd = special ? gs : g;
      // Every driver output stays alive until the reference is computed, so
      // an element the driver never writes cannot pass by holding the bits
      // of a recycled buffer.
      std::vector<std::array<Var, 3>> got;
      for (const std::int64_t lanes : kLanes) {
        runtime::set_num_threads(lanes);
        Var xv = Var::param(xd), wv = Var::param(wd), bv = Var::param(b);
        backward_with(conv2d(xv, wv, bv, tc.spec), gd);
        got.push_back({xv, wv, bv});
      }
      const ConvGrads ref = conv_reference(xd, wd, gd, tc.spec);
      const auto matches = [special](const Tensor& a, const Tensor& e) {
        return special ? same_bits(canonical_nans(a), canonical_nans(e))
                       : same_bits(a, e);
      };
      for (std::size_t i = 0; i < got.size(); ++i) {
        const std::string where = tc.name + (special ? " special" : "") +
                                  " lanes=" + std::to_string(kLanes[i]);
        EXPECT_TRUE(matches(got[i][0].grad(), ref.gx)) << where << " gx";
        EXPECT_TRUE(matches(got[i][1].grad(), ref.gw)) << where << " gw";
        EXPECT_TRUE(matches(got[i][2].grad(), ref.gb)) << where << " gb";
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

struct UnaryRule {
  const char* name;
  UnaryFn fn;
  float lo;
  float hi;
  /// The backward formula as the copy-capturing closure computed it, from
  /// the upstream gradient g, a copy of the input x and of the output y.
  Tensor (*grad)(const Tensor& g, const Tensor& x, const Tensor& y);
};

Var pow_1_5(const Var& a) { return pow_scalar(a, 1.5f); }

class UnaryOwnership : public ::testing::TestWithParam<UnaryRule> {};

TEST_P(UnaryOwnership, GradientMatchesCopyCapturingFormula) {
  const auto& c = GetParam();
  Rng rng(109);
  Tensor x = rand_uniform({5, 7}, rng, c.lo, c.hi);
  x[3] = 0.0f;  // relu/abs kink: the formulas' tie handling must agree too
  const Tensor r = randn({5, 7}, rng);
  Var xv = Var::param(x);
  Var y = c.fn(xv);
  const Tensor y_copy = y.value();
  backward_with(y, r);
  EXPECT_TRUE(same_bits(xv.grad(), accumulated(c.grad(r, x, y_copy))))
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Ops, UnaryOwnership,
    ::testing::Values(
        UnaryRule{"exp", &exp, -2.0f, 2.0f,
                  [](const Tensor& g, const Tensor&, const Tensor& y) {
                    return ibrar::mul(g, y);
                  }},
        UnaryRule{"log", &log, 0.1f, 3.0f,
                  [](const Tensor& g, const Tensor& x, const Tensor&) {
                    return ibrar::div(
                        g, ibrar::maximum(x, Tensor::scalar(1e-38f)));
                  }},
        UnaryRule{"sqrt", &sqrt, 0.1f, 3.0f,
                  [](const Tensor& g, const Tensor&, const Tensor& y) {
                    return ibrar::div(
                        g, ibrar::mul_scalar(
                               ibrar::maximum(y, Tensor::scalar(1e-12f)), 2.0f));
                  }},
        UnaryRule{"square", &square, -2.0f, 2.0f,
                  [](const Tensor& g, const Tensor& x, const Tensor&) {
                    return ibrar::mul(g, ibrar::mul_scalar(x, 2.0f));
                  }},
        UnaryRule{"pow_1_5", &pow_1_5, 0.1f, 3.0f,
                  [](const Tensor& g, const Tensor& x, const Tensor&) {
                    return ibrar::mul(
                        g, ibrar::mul_scalar(ibrar::pow_scalar(x, 0.5f), 1.5f));
                  }},
        UnaryRule{"relu", &relu, -2.0f, 2.0f,
                  [](const Tensor& g, const Tensor& x, const Tensor&) {
                    return ibrar::mul(
                        g, ibrar::greater(x, Tensor::scalar(0.0f)));
                  }},
        UnaryRule{"tanh", &tanh, -2.0f, 2.0f,
                  [](const Tensor& g, const Tensor&, const Tensor& y) {
                    return ibrar::mul(g, ibrar::sub(Tensor::scalar(1.0f),
                                                    ibrar::square(y)));
                  }},
        UnaryRule{"sigmoid", &sigmoid, -3.0f, 3.0f,
                  [](const Tensor& g, const Tensor&, const Tensor& y) {
                    return ibrar::mul(
                        g, ibrar::mul(y, ibrar::sub(Tensor::scalar(1.0f), y)));
                  }},
        UnaryRule{"abs", &abs, -2.0f, 2.0f,
                  [](const Tensor& g, const Tensor& x, const Tensor&) {
                    return ibrar::mul(g, ibrar::sign(x));
                  }}),
    [](const auto& info) { return info.param.name; });

TEST(BinaryOwnership, MulDivGradientsMatchCopyCapturingFormula) {
  // b broadcasts along rows, so its gradient takes the reduce_to_shape path
  // and a's the same-shape path that skips it.
  Rng rng(113);
  const Tensor a = rand_uniform({4, 6}, rng, 0.5f, 2.0f);
  const Tensor b = rand_uniform({6}, rng, 0.5f, 2.0f);
  const Tensor r = randn({4, 6}, rng);
  {
    Var av = Var::param(a), bv = Var::param(b);
    backward_with(mul(av, bv), r);
    EXPECT_TRUE(same_bits(av.grad(), accumulated(ibrar::mul(r, b))));
    EXPECT_TRUE(same_bits(
        bv.grad(), accumulated(reduce_to_shape(ibrar::mul(r, a), b.shape()))));
  }
  {
    Var av = Var::param(a), bv = Var::param(b);
    backward_with(div(av, bv), r);
    EXPECT_TRUE(same_bits(av.grad(), accumulated(ibrar::div(r, b))));
    const Tensor gb = ibrar::neg(
        ibrar::div(ibrar::mul(r, a), ibrar::mul(b, b)));
    EXPECT_TRUE(
        same_bits(bv.grad(), accumulated(reduce_to_shape(gb, b.shape()))));
  }
}

TEST(BinaryOwnership, MatmulGradientsMatchCopyCapturingFormula) {
  Rng rng(127);
  const Tensor a = randn({5, 7}, rng);
  const Tensor b = randn({7, 3}, rng);
  const Tensor r = randn({5, 3}, rng);
  Var av = Var::param(a), bv = Var::param(b);
  backward_with(matmul(av, bv), r);
  EXPECT_TRUE(same_bits(av.grad(), accumulated(matmul_nt(r, b))));
  EXPECT_TRUE(same_bits(bv.grad(), accumulated(matmul_tn(a, r))));
}

TEST(NormOwnership, GammaUnpausedBeforeBackwardMatchesRecordedXhat) {
  // A forward with gamma paused keeps xhat only for a training-mode input
  // gradient. Un-pausing gamma before backward makes the other cases
  // recompute it, and every gradient must equal a run where gamma required
  // grad all along.
  Rng rng(131);
  const Tensor x = randn({3, 2, 4, 4}, rng);
  const Tensor gamma = rand_uniform({2}, rng, 0.5f, 1.5f);
  const Tensor beta = randn({2}, rng);
  const Tensor r = randn({3, 2, 4, 4}, rng);
  for (const bool training : {true, false}) {
    for (const bool x_grad : {true, false}) {
      auto run = [&](bool pause_gamma) {
        Tensor rm({2}), rv({2}, 1.0f);
        Var xv(x, x_grad);
        Var gv(gamma, !pause_gamma), bv = Var::param(beta);
        Var y = batch_norm2d(xv, gv, bv, rm, rv, training);
        gv.node()->requires_grad = true;
        backward_with(y, r);
        return std::vector<Tensor>{y.value(), xv.grad(), gv.grad(), bv.grad()};
      };
      const auto kept = run(false);
      const auto recomputed = run(true);
      for (std::size_t i = 0; i < kept.size(); ++i) {
        EXPECT_TRUE(same_bits(kept[i], recomputed[i]))
            << "training=" << training << " x_grad=" << x_grad << " output "
            << i;
      }
    }
  }
}

// ---- bit gates: the ReLU backward and the gradient accumulator -------------

TEST(ReluBackward, InputGradientIsTheMaskedProductAtOneAndFourLanes) {
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 4}) {
    runtime::set_num_threads(lanes);
    std::uint64_t seed = 500;
    for (const auto& shape : map_shapes()) {
      const Tensor x = special_values(shape, ++seed);
      const Tensor r = special_values(shape, ++seed);
      Var xv = Var::param(x);
      backward_with(relu(xv), r);
      // relu's upstream gradient is mul's 1 * r after its first accumulate;
      // relu hands back g * (x > 0 ? 1 : 0), and x's first accumulate adds 0.
      Tensor expect(shape);
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        const float gy = 0.0f + 1.0f * r[i];
        expect[i] = 0.0f + gy * (x[i] > 0.0f ? 1.0f : 0.0f);
      }
      // same_bits' memcmp must not see the empty tensor's null data.
      EXPECT_TRUE(x.numel() == 0 ? xv.grad().shape() == shape
                                 : same_bits(xv.grad(), expect))
          << shape_str(shape) << " lanes=" << lanes;
    }
  }
  runtime::set_num_threads(lanes0);
}

// ---- bit gates: max pooling and batch norm against plain loops -------------
//
// The forward and the gradients of L = sum(y * r), written out element by
// element: every output must be the IEEE result of these loops, bit for bit,
// at 1, 3 and 4 lanes. y's upstream gradient is mul's 1 * r after its first
// accumulate, and each leaf's first accumulate adds 0.

/// Upstream gradient backward_with(y, r) hands y.
Tensor upstream(const Tensor& r) {
  Tensor gy(r.shape());
  for (std::int64_t i = 0; i < r.numel(); ++i) gy[i] = 0.0f + 1.0f * r[i];
  return gy;
}

/// What a leaf's first accumulate leaves of g: 0 + g per element.
Tensor first_accumulate(const Tensor& g) {
  Tensor out(g.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i) out[i] = 0.0f + g[i];
  return out;
}

/// Max pooling of x and its input gradient for gy. Each window runs the
/// first-maximum-wins chain from -inf in row-major order, so the window's
/// first element wins when nothing beats -inf, and adds its gy at the
/// winner, windows in output order.
std::pair<Tensor, Tensor> plain_maxpool(const Tensor& x, const Tensor& gy,
                                        std::int64_t k, std::int64_t s) {
  const std::int64_t planes = x.dim(0) * x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h - k) / s + 1, ow = (w - k) / s + 1;
  Tensor y({x.dim(0), x.dim(1), oh, ow});
  Tensor gx(x.shape());
  std::int64_t o = 0;
  for (std::int64_t p = 0; p < planes; ++p) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox, ++o) {
        float best = -kInf;
        std::int64_t at = p * h * w + oy * s * w + ox * s;
        for (std::int64_t ky = 0; ky < k; ++ky) {
          for (std::int64_t kx = 0; kx < k; ++kx) {
            const std::int64_t i = p * h * w + (oy * s + ky) * w + ox * s + kx;
            if (x[i] > best) {
              best = x[i];
              at = i;
            }
          }
        }
        y[o] = best;
        gx[at] += gy[o];
      }
    }
  }
  return {y, first_accumulate(gx)};
}

TEST(BitGate, MaxPoolForwardAndInputGradientMatchAPlainLoop) {
  struct Case {
    Shape shape;
    std::int64_t kernel, stride;
  };
  // kernel = stride at 2 and 3, an overlapping 3/2 window, ragged inputs
  // pooled by 2 whose last row and column lie in no window (5x5, and 7x9),
  // rows of an odd number of 2x2 windows (6x6), and vgg16's first two pooled
  // activations, which split across lanes.
  const Case cases[] = {{{2, 3, 8, 8}, 2, 2},    {{2, 3, 9, 9}, 3, 3},
                        {{2, 3, 9, 9}, 3, 2},    {{2, 3, 5, 5}, 2, 2},
                        {{3, 4, 7, 9}, 2, 2},    {{2, 3, 6, 6}, 2, 2},
                        {{100, 8, 16, 16}, 2, 2}, {{100, 12, 8, 8}, 2, 2}};
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 3, 4}) {
    runtime::set_num_threads(lanes);
    std::uint64_t seed = 600;
    for (const auto& c : cases) {
      Tensor x = special_values(c.shape, ++seed);
      // The first window of plane 0 is all NaN and that of plane 1 all -inf,
      // so nothing in either beats -inf. That of plane 2 is a tie of zeros
      // that starts with -0.
      const std::int64_t hw = c.shape[2] * c.shape[3];
      for (std::int64_t ky = 0; ky < c.kernel; ++ky) {
        for (std::int64_t kx = 0; kx < c.kernel; ++kx) {
          const std::int64_t i = ky * c.shape[3] + kx;
          x[i] = kNaN;
          x[hw + i] = -kInf;
          x[2 * hw + i] = (ky + kx) % 2 == 0 ? -0.0f : 0.0f;
        }
      }
      Var xv = Var::param(x);
      const Var y = maxpool2d(xv, c.kernel, c.stride);
      const Tensor r = special_values(y.shape(), ++seed);
      backward_with(y, r);
      const auto [expect_y, expect_gx] =
          plain_maxpool(x, upstream(r), c.kernel, c.stride);
      const std::string where = shape_str(c.shape) + " k" +
                                std::to_string(c.kernel) + "s" +
                                std::to_string(c.stride) +
                                " lanes=" + std::to_string(lanes);
      EXPECT_TRUE(same_bits(y.value(), expect_y)) << "forward " << where;
      EXPECT_TRUE(same_bits(xv.grad(), expect_gx)) << "gradient " << where;
    }
  }
  runtime::set_num_threads(lanes0);
}

struct PlainBn {
  Tensor y, gx, ggamma, gbeta, running_mean, running_var;
};

/// Batch norm (momentum 0.1, eps 1e-5) of x and its gradients for gy. In
/// training mode the moments are double sums over (image, spatial) and the
/// running stats move; in eval mode the running stats are the moments.
PlainBn plain_batch_norm(const Tensor& x, const Tensor& gamma,
                         const Tensor& beta, Tensor rm, Tensor rv,
                         const Tensor& gy, bool training) {
  const float momentum = 0.1f, eps = 1e-5f;
  const std::int64_t n = x.dim(0), c = x.dim(1), spatial = x.dim(2) * x.dim(3);
  const std::int64_t per_channel = n * spatial;
  std::vector<float> mean(c), inv_std(c);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    float var = rv[ch];
    mean[ch] = rm[ch];
    if (training) {
      double s = 0.0, s2 = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        for (std::int64_t k = 0; k < spatial; ++k) {
          const float v = x[(i * c + ch) * spatial + k];
          s += v;
          s2 += double(v) * v;
        }
      }
      const double mu = s / per_channel;
      mean[ch] = static_cast<float>(mu);
      var = static_cast<float>(std::max(0.0, s2 / per_channel - mu * mu));
      rm[ch] = (1 - momentum) * rm[ch] + momentum * mean[ch];
      rv[ch] = (1 - momentum) * rv[ch] + momentum * var;
    }
    inv_std[ch] = 1.0f / std::sqrt(var + eps);
  }
  auto xhat = [&](std::int64_t i, std::int64_t ch) {
    return (x[i] - mean[ch]) * inv_std[ch];
  };
  PlainBn r{Tensor(x.shape()), Tensor(x.shape()), Tensor({c}), Tensor({c}),
            rm, rv};
  std::vector<float> sum_g(c, 0.0f), sum_gx(c, 0.0f);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double sg = 0.0, sgx = 0.0;
      for (std::int64_t k = 0; k < spatial; ++k) {
        const std::int64_t e = (i * c + ch) * spatial + k;
        const float xh = xhat(e, ch);
        r.y[e] = gamma[ch] * xh + beta[ch];
        sg += gy[e];
        sgx += double(gy[e]) * xh;
      }
      sum_g[ch] += static_cast<float>(sg);
      sum_gx[ch] += static_cast<float>(sgx);
    }
  }
  const float m = static_cast<float>(per_channel);
  for (std::int64_t ch = 0; ch < c; ++ch) {
    r.ggamma[ch] = 0.0f + sum_gx[ch];
    r.gbeta[ch] = 0.0f + sum_g[ch];
    const float gam_is = gamma[ch] * inv_std[ch];
    const float mg = sum_g[ch] / m, mgx = sum_gx[ch] / m;
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t k = 0; k < spatial; ++k) {
        const std::int64_t e = (i * c + ch) * spatial + k;
        const float g = training ? gam_is * (gy[e] - mg - xhat(e, ch) * mgx)
                                 : gam_is * gy[e];
        r.gx[e] = 0.0f + g;
      }
    }
  }
  return r;
}

/// uniform(-3, 3) whose channel 0 carries NaN, +-0, +-inf and subnormals,
/// channel 1 one constant (zero variance), and channel 2 +-0 and
/// subnormals at every third element.
Tensor bn_input(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x = rand_uniform(shape, rng, -3.0f, 3.0f);
  const Tensor specials = special_values(shape, seed);
  const std::int64_t c = shape[1], spatial = shape[2] * shape[3];
  for (std::int64_t i = 0; i < shape[0]; ++i) {
    for (std::int64_t k = 0; k < spatial; ++k) {
      const std::int64_t e = i * c * spatial + k;
      x[e] = specials[e];
      x[e + spatial] = 0.7f;
      if (k % 3 == 0) x[e + 2 * spatial] = k % 2 == 0 ? -0.0f : 1e-40f;
    }
  }
  return x;
}

/// Per-channel constants and an upstream gradient for the batch-norm gates:
/// gamma in [0.5, 1.5) with a -0 in channel 1, beta ~ N(0, 1) with a
/// subnormal in channel 2, running stats with a zero variance in channel 1.
struct BnParams {
  Tensor gamma, beta, rm, rv, r;
};

BnParams bn_params(const Shape& shape, std::uint64_t seed) {
  const std::int64_t c = shape[1];
  Rng rng(seed);
  BnParams p;
  p.gamma = rand_uniform({c}, rng, 0.5f, 1.5f);
  p.beta = randn({c}, rng);
  p.gamma[1] = -0.0f;
  p.beta[2] = 1e-40f;
  p.rm = randn({c}, rng);
  p.rv = rand_uniform({c}, rng, 0.5f, 2.0f);
  p.rv[1] = 0.0f;
  p.r = rand_uniform(shape, rng, -1.0f, 1.0f);
  p.r[0] = -0.0f;
  return p;
}

/// The batch-norm modes the gates run: training, batch_norm2d's eval mode,
/// and batch_norm2d_eval.
Var batch_norm_in_mode(int mode, const Var& x, const Var& gamma,
                       const Var& beta, Tensor& rm, Tensor& rv, bool relu) {
  if (mode == 2) return batch_norm2d_eval(x, gamma, beta, rm, rv, 1e-5f, relu);
  return batch_norm2d(x, gamma, beta, rm, rv, /*training=*/mode == 0, 0.1f,
                      1e-5f, relu);
}

TEST(BitGate, BatchNormForwardAndGradientsMatchAPlainLoop) {
  // A batch of 1, a small batch, and a vgg16 activation that splits across
  // lanes; each in training mode, in batch_norm2d's eval mode, and through
  // batch_norm2d_eval, with gamma and beta requiring grad and paused (an
  // attack step's eval-mode input gradient).
  const std::vector<Shape> shapes = {{1, 4, 4, 4}, {4, 5, 3, 3},
                                     {100, 8, 16, 16}};
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 3, 4}) {
    runtime::set_num_threads(lanes);
    std::uint64_t seed = 700;
    for (const auto& shape : shapes) {
      const Tensor x = bn_input(shape, ++seed);
      const BnParams p = bn_params(shape, ++seed);
      for (const int mode : {0, 1, 2}) {
        for (const bool paused : {false, true}) {
          Tensor run_m = p.rm, run_v = p.rv;
          Var xv = Var::param(x);
          Var gv(p.gamma, !paused), bv(p.beta, !paused);
          const Var y = batch_norm_in_mode(mode, xv, gv, bv, run_m, run_v,
                                           /*relu=*/false);
          backward_with(y, p.r);
          PlainBn expect = plain_batch_norm(x, p.gamma, p.beta, p.rm, p.rv,
                                            upstream(p.r), mode == 0);
          if (paused) expect.ggamma = expect.gbeta = Tensor(p.gamma.shape());
          const std::string where =
              shape_str(shape) + " mode=" + std::to_string(mode) +
              " paused=" + std::to_string(paused) +
              " lanes=" + std::to_string(lanes);
          EXPECT_TRUE(same_bits(y.value(), expect.y)) << "forward " << where;
          EXPECT_TRUE(same_bits(xv.grad(), expect.gx)) << "x grad " << where;
          EXPECT_TRUE(same_bits(gv.grad(), expect.ggamma))
              << "gamma grad " << where;
          EXPECT_TRUE(same_bits(bv.grad(), expect.gbeta))
              << "beta grad " << where;
          EXPECT_TRUE(same_bits(run_m, expect.running_mean))
              << "running mean " << where;
          EXPECT_TRUE(same_bits(run_v, expect.running_var))
              << "running var " << where;
        }
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

TEST(BitGate, FusedBatchNormReluMatchesBatchNormThenRelu) {
  // The fused node (relu = true) against batch_norm2d's node followed by
  // relu's: the output, the running stats and the x, gamma and beta
  // gradients, in every mode, with gamma and beta requiring grad and
  // paused, at 1, 3 and 4 lanes. The upstream gradient carries NaN, +-0 and
  // +-inf into the masked product. Both sides meet two NaNs where a NaN
  // input channel's statistics are NaN, and which one a product returns
  // depends on the operand order a build picks, so NaN matches NaN whatever
  // its sign (canonical_nans).
  const std::vector<Shape> shapes = {{1, 4, 4, 4}, {4, 5, 3, 3},
                                     {100, 8, 16, 16}};
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 3, 4}) {
    runtime::set_num_threads(lanes);
    std::uint64_t seed = 800;
    for (const auto& shape : shapes) {
      const Tensor x = bn_input(shape, ++seed);
      BnParams p = bn_params(shape, ++seed);
      p.r = special_values(shape, ++seed);
      for (const int mode : {0, 1, 2}) {
        for (const bool paused : {false, true}) {
          auto run = [&](bool fused) {
            Tensor run_m = p.rm, run_v = p.rv;
            Var xv = Var::param(x);
            Var gv(p.gamma, !paused), bv(p.beta, !paused);
            const Var y =
                fused ? batch_norm_in_mode(mode, xv, gv, bv, run_m, run_v,
                                           /*relu=*/true)
                      : relu(batch_norm_in_mode(mode, xv, gv, bv, run_m, run_v,
                                                /*relu=*/false));
            backward_with(y, p.r);
            return std::vector<Tensor>{y.value(), xv.grad(), gv.grad(),
                                       bv.grad(), run_m, run_v};
          };
          // The reference runs after the fused outputs, which stay alive.
          const auto got = run(true);
          const auto expect = run(false);
          const char* names[] = {"forward",    "x grad",       "gamma grad",
                                 "beta grad", "running mean", "running var"};
          for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_TRUE(
                same_bits(canonical_nans(got[i]), canonical_nans(expect[i])))
                << names[i] << " " << shape_str(shape) << " mode=" << mode
                << " paused=" << paused << " lanes=" << lanes;
          }
        }
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

TEST(BitGate, BatchNormOnVgg16TrunkShapesMatchesAPlainLoop) {
  // vgg16's trunk channels (8, 12, 16, 24) on each of its maps (16x16, 8x8,
  // 4x4, 2x2) at a ragged batch of 97, its own four (channels, map) pairs
  // at the training batch of 100, and a 1x1 map. Between them they put
  // several vectors of channels and of planes through batch norm's lane
  // chains and the transposed loads' tails, and planes shorter than a
  // register through the per-image passes. Training mode, batch_norm2d's
  // eval mode and batch_norm2d_eval, with and without the ReLU, gamma and
  // beta requiring grad, IEEE specials in x's channel 0 and in the upstream
  // gradient, at 1, 3 and 4 lanes. With the ReLU the plain loop masks the
  // upstream gradient by the pre-activation, as relu's backward would.
  std::vector<Shape> shapes;
  for (const std::int64_t c : {8, 12, 16, 24}) {
    for (const std::int64_t hw : {16, 8, 4, 2}) shapes.push_back({97, c, hw, hw});
  }
  for (const Shape& s : {Shape{100, 8, 16, 16}, Shape{100, 12, 8, 8},
                         Shape{100, 16, 4, 4}, Shape{100, 24, 2, 2},
                         Shape{97, 24, 1, 1}}) {
    shapes.push_back(s);
  }
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 3, 4}) {
    runtime::set_num_threads(lanes);
    std::uint64_t seed = 1000;
    for (const auto& shape : shapes) {
      const Tensor x = bn_input(shape, ++seed);
      BnParams p = bn_params(shape, ++seed);
      p.r = special_values(shape, ++seed);
      for (const int mode : {0, 1, 2}) {
        for (const bool with_relu : {false, true}) {
          Tensor run_m = p.rm, run_v = p.rv;
          Var xv = Var::param(x), gv = Var::param(p.gamma),
              bv = Var::param(p.beta);
          const Var y = batch_norm_in_mode(mode, xv, gv, bv, run_m, run_v,
                                           with_relu);
          backward_with(y, p.r);
          Tensor gy = upstream(p.r);
          PlainBn expect = plain_batch_norm(x, p.gamma, p.beta, p.rm, p.rv,
                                            gy, mode == 0);
          if (with_relu) {
            for (std::int64_t e = 0; e < gy.numel(); ++e) {
              const bool on = expect.y[e] > 0.0f;
              gy[e] = 0.0f + gy[e] * (on ? 1.0f : 0.0f);
              expect.y[e] = on ? expect.y[e] : 0.0f;
            }
            const PlainBn masked = plain_batch_norm(
                x, p.gamma, p.beta, p.rm, p.rv, gy, mode == 0);
            expect.gx = masked.gx;
            expect.ggamma = masked.ggamma;
            expect.gbeta = masked.gbeta;
          }
          const std::string where =
              shape_str(shape) + " mode=" + std::to_string(mode) +
              " relu=" + std::to_string(with_relu) +
              " lanes=" + std::to_string(lanes);
          const auto matches = [](const Tensor& a, const Tensor& e) {
            return same_bits(canonical_nans(a), canonical_nans(e));
          };
          EXPECT_TRUE(matches(y.value(), expect.y)) << "forward " << where;
          EXPECT_TRUE(matches(xv.grad(), expect.gx)) << "x grad " << where;
          EXPECT_TRUE(matches(gv.grad(), expect.ggamma))
              << "gamma grad " << where;
          EXPECT_TRUE(matches(bv.grad(), expect.gbeta))
              << "beta grad " << where;
          EXPECT_TRUE(matches(run_m, expect.running_mean))
              << "running mean " << where;
          EXPECT_TRUE(matches(run_v, expect.running_var))
              << "running var " << where;
        }
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

TEST(NodeAccumulate, FirstContributionIsZeroPlusGThenContributionsAdd) {
  for (const bool rvalue : {false, true}) {
    auto accumulate = [rvalue](Node& n, const Tensor& g) {
      if (rvalue) {
        n.accumulate(Tensor(g));
      } else {
        n.accumulate(g);
      }
    };
    Var v = Var::param(Tensor({4}));
    Node& n = *v.node();
    accumulate(n, Tensor({4}, {-0.0f, 1.0f, -2.5f, kNaN}));
    ASSERT_TRUE(n.grad_ready);
    EXPECT_TRUE(same_bits(n.grad, Tensor({4}, {0.0f, 1.0f, -2.5f, kNaN})))
        << "rvalue=" << rvalue;
    EXPECT_FALSE(std::signbit(n.grad[0])) << "a first -0 ends as +0";

    accumulate(n, Tensor({4}, {2.0f, -0.0f, 0.5f, 1.0f}));
    EXPECT_TRUE(same_bits(n.grad, Tensor({4}, {2.0f, 1.0f, -2.0f, kNaN})))
        << "rvalue=" << rvalue;

    EXPECT_THROW(accumulate(n, Tensor({3})), std::logic_error);
    EXPECT_THROW(accumulate(n, Tensor({4, 1})), std::logic_error);
    Var fresh = Var::param(Tensor({2, 2}));
    EXPECT_THROW(accumulate(*fresh.node(), Tensor({4})), std::logic_error);
  }
}

// ---- the producers adopted as is -------------------------------------------
//
// conv2d's input gradient, max pooling's and batch norm's hand their result
// to Node::accumulate_as_is, which skips accumulate's 0 + g pass. That keeps
// the bits only if every element already is 0 + itself: no -0 and no
// signalling NaN, whatever the operands.

/// Every element of t is 0.0f + itself bit for bit, and none is -0.
::testing::AssertionResult zero_plus_itself(const Tensor& t) {
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const float v = t[i];
    const float z = 0.0f + v;
    if (v == 0.0f && std::signbit(v)) {
      return ::testing::AssertionFailure() << "-0 at element " << i;
    }
    if (std::memcmp(&v, &z, sizeof v) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " is not 0 + itself";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The operands each producer meets: IEEE specials in the gradient and in
/// the weight (or gamma), a gradient of -0 everywhere, and products that
/// underflow below zero (a tiny negative gradient times a tiny weight),
/// which round to -0.
struct AsIsOperands {
  const char* name;
  Tensor g, w;
};

std::vector<AsIsOperands> as_is_operands(const Shape& g_shape,
                                         const Shape& w_shape,
                                         std::uint64_t seed) {
  return {{"specials", special_values(g_shape, seed),
           special_values(w_shape, ~seed)},
          {"g=-0", Tensor(g_shape, -0.0f), special_values(w_shape, ~seed)},
          {"underflow", Tensor(g_shape, -1e-40f), Tensor(w_shape, 1e-6f)}};
}

TEST(AdoptAsIs, ProducersLeaveEveryElementAtZeroPlusItself) {
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 3, 4}) {
    runtime::set_num_threads(lanes);
    const std::string at = " lanes=" + std::to_string(lanes);
    std::uint64_t seed = 900;

    // conv2d's input gradient: the masked tap runs of the stride-1 "same"
    // convs, and the scatter into zeros of every other.
    for (const auto& tc : conv_gate_cases()) {
      const auto out = [&](std::int64_t in) {
        return (in + 2 * tc.spec.pad - tc.spec.kernel) / tc.spec.stride + 1;
      };
      const Shape x_shape{tc.n, tc.c, tc.h, tc.w};
      const Shape g_shape{tc.n, tc.f, out(tc.h), out(tc.w)};
      const Shape w_shape{tc.f, tc.c, tc.spec.kernel, tc.spec.kernel};
      for (const auto& op : as_is_operands(g_shape, w_shape, ++seed)) {
        EXPECT_TRUE(zero_plus_itself(
            conv2d_input_grad(op.g, x_shape, op.w, tc.spec)))
            << "conv " << tc.name << " " << op.name << at;
      }
    }

    // Max pooling's: the write-once 2x2/2 planes and the adds into zeros
    // (a 3x3 window, overlapping windows, odd windows per row), over inputs
    // with specials.
    struct PoolCase {
      Shape shape;
      std::int64_t kernel, stride;
    };
    const PoolCase pools[] = {{{100, 8, 16, 16}, 2, 2}, {{2, 3, 9, 9}, 3, 3},
                              {{2, 3, 9, 9}, 3, 2},     {{3, 4, 7, 9}, 2, 2},
                              {{2, 3, 6, 6}, 2, 2}};
    for (const auto& c : pools) {
      const Tensor x = special_values(c.shape, ++seed);
      const Shape g_shape = ibrar::maxpool2d(x, c.kernel, c.stride).shape();
      for (const auto& op : as_is_operands(g_shape, {1}, ++seed)) {
        EXPECT_TRUE(zero_plus_itself(
            maxpool2d_backward(op.g, x, c.kernel, c.stride)))
            << "pool " << shape_str(c.shape) << " k" << c.kernel << "s"
            << c.stride << " " << op.name << at;
      }
    }

    // Batch norm's, in every mode, with and without the ReLU, on the batch
    // norm gates' input (specials in channel 0 only, so that training's
    // other channels keep finite moments): the node's closure runs on each
    // gradient as it stands, -0 included (a graph's own gradients never
    // hold one), and x's fresh gradient adopts its result as is.
    for (const Shape& shape : {Shape{4, 5, 3, 3}, Shape{100, 8, 16, 16}}) {
      const Tensor x = bn_input(shape, ++seed);
      const BnParams p = bn_params(shape, ++seed);
      for (const auto& op : as_is_operands(shape, {shape[1]}, ++seed)) {
        for (const int mode : {0, 1, 2}) {
          for (const bool relu : {false, true}) {
            Tensor run_m = p.rm, run_v = p.rv;
            Var xv = Var::param(x);
            const Var y = batch_norm_in_mode(mode, xv, Var::param(op.w),
                                             Var::param(p.beta), run_m, run_v,
                                             relu);
            Node& n = *y.node();
            n.grad = op.g;
            n.grad_ready = true;
            n.backward_fn(n);
            EXPECT_TRUE(zero_plus_itself(xv.node()->grad))
                << "batch norm " << shape_str(shape) << " " << op.name
                << " mode=" << mode << " relu=" << relu << at;
          }
        }
      }
    }
  }
  runtime::set_num_threads(lanes0);
}

}  // namespace
}  // namespace ibrar::ag
