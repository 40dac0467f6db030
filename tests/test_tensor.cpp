// Tensor layer: construction, broadcasting arithmetic, reductions, matmul,
// conv kernels and their gradients, pooling, and the broadcast-adjoint
// reduce_to_shape.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "special_values.hpp"
#include "tensor/conv.hpp"
#include "tensor/conv_eval.hpp"
#include "tensor/matmul.hpp"
#include "tensor/ops.hpp"
#include "tensor/random.hpp"
#include "tensor/reduce.hpp"
#include "tensor/tensor.hpp"
#include "timing.hpp"

namespace ibrar {
namespace {

TEST(TensorBasics, DefaultIsScalarZero) {
  Tensor t;
  EXPECT_EQ(t.numel(), 1);
  EXPECT_EQ(t.rank(), 0);
  EXPECT_FLOAT_EQ(t.item(), 0.0f);
}

TEST(TensorBasics, ShapeAndFill) {
  Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(-1), 3);
  for (std::int64_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], 1.5f);
}

TEST(TensorBasics, FromVectorAndAt) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(t.at(0, 0), 1);
  EXPECT_FLOAT_EQ(t.at(0, 1), 2);
  EXPECT_FLOAT_EQ(t.at(1, 0), 3);
  EXPECT_FLOAT_EQ(t.at(1, 1), 4);
}

TEST(TensorBasics, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), std::invalid_argument);
}

TEST(TensorBasics, ItemRequiresSingleElement) {
  EXPECT_THROW(Tensor({2}).item(), std::logic_error);
}

TEST(TensorBasics, ReshapeWildcard) {
  Tensor t({2, 6});
  const Tensor r = t.reshape({3, -1});
  EXPECT_EQ(r.shape(), (Shape{3, 4}));
  EXPECT_THROW(t.reshape({5, -1}), std::invalid_argument);
  EXPECT_THROW(t.reshape({-1, -1}), std::invalid_argument);
}

TEST(TensorBasics, ReshapeOfTemporaryMovesTheBuffer) {
  Tensor t = Tensor::arange(12);
  const Tensor copy = t.reshape({3, 4});
  const float* buffer = t.data().data();
  const Tensor moved = std::move(t).reshape({-1, 6});
  EXPECT_EQ(moved.shape(), (Shape{2, 6}));
  EXPECT_EQ(moved.data().data(), buffer);
  EXPECT_TRUE(std::equal(moved.data().begin(), moved.data().end(),
                         copy.data().begin(), copy.data().end()));
  EXPECT_THROW(Tensor({2, 6}).reshape({5, -1}), std::invalid_argument);
}

TEST(TensorBasics, EyeAndArange) {
  const Tensor e = Tensor::eye(3);
  EXPECT_FLOAT_EQ(e.at(0, 0), 1);
  EXPECT_FLOAT_EQ(e.at(0, 1), 0);
  const Tensor a = Tensor::arange(4, 1.0f, 0.5f);
  EXPECT_FLOAT_EQ(a[3], 2.5f);
}

TEST(TensorBasics, AllFinite) {
  Tensor t({2});
  EXPECT_TRUE(t.all_finite());
  t[0] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.all_finite());
}

TEST(Broadcast, ShapeRules) {
  EXPECT_EQ(broadcast_shape({2, 3}, {3}), (Shape{2, 3}));
  EXPECT_EQ(broadcast_shape({2, 1}, {1, 4}), (Shape{2, 4}));
  EXPECT_EQ(broadcast_shape({5, 1, 3}, {2, 1}), (Shape{5, 2, 3}));
  EXPECT_THROW(broadcast_shape({2, 3}, {4}), std::invalid_argument);
}

TEST(Broadcast, AddRowVector) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3}, {10, 20, 30});
  const Tensor c = add(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 11);
  EXPECT_FLOAT_EQ(c.at(1, 2), 36);
}

TEST(Broadcast, AddColVsRow) {
  Tensor col({3, 1}, {1, 2, 3});
  Tensor row({1, 3}, {10, 20, 30});
  const Tensor c = add(col, row);
  EXPECT_EQ(c.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(c.at(2, 1), 23);
}

TEST(Broadcast, ChannelBiasNCHW) {
  Tensor x({2, 3, 2, 2}, 1.0f);
  Tensor bias({1, 3, 1, 1}, {10, 20, 30});
  const Tensor y = add(x, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 11);
  EXPECT_FLOAT_EQ(y.at(1, 2, 1, 1), 31);
}

TEST(Broadcast, ReduceToShapeIsAdjoint) {
  // reduce_to_shape(sum) over the broadcast dims recovers d(broadcast)/dx.
  Tensor g({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = reduce_to_shape(g, {3});
  EXPECT_EQ(r.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(r[0], 5);
  EXPECT_FLOAT_EQ(r[1], 7);
  EXPECT_FLOAT_EQ(r[2], 9);

  const Tensor r2 = reduce_to_shape(g, {2, 1});
  EXPECT_FLOAT_EQ(r2.at(0, 0), 6);
  EXPECT_FLOAT_EQ(r2.at(1, 0), 15);
}

TEST(Broadcast, ZeroSizedDimStaysZeroAgainstOne) {
  // NumPy's rule: a 1 stretches to the other side's size, 0 included.
  EXPECT_EQ(broadcast_shape({0}, {}), (Shape{0}));
  EXPECT_EQ(broadcast_shape({1, 3}, {0, 1}), (Shape{0, 3}));
  EXPECT_THROW(broadcast_shape({0}, {2}), std::invalid_argument);
  EXPECT_EQ(greater(Tensor({0}), Tensor::scalar(0.0f)).numel(), 0);
  EXPECT_EQ(add(Tensor({2, 0}), Tensor({1, 1})).shape(), (Shape{2, 0}));
}

TEST(Broadcast, ReduceAndBroadcastRejectShapesThatDoNotBroadcast) {
  // The target of reduce_to_shape must broadcast to g's shape, and a tensor
  // must broadcast to broadcast_to's target; anything else throws rather
  // than walking g with the wrong strides or returning a bigger tensor.
  EXPECT_THROW(reduce_to_shape(Tensor({2, 4}), {3}), std::invalid_argument);
  EXPECT_THROW(reduce_to_shape(Tensor({2, 4}), {3, 4}), std::invalid_argument);
  EXPECT_THROW(reduce_to_shape(Tensor({4}), {2, 4}), std::invalid_argument);
  EXPECT_THROW(broadcast_to(Tensor({3, 4}), {4}), std::invalid_argument);
  EXPECT_THROW(broadcast_to(Tensor({3}), {2, 4}), std::invalid_argument);
  EXPECT_EQ(reduce_to_shape(Tensor({2, 4}, 1.0f), {1, 4}).shape(),
            (Shape{1, 4}));
  EXPECT_EQ(broadcast_to(Tensor({4}), {3, 4}).shape(), (Shape{3, 4}));
}

TEST(Elementwise, UnaryMaps) {
  Tensor a({4}, {-1.0f, 0.0f, 1.0f, 2.0f});
  EXPECT_FLOAT_EQ(relu(a)[0], 0.0f);
  EXPECT_FLOAT_EQ(relu(a)[3], 2.0f);
  EXPECT_FLOAT_EQ(sign(a)[0], -1.0f);
  EXPECT_FLOAT_EQ(sign(a)[1], 0.0f);
  EXPECT_FLOAT_EQ(abs(a)[0], 1.0f);
  EXPECT_NEAR(tanh(a)[2], std::tanh(1.0f), 1e-6);
  EXPECT_FLOAT_EQ(square(a)[3], 4.0f);
  EXPECT_FLOAT_EQ(clamp(a, -0.5f, 1.5f)[0], -0.5f);
  EXPECT_FLOAT_EQ(clamp(a, -0.5f, 1.5f)[3], 1.5f);
}

TEST(Elementwise, LogClampsAtZero) {
  Tensor a({2}, {0.0f, 1.0f});
  const Tensor l = log(a);
  EXPECT_TRUE(std::isfinite(l[0]));
  EXPECT_FLOAT_EQ(l[1], 0.0f);
}

TEST(Elementwise, ScalarFolds) {
  Tensor a({3}, {1, 2, 3});
  EXPECT_FLOAT_EQ(sum_all(a), 6);
  EXPECT_FLOAT_EQ(mean_all(a), 2);
  EXPECT_FLOAT_EQ(max_all(a), 3);
  EXPECT_FLOAT_EQ(min_all(a), 1);
  EXPECT_FLOAT_EQ(l2_norm(a), std::sqrt(14.0f));
  EXPECT_FLOAT_EQ(linf_norm(a), 3);
  Tensor b({3}, {1, 0, -1});
  EXPECT_FLOAT_EQ(dot(a, b), -2);
}

TEST(Matmul, SmallKnownProduct) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(Matmul, TransposedVariantsAgree) {
  Rng rng(5);
  const Tensor a = randn({4, 6}, rng);
  const Tensor b = randn({4, 3}, rng);
  // matmul_tn(a, b) == a^T b
  const Tensor ref = matmul(transpose2d(a), b);
  const Tensor out = matmul_tn(a, b);
  for (std::int64_t i = 0; i < ref.numel(); ++i) EXPECT_NEAR(out[i], ref[i], 1e-4);

  const Tensor c = randn({5, 6}, rng);
  const Tensor ref2 = matmul(a, transpose2d(c));
  const Tensor out2 = matmul_nt(a, c);
  for (std::int64_t i = 0; i < ref2.numel(); ++i) EXPECT_NEAR(out2[i], ref2[i], 1e-4);
}

TEST(Matmul, ShapeMismatchThrows) {
  EXPECT_THROW(matmul(Tensor({2, 3}), Tensor({4, 2})), std::invalid_argument);
}

TEST(Reduce, SumMeanAxis) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor s0 = sum_axis(a, 0);
  EXPECT_EQ(s0.shape(), (Shape{3}));
  EXPECT_FLOAT_EQ(s0[0], 5);
  const Tensor s1 = sum_axis(a, 1, true);
  EXPECT_EQ(s1.shape(), (Shape{2, 1}));
  EXPECT_FLOAT_EQ(s1.at(1, 0), 15);
}

TEST(Reduce, SoftmaxRowsSumToOne) {
  Rng rng(1);
  const Tensor a = randn({5, 7}, rng, 0, 3);
  const Tensor s = softmax_rows(a);
  for (std::int64_t i = 0; i < 5; ++i) {
    double total = 0;
    for (std::int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0, 1e-5);
  }
}

TEST(Reduce, LogSoftmaxMatchesLogOfSoftmax) {
  Rng rng(2);
  const Tensor a = randn({3, 4}, rng, 0, 2);
  const Tensor ls = log_softmax_rows(a);
  const Tensor s = softmax_rows(a);
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ls[i], std::log(s[i]), 1e-5);
  }
}

TEST(Reduce, ArgmaxRows) {
  Tensor a({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(a);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Reduce, PairwiseSqDists) {
  Tensor a({3, 2}, {0, 0, 3, 4, 0, 1});
  const Tensor d = pairwise_sq_dists(a);
  EXPECT_FLOAT_EQ(d.at(0, 0), 0);
  EXPECT_FLOAT_EQ(d.at(0, 1), 25);
  EXPECT_FLOAT_EQ(d.at(1, 0), 25);
  EXPECT_FLOAT_EQ(d.at(0, 2), 1);
  EXPECT_FLOAT_EQ(d.at(1, 2), 18);
}

TEST(Conv, OutDim) {
  EXPECT_EQ(conv_out_dim(16, 3, 1, 1), 16);
  EXPECT_EQ(conv_out_dim(16, 3, 2, 1), 8);
  EXPECT_EQ(conv_out_dim(4, 1, 1, 0), 4);
}

TEST(Conv, OutDimRejectsWindowsThatDoNotFit) {
  EXPECT_EQ(conv_out_dim(3, 3, 2, 0), 1);  // exact fit
  EXPECT_EQ(conv_out_dim(2, 3, 2, 1), 1);  // fits once padded
  EXPECT_EQ(conv_out_dim(5, 2, 2, 0), 2);  // a ragged tail is dropped
  // A window larger than the padded input has no output element.
  EXPECT_THROW(conv_out_dim(2, 3, 2, 0), std::invalid_argument);
  EXPECT_THROW(conv_out_dim(1, 2, 2, 0), std::invalid_argument);
  EXPECT_THROW(conv_out_dim(16, 3, 0, 1), std::invalid_argument);  // stride 0
  EXPECT_THROW(conv_out_dim(16, 0, 1, 0), std::invalid_argument);  // kernel 0
  EXPECT_THROW(conv_out_dim(16, 3, 1, -1), std::invalid_argument);
}

TEST(Conv, KernelsRejectGeometryOutsideTheInput) {
  // A 2x2 pool window does not fit a (1,1,1,1) input, an unpadded 3x3
  // window does not fit a 2x2 input, and stride 0 has no output size: each
  // kernel must refuse rather than read outside the input or divide by 0.
  const Tensor tiny({1, 1, 1, 1}, 1.0f);
  EXPECT_THROW(maxpool2d(tiny, 2, 2), std::invalid_argument);
  EXPECT_THROW(maxpool2d(Tensor({1, 1, 4, 4}), 2, 0), std::invalid_argument);
  const Tensor x({1, 1, 2, 2}, 1.0f);
  const Tensor w({1, 1, 3, 3}, 1.0f);
  const Conv2dSpec too_big{3, 2, 0};
  EXPECT_THROW(conv2d(x, w, nullptr, too_big), std::invalid_argument);
  EXPECT_THROW(conv2d(x, w, nullptr, {3, 0, 1}), std::invalid_argument);
  EXPECT_THROW(conv2d_input_grad(Tensor({1, 1, 1, 1}), x.shape(), w, too_big),
               std::invalid_argument);
  EXPECT_THROW(conv2d_weight_grad(Tensor({1, 1, 1, 1}), x, w.shape(), too_big),
               std::invalid_argument);
  const ConvEvalPlan plan(w, nullptr, too_big, FoldedBn{}, false);
  EXPECT_THROW(plan.run(x), std::invalid_argument);
}

TEST(Conv, GradientKernelsRejectAGradientOfTheWrongShape) {
  // conv2d of a (2,3,6,5) input with a (4,3,3,3) weight at stride 1, pad 1
  // is (2,4,6,5); every other g shape is refused, as is the right g under
  // a spec or weight it does not come from.
  const Tensor x({2, 3, 6, 5});
  const Tensor w({4, 3, 3, 3});
  const Conv2dSpec spec{3, 1, 1};
  EXPECT_NO_THROW(conv2d_input_grad(Tensor({2, 4, 6, 5}), x.shape(), w, spec));
  EXPECT_NO_THROW(conv2d_weight_grad(Tensor({2, 4, 6, 5}), x, w.shape(), spec));
  for (const Shape& bad : {Shape{2, 4, 6, 4}, Shape{1, 4, 6, 5},
                           Shape{2, 5, 6, 5}, Shape{2, 4, 30}}) {
    EXPECT_THROW(conv2d_input_grad(Tensor(bad), x.shape(), w, spec),
                 std::invalid_argument);
    EXPECT_THROW(conv2d_weight_grad(Tensor(bad), x, w.shape(), spec),
                 std::invalid_argument);
  }
  const Tensor g({2, 4, 6, 5});
  const Conv2dSpec stride2{3, 2, 1};
  EXPECT_THROW(conv2d_input_grad(g, x.shape(), w, stride2),
               std::invalid_argument);
  EXPECT_THROW(conv2d_weight_grad(g, x, w.shape(), stride2),
               std::invalid_argument);
  const Tensor w_c2({4, 2, 3, 3});
  EXPECT_THROW(conv2d_input_grad(g, x.shape(), w_c2, spec),
               std::invalid_argument);
  EXPECT_THROW(conv2d_weight_grad(g, x, w_c2.shape(), spec),
               std::invalid_argument);
  EXPECT_THROW(conv2d_bias_grad(Tensor({2, 4})), std::invalid_argument);
}

TEST(Conv, IdentityKernelPreservesInput) {
  // 1x1 kernel of value 1 on a single channel copies the image.
  Tensor x({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Tensor w({1, 1, 1, 1}, {1.0f});
  const Tensor y = conv2d(x, w, nullptr, {1, 1, 0});
  for (std::int64_t i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv, KnownSmallConvolution) {
  // 2x2 image, 3x3 sum kernel with pad 1: each output = sum of in-bounds
  // neighbours.
  Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor w({1, 1, 3, 3}, std::vector<float>(9, 1.0f));
  const Tensor y = conv2d(x, w, nullptr, {3, 1, 1});
  // Every output position covers the whole 2x2 image.
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(y[i], 10.0f);
}

TEST(Conv, BiasIsAddedPerFilter) {
  Tensor x({1, 1, 2, 2}, 0.0f);
  Tensor w({2, 1, 1, 1}, {1.0f, 1.0f});
  Tensor b({2}, {5.0f, -3.0f});
  const Tensor y = conv2d(x, w, &b, {1, 1, 0});
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 5.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -3.0f);
}

TEST(Conv, GradientKernelsAreAdjointsOfTheForward) {
  // conv2d is bilinear in (x, w), so for random x, w, g:
  // <conv2d(x, w), g> == <x, dL/dx> == <w, dL/dw> (adjoint identities).
  for (const Conv2dSpec spec : {Conv2dSpec{3, 1, 1}, Conv2dSpec{3, 2, 0}}) {
    Rng rng(3);
    const Tensor x = randn({2, 3, 5, 5}, rng);
    const Tensor w = randn({4, 3, 3, 3}, rng);
    const Tensor y = conv2d(x, w, nullptr, spec);
    const Tensor g = randn(y.shape(), rng);
    const float inner = dot(y, g);
    EXPECT_NEAR(inner, dot(x, conv2d_input_grad(g, x.shape(), w, spec)), 1e-2);
    EXPECT_NEAR(inner, dot(w, conv2d_weight_grad(g, x, w.shape(), spec)),
                1e-2);
  }
}

TEST(Pool, MaxPoolValuesAndArgmax) {
  Tensor x({1, 1, 4, 4},
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  const Tensor y = maxpool2d(x, 2, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 6);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 16);
  // Gradient routes only to the argmax entries.
  Tensor g({1, 1, 2, 2}, 1.0f);
  const Tensor gx = maxpool2d_backward(g, x, 2, 2);
  EXPECT_FLOAT_EQ(gx[5], 1.0f);   // value 6
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[15], 1.0f);  // value 16
}

TEST(Pool, WindowWithNothingAboveMinusInfRoutesItsGradientInside) {
  // No element of the bottom-right window beats -inf (all NaN, then all
  // -inf): it pools to -inf, and its argmax is the window's own first
  // element, (2, 2), so the gradient never lands outside the window.
  for (const float fill : {std::nanf(""), -INFINITY}) {
    Tensor x({1, 1, 4, 4},
             {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
    for (const std::int64_t i : {10, 11, 14, 15}) x[i] = fill;
    EXPECT_EQ(maxpool2d(x, 2, 2)[3], -INFINITY);
    const Tensor gx = maxpool2d_backward(Tensor({1, 1, 2, 2}, 1.0f), x, 2, 2);
    EXPECT_FLOAT_EQ(gx[0], 0.0f);
    EXPECT_FLOAT_EQ(gx[5], 1.0f);   // value 6, top-left window
    EXPECT_FLOAT_EQ(gx[10], 1.0f);  // the all-NaN/-inf window's first element
  }
}

TEST(Pool, BackwardRejectsAGradientOfTheWrongShape) {
  // No saved argmax bounds the scatter, so the backward checks the gradient
  // against the pooled shape of x itself.
  const Tensor x({2, 3, 5, 5}, 1.0f);
  EXPECT_NO_THROW(maxpool2d_backward(Tensor({2, 3, 2, 2}), x, 2, 2));
  for (const Shape& bad : std::vector<Shape>{{2, 3, 3, 3},
                                             {2, 3, 2},
                                             {1, 3, 2, 2},
                                             {2, 4, 2, 2},
                                             {24}}) {
    EXPECT_THROW(maxpool2d_backward(Tensor(bad), x, 2, 2),
                 std::invalid_argument)
        << shape_str(bad);
  }
  EXPECT_THROW(maxpool2d_backward(Tensor({2, 3, 2, 2}), x, 6, 6),
               std::invalid_argument);
  EXPECT_THROW(
      maxpool2d_backward(Tensor({2, 3, 2, 2}), Tensor({3, 5, 5}), 2, 2),
      std::invalid_argument);
}

TEST(Pool, GlobalAvgPool) {
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = global_avg_pool(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 25.0f);
  const Tensor g = Tensor({1, 2}, {4.0f, 8.0f});
  const Tensor gx = global_avg_pool_backward(g, x.shape());
  EXPECT_FLOAT_EQ(gx[0], 1.0f);
  EXPECT_FLOAT_EQ(gx[4], 2.0f);
}

TEST(ShapeUtils, TakeRowsAndConcat) {
  Tensor a({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor t = take_rows(a, {2, 0});
  EXPECT_FLOAT_EQ(t.at(0, 0), 5);
  EXPECT_FLOAT_EQ(t.at(1, 1), 2);
  EXPECT_THROW(take_rows(a, {3}), std::out_of_range);
}

TEST(ShapeUtils, PutRowsInvertsTakeRows) {
  Tensor a({4, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
  const std::vector<std::int64_t> idx{3, 1};
  const Tensor rows = take_rows(a, idx);
  Tensor b({4, 3});
  put_rows(b, idx, rows);
  EXPECT_FLOAT_EQ(b.at(3, 0), 10);
  EXPECT_FLOAT_EQ(b.at(1, 2), 6);
  EXPECT_FLOAT_EQ(b.at(0, 0), 0);  // untouched rows keep their content
  EXPECT_FLOAT_EQ(b.at(2, 1), 0);
  // Round trip: scatter back into a copy reproduces the original.
  Tensor c = a;
  put_rows(c, idx, rows);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_FLOAT_EQ(c[i], a[i]);
}

TEST(ShapeUtils, PutRowsValidates) {
  Tensor dst({3, 2});
  const Tensor two({2, 2}, {1, 2, 3, 4});
  EXPECT_THROW(put_rows(dst, {0}, two), std::invalid_argument);  // count
  Tensor wide({1, 3}, {1, 2, 3});
  EXPECT_THROW(put_rows(dst, {0}, wide), std::invalid_argument);  // trailing
  EXPECT_THROW(put_rows(dst, {0, 3}, two), std::out_of_range);    // range
  // 0-row scatter (and 0-row destinations, as empty batches produce) no-op.
  Tensor none({0, 2});
  put_rows(none, {}, Tensor({0, 2}));
  put_rows(dst, {}, Tensor({0, 2}));
  EXPECT_EQ(take_rows(none, {}).dim(0), 0);
  EXPECT_THROW(take_rows(none, {0}), std::out_of_range);
}

TEST(ShapeUtils, OneHot) {
  const Tensor oh = one_hot({1, 0, 2}, 3);
  EXPECT_EQ(oh.shape(), (Shape{3, 3}));
  EXPECT_FLOAT_EQ(oh.at(0, 1), 1);
  EXPECT_FLOAT_EQ(oh.at(0, 0), 0);
  EXPECT_FLOAT_EQ(oh.at(2, 2), 1);
  EXPECT_THROW(one_hot({3}, 3), std::out_of_range);
}

TEST(RandomTensors, Deterministic) {
  Rng a(9), b(9);
  const Tensor x = randn({8}, a);
  const Tensor y = randn({8}, b);
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(x[i], y[i]);
}

TEST(RandomTensors, UniformRange) {
  Rng rng(4);
  const Tensor u = rand_uniform({1000}, rng, -0.5f, 0.5f);
  EXPECT_GE(min_all(u), -0.5f);
  EXPECT_LE(max_all(u), 0.5f);
  EXPECT_NEAR(mean_all(u), 0.0f, 0.05f);
}

TEST(RandomTensors, SignsAreUnitMagnitude) {
  Rng rng(4);
  const Tensor s = rand_sign({100}, rng);
  for (std::int64_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(std::fabs(s[i]), 1.0f);
  }
}

// Parameterized sweep: broadcasting of binary ops across shape pairs.
struct BroadcastCase {
  Shape a;
  Shape b;
  Shape expect;
};

class BroadcastSweep : public ::testing::TestWithParam<BroadcastCase> {};

TEST_P(BroadcastSweep, MulMatchesManual) {
  const auto& c = GetParam();
  Rng rng(11);
  const Tensor a = randn(c.a, rng);
  const Tensor b = randn(c.b, rng);
  const Tensor out = mul(a, b);
  ASSERT_EQ(out.shape(), c.expect);
  // Verify against explicit broadcast_to.
  const Tensor ax = broadcast_to(a, c.expect);
  const Tensor bx = broadcast_to(b, c.expect);
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out[i], ax[i] * bx[i], 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BroadcastSweep,
    ::testing::Values(BroadcastCase{{2, 3}, {2, 3}, {2, 3}},
                      BroadcastCase{{2, 3}, {3}, {2, 3}},
                      BroadcastCase{{2, 1}, {1, 5}, {2, 5}},
                      BroadcastCase{{4, 1, 3}, {2, 3}, {4, 2, 3}},
                      BroadcastCase{{1}, {3, 2}, {3, 2}},
                      BroadcastCase{{2, 3, 1, 1}, {1, 3, 2, 2}, {2, 3, 2, 2}}));

// ---- bit gates: each map and one-element broadcast against a plain loop ----
//
// Every element must be the IEEE result of the expression written here; the
// kernels may vectorize and split across lanes, but never change a bit.

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 || std::memcmp(a.data().data(), b.data().data(),
                                        a.data().size() * sizeof(float)) == 0);
}

/// Runs `check(lanes)` with the pool at 1 and at 4 lanes.
template <typename F>
void at_one_and_four_lanes(F&& check) {
  const std::int64_t lanes0 = runtime::num_threads();
  for (const std::int64_t lanes : {1, 4}) {
    runtime::set_num_threads(lanes);
    check(lanes);
  }
  runtime::set_num_threads(lanes0);
}

struct MapCase {
  const char* name;
  Tensor (*op)(const Tensor&);
  float (*ref)(float);
};

TEST(BitGate, UnaryMapsMatchAPlainLoop) {
  const MapCase cases[] = {
      {"relu", &relu, [](float x) { return x > 0.0f ? x : 0.0f; }},
      {"sign", &sign,
       [](float x) { return x > 0.0f ? 1.0f : (x < 0.0f ? -1.0f : 0.0f); }},
      {"neg", &neg, [](float x) { return -x; }},
      {"abs", &abs, [](float x) { return std::fabs(x); }},
      {"square", &square, [](float x) { return x * x; }},
      {"exp", &exp, [](float x) { return std::exp(x); }},
      {"log", &log, [](float x) { return std::log(std::max(x, 1e-38f)); }},
      {"tanh", &tanh, [](float x) { return std::tanh(x); }},
      {"clamp", [](const Tensor& a) { return clamp(a, -0.5f, 1.5f); },
       [](float x) { return std::min(std::max(x, -0.5f), 1.5f); }},
      {"add_scalar", [](const Tensor& a) { return add_scalar(a, 0.75f); },
       [](float x) { return x + 0.75f; }},
      {"mul_scalar", [](const Tensor& a) { return mul_scalar(a, -1.25f); },
       [](float x) { return x * -1.25f; }},
  };
  at_one_and_four_lanes([&](std::int64_t lanes) {
    std::uint64_t seed = 300;
    for (const auto& shape : map_shapes()) {
      const Tensor x = special_values(shape, ++seed);
      for (const auto& c : cases) {
        Tensor expect(shape);
        for (std::int64_t i = 0; i < x.numel(); ++i) expect[i] = c.ref(x[i]);
        EXPECT_TRUE(same_bits(c.op(x), expect))
            << c.name << " " << shape_str(shape) << " lanes=" << lanes;
      }
    }
  });
}

TEST(BitGate, ReluBackwardIsTheMaskedProduct) {
  at_one_and_four_lanes([&](std::int64_t lanes) {
    std::uint64_t seed = 350;
    for (const auto& shape : map_shapes()) {
      const Tensor g = special_values(shape, ++seed);
      const Tensor x = special_values(shape, ++seed);
      Tensor expect(shape);
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        expect[i] = g[i] * (x[i] > 0.0f ? 1.0f : 0.0f);
      }
      EXPECT_TRUE(same_bits(relu_backward(g, x), expect))
          << shape_str(shape) << " lanes=" << lanes;
    }
  });
  EXPECT_THROW(relu_backward(Tensor({4}), Tensor({2, 2})),
               std::invalid_argument);
}

TEST(ElementwiseTiming, ReluForwardAndBackwardVectorize) {
  // At 1 lane on a vgg16-sized map of random signs. A scalar loop costs
  // 3-8 ns per element here (an indirect call, or a select that branches
  // and mispredicts); the vectorized loops cost well under 1 ns. Only one
  // output is alive at a time, so malloc hands the freed block back and the
  // best run times the loop, not first-touch page faults.
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  Rng rng(29);
  const Tensor x = rand_uniform({100, 8, 16, 16}, rng, -1.0f, 1.0f);
  const Tensor g = rand_uniform({100, 8, 16, 16}, rng, -1.0f, 1.0f);
  const double n = static_cast<double>(x.numel());
  float sink = 0.0f;
  const double fwd = best_wall_ns(30, [&] { sink += relu(x)[0]; }) / n;
  const double bwd =
      best_wall_ns(30, [&] { sink += relu_backward(g, x)[0]; }) / n;
  runtime::set_num_threads(lanes0);
  EXPECT_TRUE(std::isfinite(sink));
  SKIP_UNLESS_TIMING_BUILD() << fwd << " ns (relu), " << bwd
                             << " ns (relu_backward) per element";
  EXPECT_LT(fwd, 2.0) << "relu: " << fwd << " ns per element";
  EXPECT_LT(bwd, 2.0) << "relu_backward: " << bwd << " ns per element";
}

/// PoolTiming's floor for vgg16's block-1 pool forward plus its input
/// gradient at batch 100 on one lane. A window chain that branches on each
/// comparison, with a backward that zero-fills its result and then scatters
/// into it, takes 860-970 us with AVX-512 and 870-910 us without AVX; the
/// branch-free chain on four windows' lanes, with a backward that writes
/// each element once, 170-180 and 130-225 us.
constexpr double kPoolFloorUs = 500.0;

TEST(PoolTiming, Vgg16Block1ForwardAndBackward) {
  // maxpool2d(2, 2) and maxpool2d_backward on vgg16's block-1 activation,
  // (100, 8, 16, 16) of random signs, on one lane: what every attack step's
  // forward and backward spend in block 1's pool. It fails when a window's
  // chain branches on each comparison (which mispredicts on random data) or
  // the backward zero-fills its result and then scatters into it.
  const std::int64_t lanes0 = runtime::num_threads();
  runtime::set_num_threads(1);
  Rng rng(31);
  const Tensor x = rand_uniform({100, 8, 16, 16}, rng, -1.0f, 1.0f);
  const Tensor g = rand_uniform({100, 8, 8, 8}, rng, -1.0f, 1.0f);
  float sink = 0.0f;
  const double us = best_wall_ns(30, [&] {
                      sink += maxpool2d(x, 2, 2)[0];
                      sink += maxpool2d_backward(g, x, 2, 2)[0];
                    }) / 1e3;
  runtime::set_num_threads(lanes0);
  EXPECT_TRUE(std::isfinite(sink));
  SKIP_UNLESS_TIMING_BUILD() << us << " us";
  EXPECT_LT(us, kPoolFloorUs) << "pool forward + backward: " << us << " us";
}

struct BinaryCase {
  const char* name;
  Tensor (*op)(const Tensor&, const Tensor&);
  float (*ref)(float, float);
};

TEST(BitGate, BinaryOpsWithAOneElementOperandMatchAPlainLoop) {
  const BinaryCase cases[] = {
      {"add", &add, [](float x, float y) { return x + y; }},
      {"sub", &sub, [](float x, float y) { return x - y; }},
      {"mul", &mul, [](float x, float y) { return x * y; }},
      {"div", &div, [](float x, float y) { return x / y; }},
      {"maximum", &maximum, [](float x, float y) { return std::max(x, y); }},
      {"minimum", &minimum, [](float x, float y) { return std::min(x, y); }},
      {"greater", &greater,
       [](float x, float y) { return x > y ? 1.0f : 0.0f; }},
  };
  const std::vector<Shape> one_element = {{}, {1}, {1, 1}};
  const std::vector<Shape> big = {{3, 5}, {129, 129}, {100, 8, 16, 16}};
  at_one_and_four_lanes([&](std::int64_t lanes) {
    std::uint64_t seed = 400;
    for (const auto& shape : big) {
      const Tensor y = special_values(shape, ++seed);
      for (const auto& s_shape : one_element) {
        for (const float s : {1.5f, -0.0f, kInf}) {
          const Tensor st(s_shape, s);
          for (const auto& c : cases) {
            Tensor left(shape), right(shape);
            for (std::int64_t i = 0; i < y.numel(); ++i) {
              left[i] = c.ref(s, y[i]);
              right[i] = c.ref(y[i], s);
            }
            const std::string where = std::string(c.name) + " " +
                                      shape_str(s_shape) + "=" +
                                      std::to_string(s) + " vs " +
                                      shape_str(shape) +
                                      " lanes=" + std::to_string(lanes);
            EXPECT_TRUE(same_bits(c.op(st, y), left)) << "left " << where;
            EXPECT_TRUE(same_bits(c.op(y, st), right)) << "right " << where;
          }
        }
      }
    }
  });
}

}  // namespace
}  // namespace ibrar
