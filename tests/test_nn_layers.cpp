// CNN layer forward semantics (shapes and known values).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>

#include "nn/alexnet.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/flatten.hpp"
#include "nn/linear.hpp"
#include "nn/lrn.hpp"
#include "nn/maxpool.hpp"
#include "nn/minicnn.hpp"
#include "nn/relu.hpp"
#include "nn/sequential.hpp"
#include "nn/softmax.hpp"
#include "reliable/executor.hpp"
#include "runtime/workspace.hpp"
#include "reliable/reliable_conv.hpp"
#include "util/rng.hpp"

namespace {

using namespace hybridcnn::nn;
using hybridcnn::tensor::Shape;

/// Calling-thread scratch arena for the const infer() calls below.
hybridcnn::runtime::Workspace& scratch() {
  return hybridcnn::runtime::thread_scratch();
}

using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

TEST(Conv2d, IdentityKernelPassesThrough) {
  Conv2d conv(1, 1, 3, 1, 1);
  Tensor f(Shape{1, 3, 3});
  f[4] = 1.0f;  // centre tap
  conv.set_filter(0, f);

  Tensor input(Shape{1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  const Tensor out = conv.infer(input, scratch());
  ASSERT_EQ(out.shape(), input.shape());
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FLOAT_EQ(out[i], input[i]);
}

TEST(Conv2d, KnownValueWithStrideAndBias) {
  Conv2d conv(1, 1, 2, 2, 0);
  Tensor f(Shape{1, 2, 2}, 1.0f);  // box sum
  conv.set_filter(0, f);
  conv.bias()[0] = 0.5f;

  Tensor input(Shape{1, 1, 4, 4}, 1.0f);
  const Tensor out = conv.infer(input, scratch());
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(out[i], 4.5f);
}

TEST(Conv2d, MatchesReliableReferenceConv) {
  // Cross-implementation check: the im2col engine and the reliability
  // kernel's reference loop must agree to float tolerance.
  Rng rng(3);
  Conv2d conv(3, 8, 5, 2, 2);
  conv.init_he(rng);

  Tensor input(Shape{1, 3, 17, 17});
  input.fill_normal(rng, 0.0f, 1.0f);

  const Tensor a = conv.infer(input, scratch());

  Tensor input_chw = input;
  input_chw.reshape(Shape{3, 17, 17});
  const hybridcnn::reliable::ReliableConv2d ref(
      conv.weights(), conv.bias(), hybridcnn::reliable::ConvSpec{2, 2});
  Tensor b = ref.reference_forward(input_chw);
  b.reshape(a.shape());
  EXPECT_LT(a.max_abs_diff(b), 2e-4f);
}

TEST(Conv2d, RejectsWrongChannelCount) {
  Conv2d conv(3, 4, 3, 1, 1);
  EXPECT_THROW(conv.infer(Tensor(Shape{1, 2, 8, 8}), scratch()),
               std::invalid_argument);
}

TEST(Conv2d, FilterSurgeryRoundTrip) {
  Rng rng(5);
  Conv2d conv(3, 4, 3, 1, 1);
  conv.init_he(rng);
  const Tensor original = conv.filter(2);
  Tensor replacement(Shape{3, 3, 3}, 0.25f);
  conv.set_filter(2, replacement);
  EXPECT_EQ(conv.filter(2), replacement);
  conv.set_filter(2, original);
  EXPECT_EQ(conv.filter(2), original);
}

TEST(Conv2d, FilterSurgeryValidation) {
  Conv2d conv(3, 4, 3, 1, 1);
  EXPECT_THROW(conv.filter(4), std::out_of_range);
  EXPECT_THROW(conv.set_filter(0, Tensor(Shape{3, 5, 5})),
               std::invalid_argument);
  EXPECT_THROW(conv.set_filter_frozen(4, true), std::out_of_range);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  const Tensor in(Shape{4}, std::vector<float>{-1.0f, 0.0f, 2.0f, -0.5f});
  const Tensor out = relu.infer(in, scratch());
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
  EXPECT_FLOAT_EQ(out[3], 0.0f);
}

TEST(ReLU, LvalueAndRvalueForwardsAreBitIdentical) {
  // The rvalue overload clamps in place; it must still agree with the
  // lvalue path bit-for-bit, including NaN -> 0 and -0.0 -> +0.0.
  const Tensor in(Shape{5},
                  std::vector<float>{std::nanf(""), -0.0f, -1.0f, 0.0f,
                                     2.5f});
  ReLU by_copy;
  ReLU by_move;
  const Tensor a = by_copy.infer(in, scratch());
  Tensor movable = in;
  const Tensor b = by_move.infer(std::move(movable), scratch());
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.count(); ++i) {
    const float av = a[i];
    const float bv = b[i];
    std::uint32_t abits = 0;
    std::uint32_t bbits = 0;
    std::memcpy(&abits, &av, sizeof(abits));
    std::memcpy(&bbits, &bv, sizeof(bbits));
    EXPECT_EQ(abits, bbits) << "element " << i;
  }
}

TEST(MaxPool, SelectsWindowMaxima) {
  MaxPool pool(2, 2);
  Tensor input(Shape{1, 1, 4, 4});
  for (std::size_t i = 0; i < 16; ++i) input[i] = static_cast<float>(i);
  const Tensor out = pool.infer(input, scratch());
  ASSERT_EQ(out.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  EXPECT_FLOAT_EQ(out[1], 7.0f);
  EXPECT_FLOAT_EQ(out[2], 13.0f);
  EXPECT_FLOAT_EQ(out[3], 15.0f);
}

TEST(MaxPool, OverlappingAlexNetStyle) {
  MaxPool pool(3, 2);
  EXPECT_EQ(pool.out_size(55), 27u);
  EXPECT_EQ(pool.out_size(27), 13u);
  EXPECT_THROW(static_cast<void>(pool.out_size(2)), std::invalid_argument);
}

TEST(MaxPool, InferMatchesForwardTrain) {
  // infer() has its own branch-free loop; it must pick exactly the value
  // forward_train's argmax scan picks. Values come from a small set so
  // windows hold ties, NaNs (never selected over an earlier value, but
  // kept when first) and both zeros (the first of +0/-0 wins).
  const float kValues[] = {std::nanf(""), -0.0f, 0.0f, -1.5f, 1.5f, 2.0f};
  Rng rng(17);
  for (const std::size_t batch : {1u, 3u}) {
    Tensor input(Shape{batch, 2, 11, 13});
    for (std::size_t i = 0; i < input.count(); ++i) {
      input[i] = kValues[rng.uniform_int(0, 5)];
    }
    for (const std::size_t window : {1u, 2u, 3u}) {
      for (const std::size_t stride : {1u, 2u, 3u}) {
        SCOPED_TRACE("batch " + std::to_string(batch) + " window " +
                     std::to_string(window) + " stride " +
                     std::to_string(stride));
        MaxPool pool(window, stride);
        LayerCache cache;
        const Tensor trained = pool.forward_train(input, cache);
        const Tensor inferred = pool.infer(input, scratch());
        ASSERT_EQ(trained.shape(), inferred.shape());
        for (std::size_t i = 0; i < trained.count(); ++i) {
          const float tv = trained[i];
          const float iv = inferred[i];
          std::uint32_t tbits = 0;
          std::uint32_t ibits = 0;
          std::memcpy(&tbits, &tv, sizeof(tbits));
          std::memcpy(&ibits, &iv, sizeof(ibits));
          ASSERT_EQ(tbits, ibits) << "element " << i;
        }
      }
    }
  }
}

TEST(Lrn, UnitInputKnownValue) {
  // Single channel, x = 1: y = 1 / (2 + 1e-4/5)^0.75.
  Lrn lrn;
  Tensor input(Shape{1, 1, 1, 1}, 1.0f);
  const Tensor out = lrn.infer(input, scratch());
  EXPECT_NEAR(out[0], std::pow(2.0f + 1e-4f / 5.0f, -0.75f), 1e-6);
}

TEST(Lrn, SuppressionGrowsWithNeighbourActivity) {
  Lrn lrn;
  Tensor weak(Shape{1, 5, 1, 1}, 0.0f);
  weak[2] = 1.0f;
  const float alone = lrn.infer(weak, scratch())[2];

  Tensor strong(Shape{1, 5, 1, 1}, 3.0f);
  strong[2] = 1.0f;
  const float crowded = lrn.infer(strong, scratch())[2];
  EXPECT_LT(crowded, alone);
}

TEST(Linear, KnownValue) {
  Linear fc(2, 2);
  fc.weights() = Tensor(Shape{2, 2}, std::vector<float>{1.0f, 2.0f,
                                                        3.0f, 4.0f});
  fc.bias() = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  const Tensor in(Shape{1, 2}, std::vector<float>{1.0f, 1.0f});
  const Tensor out = fc.infer(in, scratch());
  EXPECT_FLOAT_EQ(out[0], 3.5f);
  EXPECT_FLOAT_EQ(out[1], 6.5f);
}

TEST(Softmax, NormalisesRows) {
  Softmax sm;
  const Tensor in(Shape{2, 3}, std::vector<float>{1.0f, 2.0f, 3.0f,
                                                  10.0f, 10.0f, 10.0f});
  const Tensor out = sm.infer(in, scratch());
  for (std::size_t s = 0; s < 2; ++s) {
    float sum = 0.0f;
    for (std::size_t j = 0; j < 3; ++j) sum += out[s * 3 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-6);
  }
  EXPECT_NEAR(out[3], 1.0f / 3.0f, 1e-6);
  EXPECT_GT(out[2], out[1]);
}

TEST(Softmax, StableForLargeLogits) {
  Softmax sm;
  const Tensor in(Shape{1, 2}, std::vector<float>{1000.0f, 1000.0f});
  const Tensor out = sm.infer(in, scratch());
  EXPECT_NEAR(out[0], 0.5f, 1e-6);
}

TEST(Flatten, ReshapesAndRestores) {
  Flatten fl;
  LayerCache cache;  // backward needs the cached input shape
  Tensor in(Shape{2, 3, 4, 5});
  const Tensor out = fl.forward_train(in, cache);
  EXPECT_EQ(out.shape(), (Shape{2, 60}));
  const Tensor back = fl.backward(out, cache);
  EXPECT_EQ(back.shape(), in.shape());
}

TEST(Dropout, IdentityAtInference) {
  Dropout d(0.5f);
  Tensor in(Shape{100}, 1.0f);
  const Tensor out = d.infer(in, scratch());
  EXPECT_EQ(out, in);
}

TEST(Dropout, MasksAndRescalesInTraining) {
  Dropout d(0.5f);
  LayerCache cache;
  Tensor in(Shape{4, 4, 4, 4}, 1.0f);
  const Tensor out = d.forward_train(in, cache);
  int zeros = 0;
  for (std::size_t i = 0; i < out.count(); ++i) {
    if (out[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(out[i], 2.0f);  // 1 / (1 - 0.5)
    }
  }
  EXPECT_GT(zeros, 64);
  EXPECT_LT(zeros, 192);
}

TEST(Dropout, CacheContextsDrawIndependentStreams) {
  // Micro-batch contexts with distinct rng streams must not replay each
  // other's masks; equal streams must (determinism).
  Dropout d(0.5f);
  Tensor in(Shape{8, 8}, 1.0f);
  FwdCache stream0a(0);
  FwdCache stream0b(0);
  FwdCache stream1(1);
  const Tensor a = d.forward_train(in, stream0a.slot(0));
  const Tensor b = d.forward_train(in, stream0b.slot(0));
  const Tensor c = d.forward_train(in, stream1.slot(0));
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(Dropout, RejectsInvalidP) {
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
}

TEST(Sequential, InferUntilAndFromCompose) {
  auto net = make_minicnn({});
  Tensor image(Shape{1, 3, 32, 32});
  Rng rng(8);
  image.fill_normal(rng, 0.5f, 0.2f);

  const Tensor full = net->infer(image, scratch());
  const Tensor mid = net->infer_until(3, image, scratch());
  const Tensor rest = net->infer_from(3, mid, scratch());
  EXPECT_EQ(full, rest);
}

TEST(Sequential, LayerAccessValidation) {
  auto net = make_minicnn({});
  EXPECT_THROW((void)net->layer(100), std::out_of_range);
  EXPECT_NO_THROW((void)net->layer_as<Conv2d>(kMiniCnnConv1));
  EXPECT_THROW((void)net->layer_as<Linear>(kMiniCnnConv1), std::bad_cast);
}

TEST(AlexNet, GeometryEndToEnd) {
  auto net = make_alexnet({.num_classes = 43, .seed = 1,
                           .with_dropout = false});
  Tensor image(Shape{1, 3, 227, 227});
  Rng rng(9);
  image.fill_uniform(rng, 0.0f, 1.0f);
  const Tensor logits = net->infer(image, scratch());
  EXPECT_EQ(logits.shape(), (Shape{1, 43}));

  auto& conv1 = net->layer_as<Conv2d>(kAlexNetConv1);
  EXPECT_EQ(conv1.out_channels(), kAlexNetConv1Filters);
  EXPECT_EQ(conv1.kernel(), 11u);
  EXPECT_EQ(conv1.stride(), 4u);
}

TEST(MiniCnn, GeometryEndToEnd) {
  auto net = make_minicnn({.num_classes = 5, .conv1_filters = 16, .seed = 2});
  Tensor image(Shape{2, 3, 32, 32});
  Rng rng(10);
  image.fill_uniform(rng, 0.0f, 1.0f);
  const Tensor logits = net->infer(image, scratch());
  EXPECT_EQ(logits.shape(), (Shape{2, 5}));
}

TEST(Layer, BackwardRejectsEmptyCache) {
  ReLU relu;
  // A cache without recorded forward state must reject backward.
  LayerCache cache;
  EXPECT_THROW(relu.backward(Tensor(Shape{1}), cache),
               std::invalid_argument);
}

}  // namespace
