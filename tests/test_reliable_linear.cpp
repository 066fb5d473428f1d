// ReliableLinear: Algorithm 3 semantics extended to dense layers.
#include <gtest/gtest.h>

#include <memory>

#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_linear.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::ReliableLinear;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

ReliableLinear make_layer(std::size_t out_n, std::size_t in_n,
                          std::uint64_t seed = 31) {
  Rng rng(seed);
  Tensor weights(Shape{out_n, in_n});
  weights.fill_normal(rng, 0.0f, 0.3f);
  Tensor bias(Shape{out_n});
  bias.fill_normal(rng, 0.0f, 0.1f);
  return {std::move(weights), std::move(bias)};
}

TEST(ReliableLinear, RejectsBadShapes) {
  EXPECT_THROW(ReliableLinear(Tensor(Shape{4}), Tensor(Shape{4})),
               std::invalid_argument);
  EXPECT_THROW(ReliableLinear(Tensor(Shape{4, 3}), Tensor(Shape{3})),
               std::invalid_argument);
}

TEST(ReliableLinear, RejectsBadInput) {
  const ReliableLinear layer = make_layer(4, 8);
  const auto exec = make_executor("dmr", nullptr);
  EXPECT_THROW(layer.forward(Tensor(Shape{7}), *exec),
               std::invalid_argument);
  EXPECT_THROW(layer.reference_forward(Tensor(Shape{4, 2})),
               std::invalid_argument);
  // Right element count, wrong rank: the layer must not read it as the
  // conv's CHW view.
  const Tensor column(Shape{8, 1});
  EXPECT_THROW(layer.forward(column, *exec), std::invalid_argument);
  EXPECT_THROW(layer.forward_generic(column, *exec), std::invalid_argument);
  EXPECT_THROW(layer.reference_forward(column), std::invalid_argument);
}

class LinearSchemes : public ::testing::TestWithParam<const char*> {};

TEST_P(LinearSchemes, FaultFreeBitIdenticalToReference) {
  const ReliableLinear layer = make_layer(6, 20);
  Rng rng(5);
  Tensor input(Shape{20});
  input.fill_normal(rng, 0.0f, 1.0f);

  const auto exec = make_executor(GetParam(), nullptr);
  const auto result = layer.forward(input, *exec);
  ASSERT_TRUE(result.report.ok);
  EXPECT_EQ(result.output, layer.reference_forward(input));
  EXPECT_EQ(result.report.logical_ops, 2u * 6u * 20u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, LinearSchemes,
                         ::testing::Values("simplex", "dmr", "tmr"));

TEST(ReliableLinear, DmrCorrectsTransientFaults) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1e-3;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 41);
  const auto exec = make_executor("dmr", inj);

  const ReliableLinear layer = make_layer(16, 64);
  Rng rng(6);
  Tensor input(Shape{64});
  input.fill_normal(rng, 0.0f, 1.0f);

  const auto result = layer.forward(input, *exec);
  ASSERT_TRUE(result.report.ok) << result.report.summary();
  ASSERT_GT(result.report.detected_errors, 0u) << "test vacuous";
  EXPECT_EQ(result.output, layer.reference_forward(input));
}

TEST(ReliableLinear, PermanentFaultAborts) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 1.0;
  cfg.num_pes = 4;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 4);
  const auto exec = make_executor("dmr", inj);

  const ReliableLinear layer = make_layer(4, 8);
  const Tensor input(Shape{8}, 1.0f);
  const auto result = layer.forward(input, *exec);
  EXPECT_FALSE(result.report.ok);
  EXPECT_TRUE(result.report.bucket_exhausted);
}

TEST(ReliableLinear, ReportSchemeAndStage) {
  const ReliableLinear layer = make_layer(2, 2);
  const auto exec = make_executor("tmr", nullptr);
  const auto result = layer.forward(Tensor(Shape{2}, 1.0f), *exec);
  EXPECT_EQ(result.report.stage, "reliable_linear");
  EXPECT_EQ(result.report.scheme, "tmr");
}

}  // namespace
