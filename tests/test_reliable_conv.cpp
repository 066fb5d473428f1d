// Algorithm 3 (reliable convolution): correctness, fault recovery, abort
// semantics and the reliability guarantee against a golden reference.
#include <gtest/gtest.h>

#include <memory>

#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::reliable::ConvSpec;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::ReliabilityPolicy;
using hybridcnn::reliable::ReliableConv2d;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

ReliableConv2d make_conv(std::size_t out_c, std::size_t in_c, std::size_t k,
                         ConvSpec spec, ReliabilityPolicy policy = {},
                         std::uint64_t seed = 11) {
  Rng rng(seed);
  Tensor weights(Shape{out_c, in_c, k, k});
  weights.fill_normal(rng, 0.0f, 0.5f);
  Tensor bias(Shape{out_c});
  bias.fill_normal(rng, 0.0f, 0.1f);
  return {std::move(weights), std::move(bias), spec, policy};
}

Tensor make_input(std::size_t c, std::size_t h, std::size_t w,
                  std::uint64_t seed = 23) {
  Rng rng(seed);
  Tensor input(Shape{c, h, w});
  input.fill_normal(rng, 0.0f, 1.0f);
  return input;
}

// ------------------------------------------------------------ validation

TEST(ReliableConv2d, RejectsNonOihwWeights) {
  EXPECT_THROW(ReliableConv2d(Tensor(Shape{4, 3, 3}), Tensor(Shape{4}),
                              ConvSpec{}),
               std::invalid_argument);
}

TEST(ReliableConv2d, RejectsBiasMismatch) {
  EXPECT_THROW(ReliableConv2d(Tensor(Shape{4, 1, 3, 3}), Tensor(Shape{3}),
                              ConvSpec{}),
               std::invalid_argument);
}

TEST(ReliableConv2d, RejectsZeroStride) {
  EXPECT_THROW(ReliableConv2d(Tensor(Shape{4, 1, 3, 3}), Tensor(Shape{4}),
                              ConvSpec{0, 0}),
               std::invalid_argument);
}

TEST(ReliableConv2d, RejectsChannelMismatch) {
  const ReliableConv2d conv = make_conv(2, 3, 3, ConvSpec{1, 0});
  EXPECT_THROW(static_cast<void>(conv.output_shape(Shape{2, 8, 8})),
               std::invalid_argument);
}

TEST(ReliableConv2d, OutputShapeStrideAndPad) {
  const ReliableConv2d conv = make_conv(96, 3, 11, ConvSpec{4, 0});
  const auto out = conv.output_shape(Shape{3, 227, 227});
  EXPECT_EQ(out, (Shape{96, 55, 55}));  // AlexNet conv1 geometry
}

TEST(ReliableConv2d, MacCountMatchesAlexNetConv1) {
  const ReliableConv2d conv = make_conv(96, 3, 11, ConvSpec{4, 0});
  // 96 * 55 * 55 * 3 * 11 * 11 (no padding -> every tap lands in-bounds)
  EXPECT_EQ(conv.mac_count(Shape{3, 227, 227}), 96ull * 55 * 55 * 3 * 121);
}

TEST(ReliableConv2d, MacCountExcludesPaddedTaps) {
  const ReliableConv2d conv = make_conv(1, 1, 3, ConvSpec{1, 1});
  // 3x3 input, pad 1: centre tap always lands, corners lose taps.
  // Full grid would be 9 * 9 = 81; padded border removes 81 - 49 = 32.
  EXPECT_EQ(conv.mac_count(Shape{1, 3, 3}), 49u);
}

// ------------------------------------------------- fault-free execution

class FaultFreeSchemes : public ::testing::TestWithParam<const char*> {};

TEST_P(FaultFreeSchemes, BitIdenticalToReference) {
  const ReliableConv2d conv = make_conv(4, 3, 3, ConvSpec{2, 1});
  const Tensor input = make_input(3, 13, 13);
  const auto exec = make_executor(GetParam(), nullptr);
  const auto result = conv.forward(input, *exec);

  ASSERT_TRUE(result.report.ok);
  EXPECT_EQ(result.report.detected_errors, 0u);
  EXPECT_EQ(result.report.retries, 0u);
  const Tensor golden = conv.reference_forward(input);
  EXPECT_EQ(result.output, golden)
      << "fault-free qualified execution must be bit-identical";
}

TEST_P(FaultFreeSchemes, ReportCountsLogicalOps) {
  const ReliableConv2d conv = make_conv(2, 2, 3, ConvSpec{1, 0});
  const Tensor input = make_input(2, 6, 6);
  const auto exec = make_executor(GetParam(), nullptr);
  const auto result = conv.forward(input, *exec);
  // One multiply + one accumulate per MAC.
  EXPECT_EQ(result.report.logical_ops, 2 * conv.mac_count(input.shape()));
  EXPECT_EQ(result.report.commits, result.report.logical_ops);
}

INSTANTIATE_TEST_SUITE_P(Schemes, FaultFreeSchemes,
                         ::testing::Values("simplex", "dmr", "tmr"));

// ------------------------------------------------------ fault recovery

TEST(ReliableConv2d, DmrCorrectsTransientFaults) {
  // Moderate transient rate: DMR detects each corrupted execution, the
  // kernel rolls back one operation and retries; the final output must be
  // bit-identical to the golden run — the paper's reliability guarantee.
  // Rate chosen so several faults activate but the probability of two
  // successive failing executions of one op (which would correctly
  // fail-stop) is negligible for this op count.
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 2e-4;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 99);
  const auto exec = make_executor("dmr", inj);

  const ReliableConv2d conv = make_conv(4, 3, 5, ConvSpec{1, 2});
  const Tensor input = make_input(3, 16, 16);
  const auto result = conv.forward(input, *exec);

  ASSERT_TRUE(result.report.ok) << result.report.summary();
  ASSERT_GT(result.report.detected_errors, 0u)
      << "test vacuous: no faults activated";
  EXPECT_EQ(result.report.corrected_errors, result.report.detected_errors);
  EXPECT_EQ(result.output, conv.reference_forward(input));
}

TEST(ReliableConv2d, TmrMasksTransientFaultsWithoutRetries) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 2e-3;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 1234);
  const auto exec = make_executor("tmr", inj);

  const ReliableConv2d conv = make_conv(4, 3, 5, ConvSpec{1, 2});
  const Tensor input = make_input(3, 16, 16);
  const auto result = conv.forward(input, *exec);

  ASSERT_TRUE(result.report.ok);
  ASSERT_GT(inj->stats().faults, 0u) << "test vacuous: no faults activated";
  // Voting masks single faults in place: most faults need no retry.
  EXPECT_EQ(result.output, conv.reference_forward(input));
  EXPECT_LT(result.report.retries, inj->stats().faults);
}

TEST(ReliableConv2d, SimplexSuffersSilentCorruption) {
  // The unprotected baseline: faults flow straight into the output.
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 1e-3;
  cfg.bit = 30;  // high exponent bit: large corruption
  auto inj = std::make_shared<FaultInjector>(cfg, 5);
  const auto exec = make_executor("simplex", inj);

  const ReliableConv2d conv = make_conv(4, 3, 5, ConvSpec{1, 2});
  const Tensor input = make_input(3, 16, 16);
  const auto result = conv.forward(input, *exec);

  ASSERT_TRUE(result.report.ok) << "simplex never detects anything";
  ASSERT_GT(inj->stats().faults, 0u);
  EXPECT_NE(result.output, conv.reference_forward(input))
      << "silent corruption expected for the unprotected baseline";
}

// ------------------------------------------------------- abort semantics

TEST(ReliableConv2d, PermanentFaultExhaustsBucketAndAborts) {
  // Every PE permanently faulty: each DMR comparison disagrees (the two
  // executions land on different PEs with random-bit corruption), retries
  // cannot succeed, and the leaky bucket must trip.
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 1.0;
  cfg.num_pes = 8;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 17);
  const auto exec = make_executor("dmr", inj);

  const ReliableConv2d conv = make_conv(2, 1, 3, ConvSpec{1, 0});
  const Tensor input = make_input(1, 8, 8);
  const auto result = conv.forward(input, *exec);

  EXPECT_FALSE(result.report.ok);
  EXPECT_TRUE(result.report.bucket_exhausted);
  EXPECT_GE(result.report.failed_op_index, 0);
}

TEST(ReliableConv2d, AbortReportsFailedOpIndexEarly) {
  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 1.0;
  cfg.num_pes = 4;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 3);
  const auto exec = make_executor("dmr", inj);

  const ReliableConv2d conv = make_conv(2, 1, 3, ConvSpec{1, 0});
  const Tensor input = make_input(1, 8, 8);
  const auto result = conv.forward(input, *exec);
  ASSERT_FALSE(result.report.ok);
  // The very first operation must already fail persistently.
  EXPECT_EQ(result.report.failed_op_index, 0);
}

TEST(ReliableConv2d, RetryCapBoundsWorstCaseExecutions) {
  // Huge bucket; the per-op retry cap must still terminate execution.
  ReliabilityPolicy policy;
  policy.bucket_factor = 1;
  policy.bucket_ceiling = 1000000;
  policy.max_retries_per_op = 4;

  FaultConfig cfg;
  cfg.kind = FaultKind::kPermanent;
  cfg.probability = 1.0;
  cfg.num_pes = 8;
  cfg.bit = -1;
  auto inj = std::make_shared<FaultInjector>(cfg, 29);
  const auto exec = make_executor("dmr", inj);

  const ReliableConv2d conv =
      make_conv(1, 1, 3, ConvSpec{1, 0}, policy);
  const Tensor input = make_input(1, 5, 5);
  const auto result = conv.forward(input, *exec);
  EXPECT_FALSE(result.report.ok);
  EXPECT_FALSE(result.report.bucket_exhausted);
  EXPECT_LE(result.report.retries, 4u);
}

// --------------------------------------------- reliability guarantee sweep

struct GuaranteeParam {
  const char* scheme;
  double fault_rate;
};

class ReliabilityGuarantee : public ::testing::TestWithParam<GuaranteeParam> {
};

TEST_P(ReliabilityGuarantee, NoSilentCorruptionEver) {
  // The central property: with DMR or TMR plus operation rollback, a run
  // either completes with the golden output or reports failure. The
  // residual risk — redundant executions corrupted identically, which no
  // comparison can see — scales with rate^2/32 per op, so the property is
  // exercised in the rate regime where that term is negligible for this
  // op count; the ABL-FAULT bench measures the residual beyond it.
  const auto& p = GetParam();
  const ReliableConv2d conv = make_conv(3, 2, 3, ConvSpec{1, 1});
  const Tensor input = make_input(2, 10, 10);
  const Tensor golden = conv.reference_forward(input);

  int completed = 0;
  int aborted = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    FaultConfig cfg;
    cfg.kind = FaultKind::kTransient;
    cfg.probability = p.fault_rate;
    cfg.bit = -1;
    auto inj = std::make_shared<FaultInjector>(cfg, seed);
    const auto exec = make_executor(p.scheme, inj);
    const auto result = conv.forward(input, *exec);
    if (result.report.ok) {
      ++completed;
      EXPECT_EQ(result.output, golden)
          << p.scheme << " completed with non-golden output at rate "
          << p.fault_rate << " seed " << seed;
    } else {
      ++aborted;
    }
  }
  EXPECT_EQ(completed + aborted, 20);
}

INSTANTIATE_TEST_SUITE_P(
    RateGrid, ReliabilityGuarantee,
    ::testing::Values(GuaranteeParam{"dmr", 1e-5}, GuaranteeParam{"dmr", 1e-4},
                      GuaranteeParam{"dmr", 5e-4}, GuaranteeParam{"dmr", 2e-3},
                      GuaranteeParam{"tmr", 1e-5}, GuaranteeParam{"tmr", 1e-4},
                      GuaranteeParam{"tmr", 5e-4},
                      GuaranteeParam{"tmr", 2e-3}));

}  // namespace
