// Static-dispatch bit-identity contract: for every (scheme, fault kind,
// geometry, seed), the devirtualized kernels forward() selects must
// produce the same output bits, the same ExecutionReport fields, the same
// ExecutorStats/InjectorStats and the same injector cursor as the
// retained generic virtual-dispatch path (forward_generic) — including
// the closed-form bookkeeping of granted clean windows, whole-forward or
// per output, and the abort machinery under persistent faults, at every
// thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/reliable_linear.hpp"
#include "runtime/compute_context.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::faultsim::FaultTarget;
using hybridcnn::reliable::ConvSpec;
using hybridcnn::reliable::ExecutionReport;
using hybridcnn::reliable::Executor;
using hybridcnn::reliable::ExecutorStats;
using hybridcnn::reliable::LayerDmrConv2d;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::Qualified;
using hybridcnn::reliable::ReliabilityPolicy;
using hybridcnn::reliable::ReliableConv2d;
using hybridcnn::reliable::ReliableLinear;
using hybridcnn::reliable::ReliableResult;
using hybridcnn::reliable::ReportMode;
using hybridcnn::runtime::ComputeContext;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

// ------------------------------------------------------------- helpers

struct Geometry {
  std::size_t out_c, in_c, k, stride, pad, h, w;
};

// Pad/stride edge cases on purpose: no-pad, pad < k, stride > k, pad
// close to k (border outputs lose most taps), 1x1 kernel, non-square.
const std::vector<Geometry> kGeometries = {
    {4, 3, 3, 2, 1, 13, 13},  //
    {2, 1, 3, 1, 0, 8, 8},    //
    {3, 2, 5, 3, 2, 17, 11},  //
    {1, 1, 3, 1, 1, 3, 3},    //
    {2, 2, 1, 1, 0, 5, 7},    //
    {1, 1, 5, 2, 4, 6, 6},    //
};

ReliableConv2d make_conv(const Geometry& g, ReliabilityPolicy policy = {},
                         std::uint64_t seed = 11) {
  Rng rng(seed);
  Tensor weights(Shape{g.out_c, g.in_c, g.k, g.k});
  weights.fill_normal(rng, 0.0f, 0.5f);
  Tensor bias(Shape{g.out_c});
  bias.fill_normal(rng, 0.0f, 0.1f);
  return {std::move(weights), std::move(bias), ConvSpec{g.stride, g.pad},
          policy};
}

Tensor make_input(const Geometry& g, std::uint64_t seed = 23) {
  Rng rng(seed);
  Tensor input(Shape{g.in_c, g.h, g.w});
  input.fill_normal(rng, 0.0f, 1.0f);
  return input;
}

FaultConfig config_for(FaultKind kind,
                       FaultTarget target = FaultTarget::kResult) {
  FaultConfig cfg;
  cfg.kind = kind;
  cfg.target = target;
  cfg.bit = -1;
  switch (kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kTransient:
      cfg.probability = 2e-3;
      break;
    case FaultKind::kIntermittent:
      cfg.probability = 1e-3;
      cfg.burst_continue = 0.6;
      break;
    case FaultKind::kPermanent:
      // A PE fraction high enough that DMR/TMR runs exercise the abort
      // machinery (bucket exhaustion, failed_op_index).
      cfg.probability = 0.3;
      cfg.num_pes = 8;
      break;
  }
  return cfg;
}

void expect_outputs_bit_identical(const Tensor& a, const Tensor& b) {
  // Element loop for an indexed diagnostic on failure; the shared
  // helper at the end is the authoritative contract check.
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(hybridcnn::faultsim::float_bits(a[i]),
              hybridcnn::faultsim::float_bits(b[i]))
        << "first differing element at flat index " << i;
  }
  ASSERT_TRUE(hybridcnn::tensor::bit_identical(a, b));
}

void expect_reports_equal(const ExecutionReport& a,
                          const ExecutionReport& b) {
  // Field-wise expectations first for readable failure diagnostics; the
  // defaulted operator== at the end guarantees any field added to
  // ExecutionReport later stays covered.
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.scheme, b.scheme);
  EXPECT_EQ(a.logical_ops, b.logical_ops);
  EXPECT_EQ(a.detected_errors, b.detected_errors);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.corrected_errors, b.corrected_errors);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.bucket_peak, b.bucket_peak);
  EXPECT_EQ(a.bucket_exhausted, b.bucket_exhausted);
  EXPECT_EQ(a.failed_op_index, b.failed_op_index);
  EXPECT_TRUE(a == b) << "ExecutionReport field not covered above differs";
}

void expect_stats_equal(const ExecutorStats& a, const ExecutorStats& b) {
  EXPECT_EQ(a.logical_ops, b.logical_ops);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.disagreements, b.disagreements);
}

void expect_injectors_equal(const FaultInjector& a, const FaultInjector& b) {
  EXPECT_EQ(a.stats().executions, b.stats().executions);
  EXPECT_EQ(a.stats().faults, b.stats().faults);
  EXPECT_EQ(a.next_pe(), b.next_pe());
  // Same stream position, not just the same call count: a path that
  // consumed the right number of calls with the wrong draws differs in
  // the next filter() results. Both run on copies, so the injectors under
  // test stay untouched.
  FaultInjector fa = a;
  FaultInjector fb = b;
  int filter_mismatches = 0;
  for (int i = 0; i < 64; ++i) {
    const float v = 0.25f * static_cast<float>(i + 1);
    filter_mismatches += hybridcnn::faultsim::float_bits(fa.filter(v)) !=
                                 hybridcnn::faultsim::float_bits(fb.filter(v))
                             ? 1
                             : 0;
  }
  EXPECT_EQ(filter_mismatches, 0) << "next filter() results differ";
}

void expect_executors_equal(Executor& a, Executor& b) {
  expect_stats_equal(a.stats(), b.stats());
  ASSERT_EQ(a.injector() != nullptr, b.injector() != nullptr);
  if (a.injector() != nullptr) {
    expect_injectors_equal(*a.injector(), *b.injector());
  }
}

// ------------------------------------------- conv: scheme x kind matrix

TEST(StaticDispatchConv, MatchesGenericAcrossSchemesKindsAndGeometries) {
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
          FaultKind::kPermanent}) {
      for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
        SCOPED_TRACE(std::string(scheme) + " kind " +
                     std::to_string(static_cast<int>(kind)) + " geometry " +
                     std::to_string(gi));
        const Geometry& g = kGeometries[gi];
        const ReliableConv2d conv = make_conv(g);
        const Tensor input = make_input(g);
        const FaultConfig cfg = config_for(kind);

        const auto fast_exec = make_executor(
            scheme, std::make_shared<FaultInjector>(cfg, 1000 + gi));
        const auto oracle_exec = make_executor(
            scheme, std::make_shared<FaultInjector>(cfg, 1000 + gi));

        const ReliableResult fast = conv.forward(input, *fast_exec);
        const ReliableResult oracle =
            conv.forward_generic(input, *oracle_exec);

        expect_outputs_bit_identical(fast.output, oracle.output);
        expect_reports_equal(fast.report, oracle.report);
        expect_executors_equal(*fast_exec, *oracle_exec);
      }
    }
  }
}

TEST(StaticDispatchConv, MatchesGenericForOperandTargetedFaults) {
  const Geometry g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  for (const FaultTarget target :
       {FaultTarget::kOperandA, FaultTarget::kOperandB}) {
    SCOPED_TRACE(static_cast<int>(target));
    const FaultConfig cfg = config_for(FaultKind::kTransient, target);
    const auto fast_exec =
        make_executor("dmr", std::make_shared<FaultInjector>(cfg, 7));
    const auto oracle_exec =
        make_executor("dmr", std::make_shared<FaultInjector>(cfg, 7));
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchConv, FaultFreeFastPathWithNullInjector) {
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
    const Geometry& g = kGeometries[0];
    const ReliableConv2d conv = make_conv(g);
    const Tensor input = make_input(g);
    const auto fast_exec = make_executor(scheme, nullptr);
    const auto oracle_exec = make_executor(scheme, nullptr);
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    ASSERT_TRUE(fast.report.ok);
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchConv, FaultFreeFastPathReplaysInjectorCursor) {
  // A non-null injector of kind kNone still counts executions and
  // advances the round-robin PE cursor on every filter() call; the fast
  // path's clean-window grant must consume both in bulk bit-identically.
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
    const Geometry& g = kGeometries[2];
    const ReliableConv2d conv = make_conv(g);
    const Tensor input = make_input(g);
    FaultConfig cfg = config_for(FaultKind::kNone);
    cfg.num_pes = 7;  // prime-ish so the cursor position is interesting
    const auto fast_exec =
        make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
    const auto oracle_exec =
        make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    ASSERT_GT(fast_exec->injector()->stats().executions, 0u);
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchConv, CustomExecutorFallsBackToGenericPath) {
  // An executor scheme the library does not know must keep working
  // through the virtual interface (scheme_kind() defaults to kCustom).
  class CustomExecutor final : public Executor {
   public:
    using Executor::Executor;
    Qualified<float> mul(float a, float b) override {
      ++stats_.logical_ops;
      return {raw_mul(a, b), true};
    }
    Qualified<float> add(float a, float b) override {
      ++stats_.logical_ops;
      return {raw_add(a, b), true};
    }
    [[nodiscard]] std::string name() const override { return "custom"; }
    [[nodiscard]] int redundancy() const override { return 1; }
  };

  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  CustomExecutor exec(nullptr);
  const ReliableResult result = conv.forward(input, exec);
  ASSERT_TRUE(result.report.ok);
  EXPECT_EQ(result.report.scheme, "custom");
  expect_outputs_bit_identical(result.output, conv.reference_forward(input));
  EXPECT_EQ(exec.stats().logical_ops, 2 * conv.mac_count(input.shape()));
}

TEST(StaticDispatchConv, MacCountClosedFormMatchesTapWalk) {
  for (const Geometry& g : kGeometries) {
    const ReliableConv2d conv = make_conv(g);
    const Shape in{g.in_c, g.h, g.w};
    const Shape out = conv.output_shape(in);
    // Reference: the original O(out_h*out_w*kh*kw) tap walk.
    std::uint64_t macs = 0;
    for (std::size_t oy = 0; oy < out[1]; ++oy) {
      for (std::size_t ox = 0; ox < out[2]; ++ox) {
        std::uint64_t taps = 0;
        for (std::size_t ky = 0; ky < g.k; ++ky) {
          const auto iy = static_cast<std::int64_t>(oy * g.stride + ky) -
                          static_cast<std::int64_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::int64_t>(g.h)) continue;
          for (std::size_t kx = 0; kx < g.k; ++kx) {
            const auto ix = static_cast<std::int64_t>(ox * g.stride + kx) -
                            static_cast<std::int64_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::int64_t>(g.w)) continue;
            ++taps;
          }
        }
        macs += taps * g.in_c;
      }
    }
    macs *= out[0];
    EXPECT_EQ(conv.mac_count(in), macs)
        << "geometry k=" << g.k << " stride=" << g.stride
        << " pad=" << g.pad;
  }
}

// ------------------------------------------------------ linear kernels

TEST(StaticDispatchLinear, MatchesGenericAcrossSchemesAndKinds) {
  Rng rng(5);
  Tensor weights(Shape{6, 17});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{6});
  bias.fill_normal(rng, 0.0f, 0.1f);
  const ReliableLinear linear(weights, bias);
  Tensor input(Shape{17});
  input.fill_normal(rng, 0.0f, 1.0f);

  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
          FaultKind::kPermanent}) {
      SCOPED_TRACE(std::string(scheme) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      FaultConfig cfg = config_for(kind);
      if (kind == FaultKind::kTransient) {
        cfg.probability = 0.02;  // few hundred ops: keep faults likely
      }
      const auto fast_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 31));
      const auto oracle_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 31));
      const ReliableResult fast = linear.forward(input, *fast_exec);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);
      expect_outputs_bit_identical(fast.output, oracle.output);
      expect_reports_equal(fast.report, oracle.report);
      expect_executors_equal(*fast_exec, *oracle_exec);
    }
  }
}

TEST(StaticDispatchLinear, FaultFreeFastPathMatchesReference) {
  Rng rng(9);
  Tensor weights(Shape{4, 12});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{4});
  bias.fill_normal(rng, 0.0f, 0.1f);
  const ReliableLinear linear(weights, bias);
  Tensor input(Shape{12});
  input.fill_normal(rng, 0.0f, 1.0f);

  const auto exec = make_executor("dmr", nullptr);
  const ReliableResult result = linear.forward(input, *exec);
  ASSERT_TRUE(result.report.ok);
  expect_outputs_bit_identical(result.output,
                               linear.reference_forward(input));
  EXPECT_EQ(result.report.logical_ops, 2u * 4 * 12);
  EXPECT_EQ(result.report.commits, result.report.logical_ops);
  EXPECT_EQ(exec->stats().executions, 2u * result.report.logical_ops);
}

// ----------------------------------------------------------- layer DMR

TEST(StaticDispatchLayerDmr, MatchesGenericFaultFreeAndFaulty) {
  const Geometry& g = kGeometries[0];
  const ReliableConv2d ref = make_conv(g);
  ReliabilityPolicy policy;
  policy.max_retries_per_op = 64;
  policy.bucket_ceiling = 200;
  const LayerDmrConv2d layer(ref.weights(), ref.bias(), ref.spec(), policy);
  const Tensor input = make_input(g);

  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kTransient, FaultKind::kPermanent}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const FaultConfig cfg = config_for(kind);
    const auto fast_exec =
        make_executor("simplex", std::make_shared<FaultInjector>(cfg, 77));
    const auto oracle_exec =
        make_executor("simplex", std::make_shared<FaultInjector>(cfg, 77));
    const ReliableResult fast = layer.forward(input, *fast_exec);
    const ReliableResult oracle = layer.forward_generic(input, *oracle_exec);
    expect_outputs_bit_identical(fast.output, oracle.output);
    expect_reports_equal(fast.report, oracle.report);
    expect_executors_equal(*fast_exec, *oracle_exec);
  }
}

TEST(StaticDispatchLayerDmr, FaultFreeFastPathMatchesReference) {
  const Geometry& g = kGeometries[1];
  const ReliableConv2d ref = make_conv(g);
  const LayerDmrConv2d layer(ref.weights(), ref.bias(), ref.spec());
  const Tensor input = make_input(g);
  const auto exec = make_executor("simplex", nullptr);
  const ReliableResult result = layer.forward(input, *exec);
  ASSERT_TRUE(result.report.ok);
  expect_outputs_bit_identical(result.output, ref.reference_forward(input));
  // Two unqualified layer passes, two logical ops per MAC each.
  EXPECT_EQ(result.report.logical_ops,
            4 * ref.mac_count(input.shape()));
  EXPECT_EQ(exec->stats().logical_ops, result.report.logical_ops);
  EXPECT_EQ(result.report.commits, 1u);
}

// ------------------------------------------ campaigns: 1/2/8 threads

CampaignSummary dispatch_campaign(const ReliableConv2d& conv,
                                  const Tensor& input, const Tensor& golden,
                                  const char* scheme, std::size_t runs,
                                  bool generic) {
  const auto make_exec = [&](std::size_t run) {
    FaultConfig cfg = config_for(FaultKind::kTransient);
    cfg.probability = 5e-4;
    return make_executor(scheme,
                         std::make_shared<FaultInjector>(cfg, 4000 + run));
  };
  const auto classify = [&](std::size_t, const ReliableResult& result,
                            Executor& exec) {
    return hybridcnn::faultsim::classify(exec.injector()->stats().faults > 0,
                                         !result.report.ok,
                                         result.output == golden);
  };
  if (!generic) {
    return conv.forward_campaign(input, runs, make_exec, classify);
  }
  return hybridcnn::faultsim::run_campaign(runs, [&](std::size_t run) {
    const auto exec = make_exec(run);
    const ReliableResult result = conv.forward_generic(input, *exec);
    return classify(run, result, *exec);
  });
}

// -------------------------------------------- report-free statistics mode

void expect_stats_only_report(const ExecutionReport& lean,
                              const ExecutionReport& full) {
  // kStatsOnly contract: ok/stage/scheme carry the verdict, every
  // numeric counter stays at its default.
  EXPECT_EQ(lean.ok, full.ok);
  EXPECT_EQ(lean.stage, full.stage);
  EXPECT_EQ(lean.scheme, full.scheme);
  EXPECT_EQ(lean.logical_ops, 0u);
  EXPECT_EQ(lean.detected_errors, 0u);
  EXPECT_EQ(lean.retries, 0u);
  EXPECT_EQ(lean.corrected_errors, 0u);
  EXPECT_EQ(lean.commits, 0u);
  EXPECT_EQ(lean.rollbacks, 0u);
  EXPECT_EQ(lean.bucket_peak, 0u);
  EXPECT_FALSE(lean.bucket_exhausted);
  EXPECT_EQ(lean.failed_op_index, -1);
}

TEST(StatsOnlyMode, ConvKeepsBitsVerdictAndExecutorState) {
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const FaultKind kind :
         {FaultKind::kNone, FaultKind::kTransient, FaultKind::kPermanent}) {
      SCOPED_TRACE(std::string(scheme) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      const Geometry& g = kGeometries[0];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);
      const FaultConfig cfg = config_for(kind);

      const auto lean_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 555));
      const auto full_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 555));
      const ReliableResult lean =
          conv.forward(input, *lean_exec, ReportMode::kStatsOnly);
      const ReliableResult full =
          conv.forward(input, *full_exec, ReportMode::kFull);

      expect_outputs_bit_identical(lean.output, full.output);
      expect_stats_only_report(lean.report, full.report);
      expect_executors_equal(*lean_exec, *full_exec);
    }
  }
}

TEST(StatsOnlyMode, LinearKeepsBitsVerdictAndExecutorState) {
  Rng rng(5);
  Tensor weights(Shape{6, 17});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{6});
  bias.fill_normal(rng, 0.0f, 0.1f);
  const ReliableLinear linear(weights, bias);
  Tensor input(Shape{17});
  input.fill_normal(rng, 0.0f, 1.0f);

  for (const FaultKind kind : {FaultKind::kNone, FaultKind::kPermanent}) {
    SCOPED_TRACE(static_cast<int>(kind));
    FaultConfig cfg = config_for(kind);
    const auto lean_exec =
        make_executor("dmr", std::make_shared<FaultInjector>(cfg, 77));
    const auto full_exec =
        make_executor("dmr", std::make_shared<FaultInjector>(cfg, 77));
    const ReliableResult lean =
        linear.forward(input, *lean_exec, ReportMode::kStatsOnly);
    const ReliableResult full =
        linear.forward(input, *full_exec, ReportMode::kFull);
    expect_outputs_bit_identical(lean.output, full.output);
    expect_stats_only_report(lean.report, full.report);
    expect_executors_equal(*lean_exec, *full_exec);
  }
}

TEST(StatsOnlyMode, CampaignSummariesMatchFullReports) {
  // A campaign judged only on report.ok and output bits must reduce to
  // the same summary in both modes — that is the whole point of the
  // report-free sweep.
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  const Tensor golden = conv.reference_forward(input);
  constexpr std::size_t kRuns = 24;

  const auto make_exec = [&](std::size_t run) {
    FaultConfig cfg = config_for(FaultKind::kTransient);
    cfg.probability = 5e-4;
    return make_executor("dmr",
                         std::make_shared<FaultInjector>(cfg, 9000 + run));
  };
  const auto classify = [&](std::size_t, const ReliableResult& result,
                            Executor& exec) {
    return hybridcnn::faultsim::classify(exec.injector()->stats().faults > 0,
                                         !result.report.ok,
                                         result.output == golden);
  };
  const CampaignSummary full = conv.forward_campaign(
      input, kRuns, make_exec, classify, ReportMode::kFull);
  const CampaignSummary lean = conv.forward_campaign(
      input, kRuns, make_exec, classify, ReportMode::kStatsOnly);
  EXPECT_EQ(full.runs, lean.runs);
  EXPECT_EQ(full.correct, lean.correct);
  EXPECT_EQ(full.corrected, lean.corrected);
  EXPECT_EQ(full.detected_abort, lean.detected_abort);
  EXPECT_EQ(full.silent_corruption, lean.silent_corruption);
}

TEST(StaticDispatchCampaign, SummariesMatchGenericAtEveryThreadCount) {
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  const Tensor golden = conv.reference_forward(input);
  constexpr std::size_t kRuns = 24;

  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    SCOPED_TRACE(scheme);
    std::vector<CampaignSummary> summaries;
    for (const std::size_t threads : {1u, 2u, 8u}) {
      ComputeContext::set_global_threads(threads);
      summaries.push_back(
          dispatch_campaign(conv, input, golden, scheme, kRuns, false));
      summaries.push_back(
          dispatch_campaign(conv, input, golden, scheme, kRuns, true));
    }
    ComputeContext::set_global_threads(1);
    for (std::size_t i = 1; i < summaries.size(); ++i) {
      EXPECT_EQ(summaries[0].runs, summaries[i].runs);
      EXPECT_EQ(summaries[0].correct, summaries[i].correct);
      EXPECT_EQ(summaries[0].corrected, summaries[i].corrected);
      EXPECT_EQ(summaries[0].detected_abort, summaries[i].detected_abort);
      EXPECT_EQ(summaries[0].silent_corruption,
                summaries[i].silent_corruption);
    }
  }
}

// ------------------------------- windowed path: bit-identity matrix

// Layers of the matrix: the conv geometries above plus sign96 conv1
// (3->8, 7x7, s2) on a small input, the qualifier's Sobel (1->2, 3x3,
// s1, p1) and a single-output conv (1x1 output, one map), linear layers
// with ten outputs and with one, and layer-granular DMR. The `nan`
// layers feed inputs with two different NaN payloads in one receptive
// field, and the `nanw` layers hold them in their weights. `fast` is the
// dispatched forward (with its report mode), `oracle` the per-op generic
// path, `unit_starts` the flat op index each output's ops start at (in
// one pass, for layer DMR), to tell an abort in the middle of an output
// from one at its first op, and one in the last output, and `ops` the op
// count of one forward (one pass). A `nanw` layer runs per-op in every
// cell, so it runs only in the fault-free cells, which catch a gate that
// ignores the NaN-weight flag, and in one armed cell (see runs_in_cell).
// `family` names the layers whose fault-to-fault walk the matrix must be
// seen to cover (see WalkCoverage); `unqualified` marks layer DMR, whose
// passes retry whole layers, not ops.
struct WindowedLayer {
  std::string name;
  std::function<ReliableResult(Executor&, ReportMode)> fast;
  std::function<ReliableResult(Executor&)> oracle;
  bool has_report_mode = true;
  std::vector<std::int64_t> unit_starts;
  std::int64_t ops = 0;
  bool nan_weights = false;
  std::string family;
  bool unqualified = false;
};

/// Flat op index each output pixel's ops start at, and the total, last.
std::vector<std::int64_t> conv_unit_starts(const ReliableConv2d& conv,
                                           const Shape& in) {
  const Shape out = conv.output_shape(in);
  const std::size_t k = conv.weights().shape()[2];
  const std::size_t stride = conv.spec().stride;
  const std::size_t pad = conv.spec().pad;
  const auto valid = [&](std::size_t o, std::size_t n) {
    std::int64_t count = 0;
    for (std::size_t t = 0; t < k; ++t) {
      const auto i = static_cast<std::int64_t>(o * stride + t) -
                     static_cast<std::int64_t>(pad);
      if (i >= 0 && i < static_cast<std::int64_t>(n)) ++count;
    }
    return count;
  };
  std::vector<std::int64_t> starts;
  std::int64_t at = 0;
  for (std::size_t o = 0; o < out[0]; ++o) {
    for (std::size_t oy = 0; oy < out[1]; ++oy) {
      for (std::size_t ox = 0; ox < out[2]; ++ox) {
        starts.push_back(at);
        at += 2 * static_cast<std::int64_t>(in[0]) * valid(oy, in[1]) *
              valid(ox, in[2]);
      }
    }
  }
  starts.push_back(at);
  return starts;
}

/// Writes two different quiet-NaN payloads, one of them negative, into
/// adjacent elements from `at` on, so one receptive field holds both.
void plant_nans(Tensor& t, std::size_t at) {
  t[at] = hybridcnn::faultsim::bits_float(0x7FC00001u);
  t[at + 1] = hybridcnn::faultsim::bits_float(0xFFC0BEEFu);
}

/// Where a matrix layer holds its two NaN payloads, if anywhere.
enum class NanSite { kNone, kInput, kWeights };

WindowedLayer conv_layer(const std::string& name, const Geometry& g,
                         NanSite nan, const std::string& family = "") {
  const ReliableConv2d made = make_conv(g);
  Tensor weights = made.weights();
  // Two adjacent taps of the first map's first row.
  if (nan == NanSite::kWeights) plant_nans(weights, 0);
  auto conv = std::make_shared<ReliableConv2d>(weights, made.bias(),
                                               made.spec(), made.policy());
  auto input = std::make_shared<Tensor>(make_input(g));
  if (nan == NanSite::kInput) plant_nans(*input, (g.h / 2) * g.w + g.w / 2);
  std::vector<std::int64_t> starts = conv_unit_starts(*conv, input->shape());
  const std::int64_t ops = starts.back();
  starts.pop_back();
  return {name,
          [conv, input](Executor& e, ReportMode m) {
            return conv->forward(*input, e, m);
          },
          [conv, input](Executor& e) {
            return conv->forward_generic(*input, e);
          },
          true,
          std::move(starts),
          ops,
          nan == NanSite::kWeights,
          family};
}

WindowedLayer linear_layer(const std::string& name, std::size_t out_n,
                           NanSite nan, const std::string& family = "") {
  constexpr std::size_t kIn = 37;
  Rng rng(5);
  Tensor weights(Shape{out_n, kIn});
  weights.fill_normal(rng, 0.0f, 0.4f);
  if (nan == NanSite::kWeights) plant_nans(weights, 11);
  Tensor bias(Shape{out_n});
  bias.fill_normal(rng, 0.0f, 0.1f);
  auto linear = std::make_shared<ReliableLinear>(weights, bias);
  auto vec = std::make_shared<Tensor>(Shape{kIn});
  vec->fill_normal(rng, 0.0f, 1.0f);
  if (nan == NanSite::kInput) plant_nans(*vec, 11);
  std::vector<std::int64_t> neuron_starts;
  for (std::size_t o = 0; o < out_n; ++o) {
    neuron_starts.push_back(static_cast<std::int64_t>(2 * kIn * o));
  }
  return {name,
          [linear, vec](Executor& e, ReportMode m) {
            return linear->forward(*vec, e, m);
          },
          [linear, vec](Executor& e) {
            return linear->forward_generic(*vec, e);
          },
          true,
          neuron_starts,
          static_cast<std::int64_t>(2 * kIn * out_n),
          nan == NanSite::kWeights,
          family};
}

std::vector<WindowedLayer> windowed_layers() {
  const Geometry sign96_conv1{8, 3, 7, 2, 0, 19, 19};
  const Geometry sobel{2, 1, 3, 1, 1, 16, 16};
  std::vector<WindowedLayer> layers;
  std::vector<Geometry> convs = kGeometries;
  convs.push_back(sign96_conv1);
  convs.push_back(sobel);
  convs.push_back({1, 3, 3, 1, 0, 3, 3});  // one output pixel
  const std::size_t conv1_at = kGeometries.size();
  for (std::size_t gi = 0; gi < convs.size(); ++gi) {
    layers.push_back(conv_layer("conv" + std::to_string(gi), convs[gi],
                                NanSite::kNone,
                                gi == conv1_at       ? "conv1"
                                : gi == conv1_at + 1 ? "sobel"
                                                     : ""));
  }
  layers.push_back(
      conv_layer("sign96_conv1_nan", sign96_conv1, NanSite::kInput));
  layers.push_back(conv_layer("sobel_nan", sobel, NanSite::kInput));
  const Geometry conv1_13{8, 3, 7, 2, 0, 13, 13};
  layers.push_back(conv_layer("conv1_13_nanw", conv1_13, NanSite::kWeights));
  layers.push_back(conv_layer("sobel_nanw", sobel, NanSite::kWeights));
  layers.push_back(linear_layer("linear", 10, NanSite::kNone, "linear"));
  layers.push_back(
      linear_layer("linear_out1", 1, NanSite::kNone, "linear"));
  layers.push_back(linear_layer("linear_nan", 10, NanSite::kInput));
  layers.push_back(linear_layer("linear_nanw", 10, NanSite::kWeights));

  // A loose bucket lets whole-layer retries run up to the retry cap.
  ReliabilityPolicy loose;
  loose.max_retries_per_op = 6;
  loose.bucket_ceiling = 200;
  for (const auto& [g, policy, nan] :
       {std::tuple{kGeometries[0], loose, NanSite::kNone},
        std::tuple{conv1_13, ReliabilityPolicy{}, NanSite::kNone},
        std::tuple{kGeometries[0], ReliabilityPolicy{}, NanSite::kWeights}}) {
    const ReliableConv2d ref = make_conv(g);
    Tensor weights = ref.weights();
    if (nan == NanSite::kWeights) plant_nans(weights, 0);
    auto layer = std::make_shared<LayerDmrConv2d>(weights, ref.bias(),
                                                  ref.spec(), policy);
    auto input = std::make_shared<Tensor>(make_input(g));
    std::vector<std::int64_t> starts = conv_unit_starts(ref, input->shape());
    const std::int64_t pass_ops = starts.back();
    starts.pop_back();
    layers.push_back({"layer_dmr" + std::to_string(g.out_c) +
                          (nan == NanSite::kWeights ? "_nanw" : ""),
                      [layer, input](Executor& e, ReportMode) {
                        return layer->forward(*input, e);
                      },
                      [layer, input](Executor& e) {
                        return layer->forward_generic(*input, e);
                      },
                      false,
                      std::move(starts),
                      pass_ops,
                      nan == NanSite::kWeights,
                      nan == NanSite::kWeights ? "" : "layer_dmr",
                      true});
  }
  return layers;
}

struct MatrixFault {
  FaultKind kind;
  FaultTarget target;
  double probability;
  int bit;
};

std::vector<MatrixFault> matrix_faults() {
  std::vector<MatrixFault> faults;
  for (const FaultKind kind :
       {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
        FaultKind::kPermanent}) {
    for (const FaultTarget target : {FaultTarget::kResult,
                                     FaultTarget::kOperandA,
                                     FaultTarget::kOperandB}) {
      for (const double p : {0.0, 1e-6, 1e-4, 2e-3, 0.3, 1.0}) {
        for (const int bit : {-1, 22}) {
          faults.push_back({kind, target, p, bit});
        }
      }
    }
  }
  return faults;
}

/// True if `layer` runs in the matrix cell of fault `f`: every layer
/// does, except that a `nanw` layer runs only where no fault can fire
/// and in one transient cell.
bool runs_in_cell(const WindowedLayer& layer, const MatrixFault& f) {
  if (!layer.nan_weights) return true;
  const bool fault_free = f.kind == FaultKind::kNone || f.probability == 0.0;
  return fault_free ||
         (f.kind == FaultKind::kTransient && f.target == FaultTarget::kResult &&
          f.probability == 1e-4 && f.bit == -1);
}

std::shared_ptr<FaultInjector> matrix_injector(const MatrixFault& f,
                                               std::uint64_t seed) {
  FaultConfig cfg;
  cfg.kind = f.kind;
  cfg.target = f.target;
  cfg.probability = f.probability;
  cfg.bit = f.bit;
  cfg.num_pes = 16;
  cfg.burst_continue = 0.6;
  return std::make_shared<FaultInjector>(cfg, seed);
}

std::string fault_label(const MatrixFault& f) {
  return "kind " + std::to_string(static_cast<int>(f.kind)) + " target " +
         std::to_string(static_cast<int>(f.target)) + " p " +
         std::to_string(f.probability) + " bit " + std::to_string(f.bit);
}

/// Where faults land, traced on the per-op oracle: forwards to a library
/// executor and records the op index of every mul/add call during which
/// its injector fired. In a qualified forward a call that follows a
/// failed one retries the same op; an unqualified pass never retries, so
/// there every call is the next op (counted on across passes).
class FaultTrace final : public Executor {
 public:
  FaultTrace(Executor& inner, bool unqualified)
      : Executor(nullptr),
        exec_(inner),
        faults_(inner.injector()->stats().faults),
        unqualified_(unqualified) {}

  // Plain calls and a cached reference to the fault count keep the trace
  // cheap in unoptimised sanitizer builds.
  Qualified<float> mul(float a, float b) override {
    const std::uint64_t before = start_op();
    return record(exec_.mul(a, b), before);
  }
  Qualified<float> add(float a, float b) override {
    const std::uint64_t before = start_op();
    return record(exec_.add(a, b), before);
  }
  [[nodiscard]] std::string name() const override { return exec_.name(); }
  [[nodiscard]] int redundancy() const override { return exec_.redundancy(); }

  /// Ops a fault landed on, ascending, without repeats.
  [[nodiscard]] const std::vector<std::int64_t>& faulty_ops() const {
    return faulty_;
  }

 private:
  std::uint64_t start_op() {
    if (unqualified_ || last_ok_) ++op_;
    return faults_;
  }
  Qualified<float> record(Qualified<float> q, std::uint64_t faults_before) {
    if (faults_ != faults_before && last_faulty_ != op_) {
      faulty_.push_back(op_);
      last_faulty_ = op_;
    }
    last_ok_ = q.ok;
    return q;
  }

  Executor& exec_;
  const std::uint64_t& faults_;  ///< the inner injector's fault count
  bool unqualified_;
  std::int64_t op_ = -1;
  std::int64_t last_faulty_ = -1;
  bool last_ok_ = true;
  std::vector<std::int64_t> faulty_;
};

/// The fault-to-fault walk's boundary cases one oracle run reaches. Every
/// op no fault lands on is granted, so a faulty op whose predecessor is
/// clean is where a credit runs out.
struct WalkCoverage {
  std::uint64_t credit_ends_on_mul = 0;  ///< the fault lands on a tap's add
  std::uint64_t fault_on_first_op = 0;   ///< of a pixel or neuron
  std::uint64_t fault_on_last_op = 0;
  std::uint64_t abort_after_grant = 0;  ///< on the op right after a grant

  WalkCoverage& operator+=(const WalkCoverage& o) {
    credit_ends_on_mul += o.credit_ends_on_mul;
    fault_on_first_op += o.fault_on_first_op;
    fault_on_last_op += o.fault_on_last_op;
    abort_after_grant += o.abort_after_grant;
    return *this;
  }
};

WalkCoverage walk_coverage(const WindowedLayer& layer, const FaultTrace& trace,
                           const ExecutionReport& report) {
  WalkCoverage cov;
  const std::vector<std::int64_t>& faulty = trace.faulty_ops();
  const std::vector<std::int64_t>& starts = layer.unit_starts;
  // Faulty ops ascend, so the unit each lands in only moves forward
  // within a pass.
  std::size_t unit = 0;
  for (std::size_t i = 0; i < faulty.size(); ++i) {
    const std::int64_t op = faulty[i];
    const bool after_clean = op > 0 && (i == 0 || faulty[i - 1] != op - 1);
    const std::int64_t at = op % layer.ops;  // op index within its pass
    if (at < starts[unit]) unit = 0;         // the next pass
    while (unit + 1 < starts.size() && starts[unit + 1] <= at) ++unit;
    const std::int64_t end =
        unit + 1 < starts.size() ? starts[unit + 1] : layer.ops;
    if ((at - starts[unit]) % 2 == 1 && after_clean) {
      ++cov.credit_ends_on_mul;
    }
    if (at == starts[unit]) ++cov.fault_on_first_op;
    if (at == end - 1) ++cov.fault_on_last_op;
  }
  const std::int64_t failed = report.failed_op_index;
  if (!layer.unqualified && !report.ok && failed > 0 &&
      !std::binary_search(faulty.begin(), faulty.end(), failed - 1)) {
    ++cov.abort_after_grant;
  }
  return cov;
}

TEST(WindowedPath, ForwardMatchesPerOpOracleAcrossTheMatrix) {
  const std::vector<WindowedLayer> layers = windowed_layers();
  const std::vector<MatrixFault> faults = matrix_faults();
  const std::vector<const char*> schemes = {"simplex", "dmr", "tmr"};
  // The oracle does not depend on the thread count: run it once per cell.
  struct OracleCell {
    ReliableResult result;
    std::unique_ptr<Executor> exec;
    WalkCoverage coverage;
  };
  std::vector<OracleCell> oracles;
  std::uint64_t mid_unit_aborts = 0;
  std::uint64_t last_unit_aborts = 0;
  std::uint64_t faulted_but_ok = 0;
  for (const char* scheme : schemes) {
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
      for (const WindowedLayer& layer : layers) {
        if (!runs_in_cell(layer, faults[fi])) continue;
        auto exec = make_executor(scheme, matrix_injector(faults[fi], fi));
        ReliableResult result;
        WalkCoverage coverage;
        if (layer.family.empty()) {
          result = layer.oracle(*exec);
        } else {
          FaultTrace trace(*exec, layer.unqualified);
          result = layer.oracle(trace);
          coverage = walk_coverage(layer, trace, result.report);
        }
        if (!result.report.ok && !layer.unqualified &&
            !std::binary_search(layer.unit_starts.begin(),
                                layer.unit_starts.end(),
                                result.report.failed_op_index)) {
          ++mid_unit_aborts;
        }
        if (!result.report.ok && !layer.unqualified &&
            result.report.failed_op_index >= layer.unit_starts.back()) {
          ++last_unit_aborts;
        }
        if (result.report.ok && exec->injector()->stats().faults > 0) {
          ++faulted_but_ok;
        }
        oracles.push_back({std::move(result), std::move(exec), coverage});
      }
    }
  }
  // The matrix must reach the paths it claims to cover.
  EXPECT_GT(mid_unit_aborts, 0u);
  EXPECT_GT(last_unit_aborts, 0u);
  EXPECT_GT(faulted_but_ok, 0u);
  // Walk coverage, summed over the cells each family ran in per mode.
  std::map<std::pair<std::string, ReportMode>, WalkCoverage> walk;

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    std::size_t cell = 0;
    for (const char* scheme : schemes) {
      for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        for (const WindowedLayer& layer : layers) {
          if (!runs_in_cell(layer, faults[fi])) continue;
          const OracleCell& oracle = oracles[cell++];
          SCOPED_TRACE(std::string(scheme) + " " + fault_label(faults[fi]) +
                       " " + layer.name + " threads " +
                       std::to_string(threads));
          for (const ReportMode mode :
               {ReportMode::kFull, ReportMode::kStatsOnly}) {
            if (!layer.has_report_mode && mode == ReportMode::kStatsOnly) {
              continue;
            }
            SCOPED_TRACE(mode == ReportMode::kFull ? "full" : "stats-only");
            const auto exec =
                make_executor(scheme, matrix_injector(faults[fi], fi));
            const ReliableResult fast = layer.fast(*exec, mode);
            expect_outputs_bit_identical(fast.output, oracle.result.output);
            if (mode == ReportMode::kFull) {
              expect_reports_equal(fast.report, oracle.result.report);
            } else {
              expect_stats_only_report(fast.report, oracle.result.report);
            }
            expect_executors_equal(*exec, *oracle.exec);
            if (HasFailure()) {
              ComputeContext::set_global_threads(1);
              return;  // one diagnosed cell beats thousands of repeats
            }
            if (threads == 1 && !layer.family.empty()) {
              walk[{layer.family, mode}] += oracle.coverage;
            }
          }
        }
      }
    }
  }
  ComputeContext::set_global_threads(1);
  // The matrix must reach each boundary of the walk on conv1, the Sobel,
  // linear and layer DMR, in every report mode they run in. Layer DMR
  // aborts whole layers, never on an op.
  for (const std::string family : {"conv1", "sobel", "linear", "layer_dmr"}) {
    for (const ReportMode mode : {ReportMode::kFull, ReportMode::kStatsOnly}) {
      if (family == "layer_dmr" && mode == ReportMode::kStatsOnly) continue;
      SCOPED_TRACE(family +
                   (mode == ReportMode::kFull ? " full" : " stats-only"));
      const WalkCoverage& cov = walk[{family, mode}];
      EXPECT_GT(cov.credit_ends_on_mul, 0u);
      EXPECT_GT(cov.fault_on_first_op, 0u);
      EXPECT_GT(cov.fault_on_last_op, 0u);
      if (family != "layer_dmr") {
        EXPECT_GT(cov.abort_after_grant, 0u);
      }
    }
  }
}

TEST(WindowedPath, NanWeightFlagFollowsSetWeights) {
  // The NaN-weight flag is recorded per weight generation: set_weights
  // raises and clears it, and a flagged fault-free forward equals the
  // per-op oracle bit for bit.
  const Geometry sobel{2, 1, 3, 1, 1, 16, 16};
  ReliableConv2d conv = make_conv(sobel);
  const Tensor clean = conv.weights();
  Tensor nan = clean;
  plant_nans(nan, 0);
  const Tensor input = make_input(sobel);
  EXPECT_FALSE(conv.params_hold_nan());
  conv.set_weights(nan);
  EXPECT_TRUE(conv.params_hold_nan());
  const auto fast_exec = make_executor("dmr", nullptr);
  const auto oracle_exec = make_executor("dmr", nullptr);
  expect_outputs_bit_identical(conv.forward(input, *fast_exec).output,
                               conv.forward_generic(input, *oracle_exec).output);
  conv.set_weights(clean);
  EXPECT_FALSE(conv.params_hold_nan());

  ReliableLinear linear(Tensor(Shape{2, 4}, 0.5f), Tensor(Shape{2}, 0.0f));
  Tensor linear_nan(Shape{2, 4}, 0.5f);
  plant_nans(linear_nan, 1);
  EXPECT_FALSE(linear.params_hold_nan());
  linear.set_weights(linear_nan);
  EXPECT_TRUE(linear.params_hold_nan());
  linear.set_weights(Tensor(Shape{2, 4}, 0.5f));
  EXPECT_FALSE(linear.params_hold_nan());
}

TEST(WindowedPath, CampaignMatchesPerOpOracleAtEveryThreadCount) {
  // forward_campaign runs the windowed forward from pool workers; every
  // run must equal the serial per-op oracle for the same seed.
  std::vector<Geometry> convs = {kGeometries[0], {8, 3, 7, 2, 0, 19, 19},
                                 {2, 1, 3, 1, 1, 16, 16}};
  constexpr std::size_t kRuns = 6;
  for (const Geometry& g : convs) {
    const ReliableConv2d conv = make_conv(g);
    const Tensor input = make_input(g);
    for (const char* scheme : {"simplex", "dmr", "tmr"}) {
      for (const FaultKind kind :
           {FaultKind::kNone, FaultKind::kTransient, FaultKind::kIntermittent,
            FaultKind::kPermanent}) {
        for (const double p : {0.0, 1e-6, 1e-4, 2e-3, 0.3, 1.0}) {
          const MatrixFault f{kind, FaultTarget::kResult, p, -1};
          SCOPED_TRACE(std::string(scheme) + " " + fault_label(f) +
                       " out_c " + std::to_string(g.out_c));
          std::vector<ReliableResult> oracle;
          std::vector<std::unique_ptr<Executor>> oracle_execs;
          for (std::size_t run = 0; run < kRuns; ++run) {
            oracle_execs.push_back(
                make_executor(scheme, matrix_injector(f, 500 + run)));
            oracle.push_back(conv.forward_generic(input, *oracle_execs.back()));
          }
          for (const std::size_t threads : {1u, 2u, 8u}) {
            for (const ReportMode mode :
                 {ReportMode::kFull, ReportMode::kStatsOnly}) {
              ComputeContext::set_global_threads(threads);
              std::vector<ReliableResult> got(kRuns);
              std::vector<ExecutorStats> stats(kRuns);
              std::vector<std::optional<FaultInjector>> injectors(kRuns);
              (void)conv.forward_campaign(
                  input, kRuns,
                  [&](std::size_t run) {
                    return make_executor(scheme,
                                         matrix_injector(f, 500 + run));
                  },
                  [&](std::size_t run, const ReliableResult& result,
                      Executor& exec) {
                    got[run] = result;
                    stats[run] = exec.stats();
                    injectors[run] = *exec.injector();
                    return hybridcnn::faultsim::Outcome::kCorrect;
                  },
                  mode);
              ComputeContext::set_global_threads(1);
              for (std::size_t run = 0; run < kRuns; ++run) {
                SCOPED_TRACE("threads " + std::to_string(threads) + " run " +
                             std::to_string(run));
                expect_outputs_bit_identical(got[run].output,
                                             oracle[run].output);
                if (mode == ReportMode::kFull) {
                  expect_reports_equal(got[run].report, oracle[run].report);
                } else {
                  expect_stats_only_report(got[run].report,
                                           oracle[run].report);
                }
                expect_stats_equal(stats[run], oracle_execs[run]->stats());
                expect_injectors_equal(*injectors[run],
                                       *oracle_execs[run]->injector());
              }
              if (HasFailure()) return;
            }
          }
        }
      }
    }
  }
}

}  // namespace
