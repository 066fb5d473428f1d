// SIMD fast-path bit-identity contract: the vectorized fault-free conv
// kernels (channel lanes and pixel lanes, reliable/static_dispatch.hpp
// over runtime/isa.hpp) must produce the same output bits, reports and
// executor/injector state as the generic virtual-dispatch oracle — across
// schemes, geometries and thread counts. The conv's shape picks the
// kernel, so each kernel is reached through geometry: channel lanes
// through strided convs (and wide ones), pixel lanes through stride-1
// convs with few maps, narrow interiors included. Armed injectors must
// bypass the vector path entirely (it exists only where no fault can be
// injected), which the faulty cases here pin down.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "faultsim/bitflip.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/injector.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "reliable/reliable_linear.hpp"
#include "reliable/static_dispatch.hpp"
#include "runtime/compute_context.hpp"
#include "runtime/isa.hpp"
#include "util/rng.hpp"

namespace {

using hybridcnn::faultsim::CampaignSummary;
using hybridcnn::faultsim::FaultConfig;
using hybridcnn::faultsim::FaultInjector;
using hybridcnn::faultsim::FaultKind;
using hybridcnn::reliable::ConvSpec;
using hybridcnn::reliable::Executor;
using hybridcnn::reliable::make_executor;
using hybridcnn::reliable::ReliableConv2d;
using hybridcnn::reliable::ReliableLinear;
using hybridcnn::reliable::ReliableResult;
using hybridcnn::reliable::detail::ConvPlan;
using hybridcnn::reliable::detail::WeightPack;
using hybridcnn::runtime::ComputeContext;
using hybridcnn::runtime::isa::kFloatLanes;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

struct Geometry {
  std::size_t out_c, in_c, k, stride, pad, h, w;
  const char* kernel;  ///< the kernel the rule picks at any vector width
};

// Every expected kernel holds at every vector width (4, 8 or 16 lanes):
// the "few maps" geometries have out_c <= 3, below any lane count, so the
// strided ones reach channel lanes with a masked tail store and the
// stride-1 ones reach pixel lanes. Pad variants put border pixels on both
// sides of the pixel-lane blocks; interior widths leave lane remainders.
const std::vector<Geometry> kGeometries = {
    {3, 2, 5, 2, 2, 30, 50, "channel"},  // stride 2, padded, tail lanes
    {2, 3, 7, 2, 0, 40, 48, "channel"},  // sign96-conv1-like valid conv
    {1, 3, 5, 4, 1, 25, 45, "channel"},  // stride 4, one map
    {20, 2, 3, 1, 1, 10, 18, "channel"},  // stride 1, wide: blocks + tail
    {3, 3, 3, 1, 1, 24, 40, "pixel"},     // borders + 38-wide interior
    {2, 1, 3, 1, 0, 20, 36, "pixel"},     // valid conv: interior-only rows
    {2, 2, 1, 1, 0, 6, 21, "pixel"},      // 1x1 kernel, odd lane remainder
    {1, 1, 5, 1, 4, 12, 28, "pixel"},     // heavy pad: 4-wide borders
    {2, 2, 3, 1, 1, 5, 5, "pixel"},       // interior (3) below any block
    {2, 1, 5, 1, 2, 3, 3, "pixel"},       // no interior: every tap clipped
    // Channel-lane column runs: border columns carry narrower tap ranges,
    // so each row splits into runs whose lengths leave pixel tails.
    {8, 3, 7, 2, 3, 33, 33, "channel"},   // sign96 maps, padded: 1,1,13,1,1
    {24, 3, 5, 2, 2, 29, 31, "channel"},  // two 16-lane blocks: 1,14,1
};

ReliableConv2d make_conv(const Geometry& g, std::uint64_t seed = 11) {
  Rng rng(seed);
  Tensor weights(Shape{g.out_c, g.in_c, g.k, g.k});
  weights.fill_normal(rng, 0.0f, 0.5f);
  Tensor bias(Shape{g.out_c});
  bias.fill_normal(rng, 0.0f, 0.1f);
  return {std::move(weights), std::move(bias), ConvSpec{g.stride, g.pad},
          {}};
}

Tensor make_input(const Geometry& g, std::uint64_t seed = 23) {
  Rng rng(seed);
  Tensor input(Shape{g.in_c, g.h, g.w});
  input.fill_normal(rng, 0.0f, 1.0f);
  return input;
}

void expect_bits_equal(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(hybridcnn::faultsim::float_bits(a[i]),
              hybridcnn::faultsim::float_bits(b[i]))
        << "first differing element at flat index " << i;
  }
  ASSERT_TRUE(hybridcnn::tensor::bit_identical(a, b));
}

ConvPlan make_plan(const ReliableConv2d& conv, const Shape& in) {
  return {conv.output_shape(in), in, conv.weights().shape(),
          conv.spec().stride, conv.spec().pad};
}

/// The kernel conv_raw_compute runs for `conv`: channel lanes when the
/// owner hands it a pack, else pixel lanes.
std::string kernel_of(const ReliableConv2d& conv) {
  return conv.channel_pack() != nullptr ? "channel" : "pixel";
}

// ------------------------------------------------------- kernel rule

TEST(SimdDispatchRule, ShippedGeometriesTakeTheMeasuredKernel) {
  // The rule's measured cases: every shipped strided or many-map conv
  // runs on channel lanes; the qualifier's stride-1 two-map Sobel runs on
  // pixel lanes, where they are several times faster.
  struct Shipped {
    const char* name;
    Geometry g;
  };
  const Shipped shipped[] = {
      {"AlexNet conv1", {96, 3, 11, 4, 0, 227, 227, "channel"}},
      {"sign96 conv1", {8, 3, 7, 2, 0, 96, 96, "channel"}},
      {"MiniCNN conv1", {16, 3, 5, 1, 2, 32, 32, "channel"}},
      {"qualifier Sobel 96", {2, 1, 3, 1, 1, 96, 96, "pixel"}},
      {"qualifier Sobel 227", {2, 1, 3, 1, 1, 227, 227, "pixel"}},
  };
  for (const Shipped& s : shipped) {
    SCOPED_TRACE(s.name);
    EXPECT_EQ(kernel_of(make_conv(s.g)), s.g.kernel);
  }
}

TEST(SimdDispatchRule, TestGeometriesReachEveryKernel) {
  // The matrix below only proves something if each kernel actually runs,
  // the tails only if some geometry leaves a partial lane block, and the
  // pixel kernel's all-border rows only if some interior is narrower
  // than a block.
  bool channel_tail = false;
  bool pixel_remainder = false;
  bool pixel_narrow = false;
  for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
    const Geometry& g = kGeometries[gi];
    const ReliableConv2d conv = make_conv(g);
    EXPECT_EQ(kernel_of(conv), g.kernel) << "geometry " << gi;
    const ConvPlan plan = make_plan(conv, Shape{g.in_c, g.h, g.w});
    const std::size_t interior = plan.interior_x_end - plan.interior_x_begin;
    if (std::string(g.kernel) == "channel") {
      channel_tail |= g.out_c % kFloatLanes != 0;
    } else if (interior < kFloatLanes) {
      pixel_narrow = true;
    } else {
      pixel_remainder |= interior % kFloatLanes != 0;
    }
  }
  EXPECT_TRUE(channel_tail);
  EXPECT_TRUE(pixel_remainder);
  EXPECT_TRUE(pixel_narrow);
}

// ------------------------------------------------- conv fault-free path

TEST(SimdDispatchConv, CleanInjectorCursorIsReplayedUnderSimd) {
  // A kNone injector keeps the fast path eligible but makes the PE
  // cursor and execution counters observable: the vector path must
  // credit them exactly like the generic path.
  FaultConfig cfg;
  cfg.kind = FaultKind::kNone;
  cfg.num_pes = 7;
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (const std::size_t gi : {0u, 4u}) {  // channel lanes, pixel lanes
      SCOPED_TRACE(std::string(scheme) + " geometry " + std::to_string(gi));
      const Geometry& g = kGeometries[gi];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);
      const auto simd_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
      const auto oracle_exec =
          make_executor(scheme, std::make_shared<FaultInjector>(cfg, 3));
      const ReliableResult simd = conv.forward(input, *simd_exec);
      const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
      ASSERT_GT(simd_exec->injector()->stats().executions, 0u);
      expect_bits_equal(simd.output, oracle.output);
      EXPECT_TRUE(simd.report == oracle.report);
      EXPECT_EQ(simd_exec->injector()->stats().executions,
                oracle_exec->injector()->stats().executions);
      EXPECT_EQ(simd_exec->injector()->next_pe(),
                oracle_exec->injector()->next_pe());
    }
  }
}

TEST(SimdDispatchConv, ArmedInjectorBypassesVectorPath) {
  // With faults possible the kernel must stay on the qualified scalar
  // engine: same bits, reports and injector draws as the generic oracle.
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 2e-3;
  cfg.bit = -1;
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  for (const char* scheme : {"dmr", "tmr"}) {
    const auto fast_exec =
        make_executor(scheme, std::make_shared<FaultInjector>(cfg, 41));
    const auto oracle_exec =
        make_executor(scheme, std::make_shared<FaultInjector>(cfg, 41));
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    expect_bits_equal(fast.output, oracle.output);
    EXPECT_TRUE(fast.report == oracle.report);
    EXPECT_EQ(fast_exec->injector()->stats().faults,
              oracle_exec->injector()->stats().faults);
  }
}

// ---------------------------------------------------------- linear path

TEST(SimdDispatchLinear, FastPathAndGenericAgreeAcrossWidths) {
  // Widths straddling the lane count: below one block (pixel lanes, every
  // output a border pixel), exactly one block, blocks + remainder, and a
  // larger non-multiple (channel lanes).
  const std::size_t widths[] = {3, kFloatLanes, 2 * kFloatLanes + 3, 37};
  for (const std::size_t out_n : widths) {
    for (const char* scheme : {"simplex", "dmr", "tmr"}) {
      SCOPED_TRACE(std::string(scheme) + " out_n " + std::to_string(out_n));
      Rng rng(5 + out_n);
      Tensor weights(Shape{out_n, 19});
      weights.fill_normal(rng, 0.0f, 0.4f);
      Tensor bias(Shape{out_n});
      bias.fill_normal(rng, 0.0f, 0.1f);
      const ReliableLinear linear(weights, bias);
      EXPECT_EQ(linear.channel_pack() == nullptr, out_n < kFloatLanes);
      Tensor input(Shape{19});
      input.fill_normal(rng, 0.0f, 1.0f);

      const auto fast_exec = make_executor(scheme, nullptr);
      const ReliableResult fast = linear.forward(input, *fast_exec);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);

      ASSERT_TRUE(fast.report.ok);
      expect_bits_equal(fast.output, oracle.output);
      EXPECT_TRUE(fast.report == oracle.report);
      EXPECT_EQ(fast_exec->stats().executions,
                oracle_exec->stats().executions);
    }
  }
}

// -------------------------------------------------- thread-count sweep

class SimdDispatchThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdDispatchThreads, FaultFreeCampaignMatchesGeneric) {
  // Fault-free campaign fanned across the pool: every run takes the
  // vector fast path concurrently; the summary and per-run outputs must
  // match the generic oracle at every thread count.
  ComputeContext::set_global_threads(GetParam());

  const Geometry& g = kGeometries[1];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  const Tensor golden = conv.reference_forward(input);
  constexpr std::size_t kRuns = 12;

  const auto make_exec = [&](std::size_t) {
    return make_executor("simplex", nullptr);
  };
  const auto classify = [&](std::size_t, const ReliableResult& result,
                            Executor&) {
    return hybridcnn::faultsim::classify(false, !result.report.ok,
                                         result.output == golden);
  };
  const CampaignSummary fast =
      hybridcnn::faultsim::run_campaign(0, kRuns, [&](std::size_t run) {
        const auto exec = make_exec(run);
        const ReliableResult result = conv.forward(input, *exec);
        return classify(run, result, *exec);
      });
  const CampaignSummary oracle =
      hybridcnn::faultsim::run_campaign(0, kRuns, [&](std::size_t run) {
        const auto exec = make_exec(run);
        const ReliableResult result = conv.forward_generic(input, *exec);
        return classify(run, result, *exec);
      });
  ComputeContext::set_global_threads(1);

  EXPECT_EQ(fast.runs, oracle.runs);
  EXPECT_EQ(fast.correct, oracle.correct);
  EXPECT_EQ(fast.correct, kRuns);  // fault-free: all bit-exact
  EXPECT_EQ(fast.detected_abort, oracle.detected_abort);
  EXPECT_EQ(fast.silent_corruption, oracle.silent_corruption);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdDispatchThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

// ------------------------------------------------- kernel matrix

/// Channel lanes or pixel lanes vs generic, across every scheme and
/// geometry, at each pool width. The geometry picks the vector kernel.
class SimdKernelThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdKernelThreads, ChannelPixelGenericAgreeBitForBit) {
  ComputeContext::set_global_threads(GetParam());
  for (const char* scheme : {"simplex", "dmr", "tmr"}) {
    for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
      SCOPED_TRACE(std::string(scheme) + " geometry " + std::to_string(gi) +
                   " threads " + std::to_string(GetParam()));
      const Geometry& g = kGeometries[gi];
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);

      const auto exec = make_executor(scheme, nullptr);
      const ReliableResult fast = conv.forward(input, *exec);
      ASSERT_TRUE(fast.report.ok);
      expect_bits_equal(fast.output, oracle.output);
      EXPECT_TRUE(fast.report == oracle.report);
      EXPECT_EQ(exec->stats().logical_ops, oracle_exec->stats().logical_ops);
      EXPECT_EQ(exec->stats().executions, oracle_exec->stats().executions);
    }
  }
  ComputeContext::set_global_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdKernelThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

TEST(SimdDispatchConv, BothVectorKernelsAgreeOnStrideOneGeometries) {
  // The rule never runs both vector kernels on one conv, so
  // conv_raw_compute is called with and without a pack to cross-check
  // them on the same stride-1 geometries, few-map, wide and narrow, at
  // one and at eight pool threads.
  for (const std::size_t threads : {1u, 8u}) {
    ComputeContext::set_global_threads(threads);
    for (const std::size_t gi : {3u, 4u, 7u, 8u, 9u}) {
      SCOPED_TRACE("geometry " + std::to_string(gi) + " threads " +
                   std::to_string(threads));
      const Geometry& g = kGeometries[gi];
      ASSERT_EQ(g.stride, 1u);
      const ReliableConv2d conv = make_conv(g);
      const Tensor input = make_input(g);
      const ConvPlan plan = make_plan(conv, input.shape());
      const auto pack = hybridcnn::reliable::detail::build_weight_pack(
          g.out_c, g.in_c, g.k, g.k, conv.weights().data().data(),
          conv.bias().data().data());
      const auto oracle_exec = make_executor("simplex", nullptr);
      const Tensor oracle = conv.forward_generic(input, *oracle_exec).output;
      const WeightPack* const packs[] = {&pack, nullptr};
      for (const WeightPack* p : packs) {
        SCOPED_TRACE(p != nullptr ? "channel lanes" : "pixel lanes");
        Tensor out(oracle.shape());
        hybridcnn::reliable::detail::conv_raw_compute(
            plan, p, input.data().data(), conv.weights().data().data(),
            conv.bias().data().data(), out.data().data());
        expect_bits_equal(out, oracle);
      }
    }
  }
  ComputeContext::set_global_threads(1);
}

// ------------------------------------------------- weight-repack lifetime

/// The pack's fields, bit for bit: the owner's pack must be exactly what
/// build_weight_pack makes of the constructor's weights.
void expect_pack_equals(const WeightPack& got, const WeightPack& want) {
  EXPECT_EQ(got.oc, want.oc);
  EXPECT_EQ(got.padded_oc, want.padded_oc);
  EXPECT_EQ(got.in_c, want.in_c);
  EXPECT_EQ(got.kh, want.kh);
  EXPECT_EQ(got.kw, want.kw);
  EXPECT_EQ(got.weights, want.weights);
  EXPECT_EQ(got.bias, want.bias);
}

TEST(WeightRepack, PackIsBuiltAtConstruction) {
  // A strided conv takes channel lanes: its pack exists from the
  // constructor on, is the repack of the constructor's weights, stays the
  // same object for the kernel's life, and its forward matches the
  // oracle.
  {
    const Geometry& g = kGeometries[0];
    ASSERT_GT(g.stride, 1u);
    const ReliableConv2d conv = make_conv(g);
    const WeightPack* const pack = conv.channel_pack();
    ASSERT_NE(pack, nullptr);
    EXPECT_EQ(conv.channel_pack(), pack);
    expect_pack_equals(
        *pack, hybridcnn::reliable::detail::build_weight_pack(
                   g.out_c, g.in_c, g.k, g.k, conv.weights().data().data(),
                   conv.bias().data().data()));
    const Tensor input = make_input(g);
    const auto fast_exec = make_executor("simplex", nullptr);
    const auto oracle_exec = make_executor("simplex", nullptr);
    const ReliableResult fast = conv.forward(input, *fast_exec);
    const ReliableResult oracle = conv.forward_generic(input, *oracle_exec);
    expect_bits_equal(fast.output, oracle.output);
    EXPECT_TRUE(fast.report == oracle.report);
    EXPECT_EQ(conv.channel_pack(), pack);
  }
  // The qualifier's Sobel shape (stride 1, two maps) runs on pixel lanes
  // and never gets a pack.
  {
    const ReliableConv2d sobel = make_conv({2, 1, 3, 1, 1, 96, 96, "pixel"});
    EXPECT_EQ(sobel.channel_pack(), nullptr);
  }
  // A 1 x in linear with outputs to fill a vector gets the conv's pack of
  // its [out, 1, 1, in] kernel; a width-3 one gets none.
  const std::size_t in_n = 19;
  for (const std::size_t out_n : {2 * kFloatLanes + 3, std::size_t{3}}) {
    SCOPED_TRACE("out_n " + std::to_string(out_n));
    Rng rng(5);
    Tensor weights(Shape{out_n, in_n});
    weights.fill_normal(rng, 0.0f, 0.4f);
    Tensor bias(Shape{out_n});
    bias.fill_normal(rng, 0.0f, 0.1f);
    const ReliableLinear linear(weights, bias);
    const WeightPack* const pack = linear.channel_pack();
    if (out_n < kFloatLanes) {
      EXPECT_EQ(pack, nullptr);
    } else {
      ASSERT_NE(pack, nullptr);
      EXPECT_EQ(linear.channel_pack(), pack);
      expect_pack_equals(*pack,
                         hybridcnn::reliable::detail::build_weight_pack(
                             out_n, 1, 1, in_n, weights.data().data(),
                             bias.data().data()));
    }
    Tensor input(Shape{in_n});
    input.fill_normal(rng, 0.0f, 1.0f);
    const auto fast_exec = make_executor("simplex", nullptr);
    const auto oracle_exec = make_executor("simplex", nullptr);
    const ReliableResult fast = linear.forward(input, *fast_exec);
    const ReliableResult oracle = linear.forward_generic(input, *oracle_exec);
    expect_bits_equal(fast.output, oracle.output);
    EXPECT_TRUE(fast.report == oracle.report);
  }
}

}  // namespace
