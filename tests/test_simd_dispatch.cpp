// SIMD fast-path bit-identity contract: the vectorized fault-free conv
// kernels (channel lanes and pixel lanes, reliable/static_dispatch.hpp
// over runtime/isa.hpp) must produce the same output bits, reports and
// executor/injector state as the scalar fast path (kill-switch closed)
// and the generic virtual-dispatch oracle — across schemes, geometries
// and thread counts. The conv's shape picks the kernel, so each kernel is
// reached through geometry: channel lanes through strided convs (and
// wide ones), pixel lanes through stride-1 convs with few maps, scalar
// through narrow interiors and the kill-switch. Armed injectors must
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
using hybridcnn::reliable::detail::pixel_kernel_eligible;
using hybridcnn::reliable::detail::reliable_simd_enabled;
using hybridcnn::reliable::detail::set_reliable_simd_enabled;
using hybridcnn::runtime::ComputeContext;
using hybridcnn::runtime::isa::kFloatLanes;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;
using hybridcnn::util::Rng;

/// Restores the kill-switch state on scope exit so tests cannot leak a
/// disabled vector path into each other.
class SimdGuard {
 public:
  SimdGuard() : saved_(reliable_simd_enabled()) {}
  ~SimdGuard() { set_reliable_simd_enabled(saved_); }

 private:
  bool saved_;
};

struct Geometry {
  std::size_t out_c, in_c, k, stride, pad, h, w;
  const char* kernel;  ///< the kernel the rule picks on any SIMD target
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
    {2, 2, 3, 1, 1, 5, 5, "scalar"},      // interior (3) below any block
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

/// The kernel conv_raw_compute runs for `conv` on an input of shape `in`:
/// channel lanes when the owner hands it a pack, else pixel lanes where
/// eligible with the kill-switch open, else scalar.
std::string kernel_of(const ReliableConv2d& conv, const Shape& in) {
  if (conv.channel_pack() != nullptr) return "channel";
  if (reliable_simd_enabled() && pixel_kernel_eligible(make_plan(conv, in))) {
    return "pixel";
  }
  return "scalar";
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
  const SimdGuard guard;
  for (const Shipped& s : shipped) {
    SCOPED_TRACE(s.name);
    const ReliableConv2d conv = make_conv(s.g);
    const Shape in{s.g.in_c, s.g.h, s.g.w};
    set_reliable_simd_enabled(true);
#ifdef HYBRIDCNN_ISA_SIMD
    EXPECT_EQ(kernel_of(conv, in), s.g.kernel);
#else
    EXPECT_EQ(kernel_of(conv, in), "scalar");
#endif
    // The kill-switch sends every conv to scalar, pack-free.
    set_reliable_simd_enabled(false);
    EXPECT_EQ(conv.channel_pack(), nullptr);
    EXPECT_EQ(kernel_of(conv, in), "scalar");
  }
}

TEST(SimdDispatchRule, TestGeometriesReachEveryKernel) {
  // The matrix below only proves something if each kernel actually runs,
  // and the tails only if some geometry leaves a partial lane block.
#ifndef HYBRIDCNN_ISA_SIMD
  GTEST_SKIP() << "only the scalar fast path exists without vectors";
#else
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
  bool channel_tail = false;
  bool pixel_remainder = false;
  for (std::size_t gi = 0; gi < kGeometries.size(); ++gi) {
    const Geometry& g = kGeometries[gi];
    const ReliableConv2d conv = make_conv(g);
    const Shape in{g.in_c, g.h, g.w};
    EXPECT_EQ(kernel_of(conv, in), g.kernel) << "geometry " << gi;
    const ConvPlan plan = make_plan(conv, in);
    if (std::string(g.kernel) == "channel") {
      channel_tail |= g.out_c % kFloatLanes != 0;
    } else if (std::string(g.kernel) == "pixel") {
      pixel_remainder |=
          (plan.interior_x_end - plan.interior_x_begin) % kFloatLanes != 0;
    }
  }
  EXPECT_TRUE(channel_tail);
  EXPECT_TRUE(pixel_remainder);
#endif
}

// ------------------------------------------------- conv fault-free path

TEST(SimdDispatchConv, CleanInjectorCursorIsReplayedUnderSimd) {
  // A kNone injector keeps the fast path eligible but makes the PE
  // cursor and execution counters observable: the vector path must
  // credit them exactly like the scalar and generic paths.
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
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
  // engine regardless of the kill-switch: same bits, reports and
  // injector draws as the generic oracle in both switch positions.
  const SimdGuard guard;
  FaultConfig cfg;
  cfg.kind = FaultKind::kTransient;
  cfg.probability = 2e-3;
  cfg.bit = -1;
  const Geometry& g = kGeometries[0];
  const ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);
  for (const bool simd_on : {true, false}) {
    SCOPED_TRACE(simd_on ? "simd on" : "simd off");
    set_reliable_simd_enabled(simd_on);
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
}

TEST(SimdDispatchConv, KillSwitchTogglesAndRestores) {
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
  EXPECT_TRUE(reliable_simd_enabled());
  set_reliable_simd_enabled(false);
  EXPECT_FALSE(reliable_simd_enabled());
  set_reliable_simd_enabled(true);
  EXPECT_TRUE(reliable_simd_enabled());
}

// ---------------------------------------------------------- linear path

TEST(SimdDispatchLinear, VectorScalarAndGenericAgreeAcrossWidths) {
  const SimdGuard guard;
  // Widths straddling the lane count: below one block, exactly one
  // block, blocks + remainder, and a larger non-multiple.
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
      Tensor input(Shape{19});
      input.fill_normal(rng, 0.0f, 1.0f);

      set_reliable_simd_enabled(true);
      const auto simd_exec = make_executor(scheme, nullptr);
      const ReliableResult simd = linear.forward(input, *simd_exec);

      set_reliable_simd_enabled(false);
      const auto scalar_exec = make_executor(scheme, nullptr);
      const ReliableResult scalar = linear.forward(input, *scalar_exec);

      const auto oracle_exec = make_executor(scheme, nullptr);
      const ReliableResult oracle =
          linear.forward_generic(input, *oracle_exec);

      ASSERT_TRUE(simd.report.ok);
      expect_bits_equal(simd.output, scalar.output);
      expect_bits_equal(simd.output, oracle.output);
      EXPECT_TRUE(simd.report == scalar.report);
      EXPECT_TRUE(simd.report == oracle.report);
      EXPECT_EQ(simd_exec->stats().executions,
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
  const SimdGuard guard;
  set_reliable_simd_enabled(true);
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
      conv.forward_campaign(input, kRuns, make_exec, classify);
  const CampaignSummary oracle =
      hybridcnn::faultsim::run_campaign(kRuns, [&](std::size_t run) {
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

// ------------------------------------------------ four-way matrix

/// Channel-lane vs pixel-lane vs scalar vs generic, across every scheme
/// and geometry, at each pool width. The geometry picks the vector
/// kernel; the kill-switch reaches scalar.
class SimdKernelThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SimdKernelThreads, ChannelPixelScalarGenericAgreeBitForBit) {
  const SimdGuard guard;
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

      for (const bool simd_on : {true, false}) {
        set_reliable_simd_enabled(simd_on);
        const auto exec = make_executor(scheme, nullptr);
        const ReliableResult fast = conv.forward(input, *exec);
        ASSERT_TRUE(fast.report.ok);
        expect_bits_equal(fast.output, oracle.output);
        EXPECT_TRUE(fast.report == oracle.report);
        EXPECT_EQ(exec->stats().logical_ops, oracle_exec->stats().logical_ops);
        EXPECT_EQ(exec->stats().executions, oracle_exec->stats().executions);
      }
    }
  }
  ComputeContext::set_global_threads(1);
}

INSTANTIATE_TEST_SUITE_P(Threads, SimdKernelThreads,
                         ::testing::Values<std::size_t>(1, 2, 8));

#ifdef HYBRIDCNN_ISA_SIMD
TEST(SimdDispatchConv, BothVectorKernelsAgreeOnStrideOneGeometries) {
  // The rule never runs both vector kernels on one conv, so the serial
  // forms are called directly to cross-check them on the same stride-1
  // geometries, few-map and wide.
  for (const std::size_t gi : {3u, 4u, 7u}) {
    SCOPED_TRACE("geometry " + std::to_string(gi));
    const Geometry& g = kGeometries[gi];
    ASSERT_EQ(g.stride, 1u);
    const ReliableConv2d conv = make_conv(g);
    const Tensor input = make_input(g);
    const ConvPlan plan = make_plan(conv, input.shape());
    const auto pack = hybridcnn::reliable::detail::build_weight_pack(
        g.out_c, g.in_c, g.k, g.k, conv.weights().data().data(),
        conv.bias().data().data(), conv.weight_generation());
    const Shape out_shape = conv.output_shape(input.shape());
    Tensor pixel(out_shape);
    Tensor channel(out_shape);
    Tensor scalar(out_shape);
    hybridcnn::reliable::detail::conv_raw_compute_simd(
        plan, input.data().data(), conv.weights().data().data(),
        conv.bias().data().data(), pixel.data().data());
    hybridcnn::reliable::detail::conv_raw_compute_channel(
        plan, pack, input.data().data(), channel.data().data());
    hybridcnn::reliable::detail::conv_raw_compute_scalar(
        plan, input.data().data(), conv.weights().data().data(),
        conv.bias().data().data(), scalar.data().data());
    expect_bits_equal(pixel, scalar);
    expect_bits_equal(channel, scalar);
  }
}
#endif

// --------------------------------------------- weight-repack staleness

TEST(WeightRepack, ConvPackIsInvalidatedBySetWeights) {
  const SimdGuard guard;
  set_reliable_simd_enabled(true);

  const Geometry& g = kGeometries[0];  // strided: the rule takes a pack
  ReliableConv2d conv = make_conv(g);
  const Tensor input = make_input(g);

  conv.prepare_fast_path();
  const auto pack_before = conv.channel_pack();
  const std::uint64_t gen_before = conv.weight_generation();
#ifdef HYBRIDCNN_ISA_SIMD
  ASSERT_NE(pack_before, nullptr);
#endif
  if (pack_before != nullptr) {  // nullptr on non-SIMD targets
    EXPECT_EQ(pack_before->generation, gen_before);
  }

  // Mutate the weights: the cached pack must be rebuilt, and the forward
  // must match a conv constructed fresh with the new weights bit for bit.
  Rng rng(97);
  Tensor new_weights(Shape{g.out_c, g.in_c, g.k, g.k});
  new_weights.fill_normal(rng, 0.0f, 0.5f);
  conv.set_weights(new_weights);
  EXPECT_EQ(conv.weight_generation(), gen_before + 1);

  const auto pack_after = conv.channel_pack();
  if (pack_after != nullptr) {
    EXPECT_NE(pack_before.get(), pack_after.get());
    EXPECT_EQ(pack_after->generation, gen_before + 1);
  }

  Tensor bias(Shape{g.out_c});
  Rng bias_rng(11);  // make_conv's seed: regenerate the same bias
  Tensor w_dummy(Shape{g.out_c, g.in_c, g.k, g.k});
  w_dummy.fill_normal(bias_rng, 0.0f, 0.5f);
  bias.fill_normal(bias_rng, 0.0f, 0.1f);
  const ReliableConv2d fresh(new_weights, bias, ConvSpec{g.stride, g.pad},
                             {});

  const auto stale_exec = make_executor("simplex", nullptr);
  const auto fresh_exec = make_executor("simplex", nullptr);
  const ReliableResult updated = conv.forward(input, *stale_exec);
  const ReliableResult expected = fresh.forward(input, *fresh_exec);
  expect_bits_equal(updated.output, expected.output);
  EXPECT_TRUE(updated.report == expected.report);

  // And a stale-shape update must be rejected without touching state.
  Tensor bad(Shape{g.out_c, g.in_c, g.k, g.k + 1});
  EXPECT_THROW(conv.set_weights(bad), std::invalid_argument);
  EXPECT_EQ(conv.weight_generation(), gen_before + 1);
}

TEST(WeightRepack, LinearPackIsInvalidatedBySetWeights) {
  const SimdGuard guard;
  set_reliable_simd_enabled(true);

  const std::size_t out_n = 2 * kFloatLanes + 3;
  const std::size_t in_n = 19;
  Rng rng(5);
  Tensor weights(Shape{out_n, in_n});
  weights.fill_normal(rng, 0.0f, 0.4f);
  Tensor bias(Shape{out_n});
  bias.fill_normal(rng, 0.0f, 0.1f);
  ReliableLinear linear(weights, bias);
  Tensor input(Shape{in_n});
  input.fill_normal(rng, 0.0f, 1.0f);

  linear.prepare_fast_path();
  const auto pack_before = linear.neuron_pack();
  const std::uint64_t gen_before = linear.weight_generation();

  Tensor new_weights(Shape{out_n, in_n});
  new_weights.fill_normal(rng, 0.0f, 0.4f);
  linear.set_weights(new_weights);
  EXPECT_EQ(linear.weight_generation(), gen_before + 1);
  const auto pack_after = linear.neuron_pack();
  if (pack_after != nullptr) {
    EXPECT_NE(pack_before.get(), pack_after.get());
    EXPECT_EQ(pack_after->generation, gen_before + 1);
  }

  const ReliableLinear fresh(new_weights, bias);
  const auto updated_exec = make_executor("simplex", nullptr);
  const auto fresh_exec = make_executor("simplex", nullptr);
  const ReliableResult updated = linear.forward(input, *updated_exec);
  const ReliableResult expected = fresh.forward(input, *fresh_exec);
  expect_bits_equal(updated.output, expected.output);
  EXPECT_TRUE(updated.report == expected.report);

  Tensor bad(Shape{out_n, in_n + 1});
  EXPECT_THROW(linear.set_weights(bad), std::invalid_argument);
}

}  // namespace
