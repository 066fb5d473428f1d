// MemoryFaultCampaign: corrupted-weight/input campaigns over the hybrid
// classify path — seed determinism, thread-count bit-identity, ECC
// protection semantics and scrub-cadence exposure accounting.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "campaign_fabric/campaigns.hpp"
#include "core/hybrid_network.hpp"
#include "core/memory_campaign.hpp"
#include "data/renderer.hpp"
#include "faultsim/memory_faults.hpp"
#include "nn/conv2d.hpp"
#include "nn/flatten.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/maxpool.hpp"
#include "nn/relu.hpp"
#include "runtime/compute_context.hpp"

namespace {

using namespace hybridcnn;
using core::FaultSeedStream;
using core::HybridConfig;
using core::HybridNetwork;
using core::MemoryCampaignConfig;
using core::MemoryFaultCampaign;
using faultsim::MemoryCampaignSummary;
using faultsim::MemoryTarget;
using runtime::ComputeContext;
using tensor::Shape;
using tensor::Tensor;

std::unique_ptr<nn::Sequential> make_testnet(std::uint64_t seed = 3) {
  auto net = std::make_unique<nn::Sequential>();
  net->emplace<nn::Conv2d>(3, 8, 7, 2, 0);  // 128 -> 61
  net->emplace<nn::ReLU>();
  net->emplace<nn::MaxPool>(3, 2);  // 61 -> 30
  net->emplace<nn::Flatten>();
  net->emplace<nn::Linear>(8 * 30 * 30, 5);
  nn::init_network(*net, seed);
  return net;
}

Tensor stop_image() { return data::render_stop_sign(128, 6.0); }

class MemoryCampaignTest : public ::testing::Test {
 protected:
  void TearDown() override { ComputeContext::set_global_threads(1); }
};

std::string describe(const MemoryCampaignSummary& s) {
  std::ostringstream os;
  os << "{" << s.runs << ", " << s.intact << ", " << s.corrected << ", "
     << s.uncorrectable << ", " << s.qualifier_caught << ", "
     << s.silent_corruption << ", " << s.bits_flipped << ", "
     << s.ecc_corrected_data << ", " << s.ecc_corrected_check << ", "
     << s.ecc_uncorrectable_words << "}";
  return os.str();
}

/// Runs `runs` runs from `seed_base` at 1, 2 and 8 threads, directly and
/// through the fabric (2 workers, shards of 5 runs, which is not a
/// multiple of any scrub interval below), and expects `pin` every time.
void expect_pinned_summary(const HybridNetwork& net,
                           const MemoryCampaignConfig& cfg, std::size_t runs,
                           std::uint64_t seed_base,
                           const MemoryCampaignSummary& pin) {
  const MemoryFaultCampaign campaign(net, cfg);
  const Tensor img = stop_image();
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ComputeContext::set_global_threads(threads);
    FaultSeedStream seeds(seed_base);
    const MemoryCampaignSummary direct = campaign.run(img, runs, seeds);
    EXPECT_EQ(direct, pin) << threads << " threads: " << describe(direct);

    fabric::FabricConfig fcfg;
    fcfg.shard_size = 5;
    fcfg.workers = 2;
    const fabric::FabricResult<MemoryCampaignSummary> sharded =
        fabric::run_memory_campaign(campaign, img, runs, seed_base, fcfg);
    ASSERT_TRUE(sharded.complete);
    EXPECT_EQ(sharded.summary, pin)
        << threads << " threads, fabric: " << describe(sharded.summary);
  }
}

// Pinned summaries. Each cell was recorded from the campaign as it was
// before runs whose scrubbed weights and input are bit-identical to the
// pristine ones were decided without classifying them, and locks that
// shortcut to the outcomes the classifying path gives. Never re-record
// them. Fields: runs, intact, corrected, uncorrectable, qualifier_caught,
// silent_corruption, bits_flipped, ecc_corrected_data,
// ecc_corrected_check, ecc_uncorrectable_words.

TEST_F(MemoryCampaignTest, PinnedSummaryEccWeightsCorrectedAndUncorrectable) {
  const HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.bit_error_rate = 4e-4;
  cfg.ecc = true;
  cfg.scrub_interval = 2;
  expect_pinned_summary(net, cfg, 24, 1234,
                        {24, 0, 15, 9, 0, 0, 553, 531, 0, 11});
}

TEST_F(MemoryCampaignTest, PinnedSummaryUnprotectedWeights) {
  const HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.bit_error_rate = 5e-4;
  cfg.scrub_interval = 3;
  expect_pinned_summary(net, cfg, 16, 2345,
                        {16, 6, 0, 0, 10, 0, 605, 0, 0, 0});
}

TEST_F(MemoryCampaignTest, PinnedSummaryInput) {
  const HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.target = MemoryTarget::kInput;
  cfg.model.bit_error_rate = 2e-6;
  cfg.scrub_interval = 2;
  expect_pinned_summary(net, cfg, 24, 3456,
                        {24, 21, 0, 0, 0, 3, 104, 0, 0, 0});
}

TEST_F(MemoryCampaignTest, PinnedSummaryWeightsAndInput) {
  const HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.target = MemoryTarget::kWeightsAndInput;
  cfg.model.bit_error_rate = 1e-6;
  cfg.ecc = true;
  cfg.scrub_interval = 4;
  expect_pinned_summary(net, cfg, 16, 4567,
                        {16, 12, 2, 0, 0, 2, 64, 3, 0, 0});
}

TEST_F(MemoryCampaignTest, PinnedSummaryArmedComputeFaultsWithEcc) {
  HybridConfig hcfg;
  hcfg.fault_config.kind = faultsim::FaultKind::kTransient;
  hcfg.fault_config.probability = 1e-5;
  const HybridNetwork net(make_testnet(), 0, hcfg);
  MemoryCampaignConfig cfg;
  cfg.model.bit_error_rate = 4e-4;
  cfg.ecc = true;
  cfg.scrub_interval = 2;
  expect_pinned_summary(net, cfg, 12, 5678,
                        {12, 0, 11, 1, 0, 0, 259, 255, 0, 1});
}

TEST_F(MemoryCampaignTest, ZeroRateLeavesEveryRunIntact) {
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;  // zero-rate default model
  const MemoryFaultCampaign campaign(net, cfg);
  FaultSeedStream seeds = net.seed_stream();
  const MemoryCampaignSummary s = campaign.run(stop_image(), 4, seeds);
  EXPECT_EQ(s.runs, 4u);
  EXPECT_EQ(s.intact, 4u);
  EXPECT_EQ(s.bits_flipped, 0u);
  EXPECT_DOUBLE_EQ(s.availability(), 1.0);
  EXPECT_DOUBLE_EQ(s.safety(), 1.0);
}

TEST_F(MemoryCampaignTest, RejectsZeroScrubIntervalAndBadImage) {
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.scrub_interval = 0;
  EXPECT_THROW(MemoryFaultCampaign(net, cfg), std::invalid_argument);

  const MemoryFaultCampaign campaign(net, MemoryCampaignConfig{});
  FaultSeedStream seeds = net.seed_stream();
  EXPECT_THROW((void)campaign.run(Tensor(Shape{4, 4}), 1, seeds),
               std::invalid_argument);
  // Zero-rate runs are masked and never classify, so conv1's channel
  // count is checked up front.
  EXPECT_THROW((void)campaign.run(Tensor(Shape{1, 128, 128}), 1, seeds),
               std::invalid_argument);
}

TEST_F(MemoryCampaignTest, SummaryDeterministicForSeedBase) {
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.bit_error_rate = 1e-4;
  const MemoryFaultCampaign campaign(net, cfg);
  const Tensor img = stop_image();

  FaultSeedStream a(100);
  FaultSeedStream b(100);
  const MemoryCampaignSummary sa = campaign.run(img, 8, a);
  const MemoryCampaignSummary sb = campaign.run(img, 8, b);
  EXPECT_EQ(sa, sb);
  EXPECT_EQ(a.peek(), 108u) << "run consumes exactly `runs` seeds";
}

TEST_F(MemoryCampaignTest, SummariesBitIdenticalAcrossThreadCounts) {
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.exact_flips = 8;
  cfg.scrub_interval = 3;
  const MemoryFaultCampaign campaign(net, cfg);
  const Tensor img = stop_image();

  ComputeContext::set_global_threads(1);
  FaultSeedStream s1(7);
  const MemoryCampaignSummary one = campaign.run(img, 12, s1);

  ComputeContext::set_global_threads(2);
  FaultSeedStream s2(7);
  const MemoryCampaignSummary two = campaign.run(img, 12, s2);

  ComputeContext::set_global_threads(8);
  FaultSeedStream s8(7);
  const MemoryCampaignSummary eight = campaign.run(img, 12, s8);

  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_EQ(one.runs, 12u);
}

TEST_F(MemoryCampaignTest, EccEliminatesSilentCorruption) {
  // Same upset environment with and without SEC-DED on the stored
  // weights: unprotected runs may silently corrupt or lean on the hybrid
  // evidence chain; protected runs either correct every upset or
  // fail-stop on an uncorrectable word — never silent.
  HybridNetwork net(make_testnet(), 0);
  const Tensor img = stop_image();

  MemoryCampaignConfig protected_cfg;
  protected_cfg.model.bit_error_rate = 1e-4;
  protected_cfg.ecc = true;
  const MemoryFaultCampaign with_ecc(net, protected_cfg);
  FaultSeedStream seeds(500);
  const MemoryCampaignSummary s = with_ecc.run(img, 16, seeds);

  EXPECT_EQ(s.runs, 16u);
  EXPECT_EQ(s.silent_corruption, 0u);
  EXPECT_EQ(s.qualifier_caught, 0u);
  EXPECT_GT(s.bits_flipped, 0u);
  EXPECT_GT(s.corrected, 0u) << "scrub must have repaired upset runs";
  EXPECT_GT(s.ecc_corrected_data + s.ecc_corrected_check, 0u);
  EXPECT_DOUBLE_EQ(s.safety(), 1.0);
}

TEST_F(MemoryCampaignTest, UnprotectedBurstCorruptsOrGetsCaught) {
  // 96 distinct flips per run in the conv1 weights, no ECC: enough runs
  // diverge from golden that the outcome split (caught vs silent) is
  // exercised; everything stays deterministic for the fixed seed base.
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.exact_flips = 96;
  const MemoryFaultCampaign campaign(net, cfg);
  FaultSeedStream seeds(900);
  const MemoryCampaignSummary s = campaign.run(stop_image(), 12, seeds);

  EXPECT_EQ(s.runs, 12u);
  // Exact-flip injection with scrub_interval 1: one epoch per run.
  EXPECT_EQ(s.bits_flipped, 96u * 12u);
  EXPECT_EQ(s.ecc_corrected_data + s.ecc_corrected_check, 0u);
  EXPECT_LT(s.availability(), 1.0)
      << "a 96-bit weight burst must perturb at least one run";
  EXPECT_EQ(s.intact + s.corrected + s.uncorrectable + s.qualifier_caught +
                s.silent_corruption,
            s.runs);
}

TEST_F(MemoryCampaignTest, ScrubIntervalScalesExposureEpochs) {
  // Run i accumulates (i % scrub_interval) + 1 epochs; with exact flips
  // the injected-bit total is a closed form of the run count.
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.exact_flips = 2;
  cfg.scrub_interval = 4;
  const MemoryFaultCampaign campaign(net, cfg);
  FaultSeedStream seeds(42);
  const MemoryCampaignSummary s = campaign.run(stop_image(), 8, seeds);
  // Epochs per run: 1,2,3,4,1,2,3,4 -> 20 epochs * 2 flips.
  EXPECT_EQ(s.bits_flipped, 40u);
}

TEST_F(MemoryCampaignTest, InputTargetBypassesEcc) {
  // ECC covers the stored model, not the sensor buffer: with the input
  // as the only target, protected campaigns see zero scrub activity.
  HybridNetwork net(make_testnet(), 0);
  MemoryCampaignConfig cfg;
  cfg.model.target = MemoryTarget::kInput;
  cfg.model.exact_flips = 16;
  cfg.ecc = true;
  const MemoryFaultCampaign campaign(net, cfg);
  FaultSeedStream seeds(5);
  const MemoryCampaignSummary s = campaign.run(stop_image(), 6, seeds);
  EXPECT_EQ(s.bits_flipped, 16u * 6u);
  EXPECT_EQ(s.ecc_corrected_data, 0u);
  EXPECT_EQ(s.ecc_corrected_check, 0u);
  EXPECT_EQ(s.ecc_uncorrectable_words, 0u);
}

TEST_F(MemoryCampaignTest, ArmedComputeFaultsUsePerRunGolden) {
  // With compute faults armed and NO memory corruption, run and golden
  // execute identically (same seed, pristine weights): every run must
  // classify intact, proving the per-run golden isolates the memory
  // effect instead of conflating it with injector noise.
  HybridConfig hcfg;
  hcfg.fault_config.kind = faultsim::FaultKind::kTransient;
  hcfg.fault_config.probability = 1e-5;
  HybridNetwork net(make_testnet(), 0, hcfg);
  const MemoryFaultCampaign campaign(net, MemoryCampaignConfig{});
  FaultSeedStream seeds = net.seed_stream();
  const MemoryCampaignSummary s = campaign.run(stop_image(), 6, seeds);
  EXPECT_EQ(s.intact, 6u);
  EXPECT_EQ(s.silent_corruption, 0u);
}

}  // namespace
