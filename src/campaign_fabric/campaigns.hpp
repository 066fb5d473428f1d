// Typed fabric front-ends for the two campaign surfaces.
//
// Each wrapper binds a campaign's shard entry point
// (HybridNetwork::classify_campaign_range /
// MemoryFaultCampaign::run_range) to run_fabric, so callers get the
// full coordinator — sharded dispatch, durable checkpoints, resume —
// with one call. Both entry points take GLOBAL run indices and the campaign
// seed base, which is exactly what a ShardDescriptor carries; the
// merged summary is bit-identical to the monolithic
// classify_campaign / run() call with the same (runs, seed_base).
#pragma once

#include <functional>

#include "campaign_fabric/coordinator.hpp"
#include "core/hybrid_network.hpp"
#include "core/memory_campaign.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::fabric {

/// Sharded compute-fault classify campaign. `judge` must be
/// thread-safe: shards execute concurrently on fabric workers. The
/// monolithic equivalent is `net.classify_campaign(image, total_runs,
/// judge, seeds)` with `seeds.peek() == seed_base`.
inline FabricResult<faultsim::CampaignSummary> run_classify_campaign(
    const core::HybridNetwork& net, const tensor::Tensor& image,
    std::uint64_t total_runs, std::uint64_t seed_base,
    const std::function<faultsim::Outcome(
        std::size_t, const core::HybridClassification&)>& judge,
    const FabricConfig& config, core::BatchOptions options = {}) {
  const std::function<faultsim::CampaignSummary(const ShardDescriptor&)>
      runner = [&net, &image, &judge, options](const ShardDescriptor& shard) {
        return net.classify_campaign_range(
            image, static_cast<std::size_t>(shard.run_begin),
            static_cast<std::size_t>(shard.run_end), shard.seed_base, judge,
            options);
      };
  return run_fabric<faultsim::CampaignSummary>(config, total_runs, seed_base,
                                               runner);
}

/// Sharded memory-fault campaign. The monolithic equivalent is
/// `campaign.run(image, total_runs, seeds)` with
/// `seeds.peek() == seed_base`.
inline FabricResult<faultsim::MemoryCampaignSummary> run_memory_campaign(
    const core::MemoryFaultCampaign& campaign, const tensor::Tensor& image,
    std::uint64_t total_runs, std::uint64_t seed_base,
    const FabricConfig& config) {
  const std::function<faultsim::MemoryCampaignSummary(const ShardDescriptor&)>
      runner = [&campaign, &image](const ShardDescriptor& shard) {
        return campaign.run_range(
            image, static_cast<std::size_t>(shard.run_begin),
            static_cast<std::size_t>(shard.run_end), shard.seed_base);
      };
  return run_fabric<faultsim::MemoryCampaignSummary>(config, total_runs,
                                                     seed_base, runner);
}

}  // namespace hybridcnn::fabric
