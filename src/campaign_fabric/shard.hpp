// Shard descriptors: the unit of work the campaign fabric dispatches.
//
// A campaign of N runs with seed base B is partitioned into fixed-size
// shards; shard k covers the global run range [k*S, min((k+1)*S, N)).
// Because the per-run seed contract is `B + i` over GLOBAL run indices
// (core::FaultSeedStream; classify_campaign_range / run_range take the
// same base), a ShardDescriptor is a pure value: any worker — this
// process, another process, another machine — executes the identical
// runs from the descriptor alone, and the partial summaries merge in
// shard-index order to bits equal to a single-machine, single-thread
// campaign. The campaign fingerprint binds checkpoint files to one
// (workload, N, S, B) tuple so a resume can never merge shards from a
// different campaign.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/contracts.hpp"

namespace hybridcnn::fabric {

/// One shard: a contiguous global run range plus everything needed to
/// execute it anywhere. Plain value, trivially copyable: a worker needs
/// nothing but the descriptor to run the shard.
struct ShardDescriptor {
  std::uint64_t campaign_fingerprint = 0;  ///< binds shard to its campaign
  std::uint32_t shard_index = 0;           ///< position in the plan
  std::uint64_t run_begin = 0;             ///< global run range [begin, end)
  std::uint64_t run_end = 0;
  std::uint64_t seed_base = 0;  ///< global base: run i uses seed_base + i

  [[nodiscard]] std::uint64_t runs() const noexcept {
    return run_end - run_begin;
  }

  friend bool operator==(const ShardDescriptor&,
                         const ShardDescriptor&) noexcept = default;
};

// Descriptors travel by value into worker closures, which assumes no
// hidden state.
HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(ShardDescriptor);

/// The full fixed-size partition of a campaign.
struct ShardPlan {
  std::vector<ShardDescriptor> shards;
  std::uint64_t total_runs = 0;
  std::uint64_t shard_size = 0;
  std::uint64_t seed_base = 0;
  std::uint64_t campaign_fingerprint = 0;
};

/// Partitions [0, total_runs) into ceil(total_runs / shard_size) shards
/// of `shard_size` runs (the last shard takes the remainder). Throws if
/// `shard_size` is zero. A zero-run campaign yields an empty plan.
[[nodiscard]] ShardPlan make_shard_plan(std::uint64_t total_runs,
                                        std::uint64_t shard_size,
                                        std::uint64_t seed_base,
                                        std::uint64_t campaign_fingerprint);

/// Deterministic fingerprint of a campaign identity: workload tag (the
/// summary codec's versioned tag plus any caller salt), run count, shard
/// size and seed base. Two campaigns whose fingerprints differ never
/// exchange checkpoint records.
[[nodiscard]] std::uint64_t campaign_fingerprint(std::string_view tag,
                                                 std::uint64_t total_runs,
                                                 std::uint64_t shard_size,
                                                 std::uint64_t seed_base);

}  // namespace hybridcnn::fabric
