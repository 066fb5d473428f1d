// The campaign-fabric coordinator: shard dispatch, durability, merge.
//
// `run_fabric<Summary>` partitions a campaign into ShardDescriptors,
// dispatches them to N in-process workers, and merges the partial
// summaries in shard-index order — bit-identical to a single-machine,
// single-thread run of the same campaign (see shard.hpp for why the
// seed contract makes that possible, and README.md for the full
// crash-recovery matrix). Each shard runs exactly once per coordinator
// run: a shard runner is a pure function of its descriptor, so running
// it again would repeat the same computation and the same error.
//
//   * durable checkpoints — with a checkpoint_path, every completed
//     shard is persisted via atomic write-fsync-rename before it counts;
//     a coordinator restarted after SIGKILL resumes from the last
//     durable shard and re-runs only the rest.
//   * failure — a shard that throws is recorded; the remaining shards
//     still run and persist, then FabricError reports the lowest failing
//     shard. A restart after fixing the cause resumes from the rest.
//
// Which worker runs which shard is nondeterministic; the merged summary
// is not, because the merge order is fixed by the plan.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign_fabric/checkpoint_log.hpp"
#include "campaign_fabric/shard.hpp"
#include "campaign_fabric/summary_codec.hpp"

namespace hybridcnn::fabric {

/// Coordinator knobs. Defaults give a durable-less, single-worker
/// fabric; every knob is independent.
struct FabricConfig {
  /// Runs per shard (the last shard takes the remainder).
  std::uint64_t shard_size = 1024;
  /// In-process worker threads executing shards.
  std::size_t workers = 1;
  /// Durable checkpoint file. Empty disables durability (pure in-memory
  /// run). The file's parent directory must exist; a failed checkpoint
  /// write stops the run and rethrows in the caller's thread.
  std::string checkpoint_path;
  /// Crash simulation: stop dispatching once this many shards are
  /// durable (resumed + newly completed) and discard any later
  /// completions — exactly what a kill at that shard boundary leaves
  /// on disk. Default: never halt.
  std::size_t halt_after_shards = std::numeric_limits<std::size_t>::max();
  /// Test hook, called before each shard runs. Throwing simulates a
  /// worker crash mid-shard; sleeping simulates a slow shard. Must be
  /// thread-safe.
  std::function<void(const ShardDescriptor&)> attempt_hook;
};

/// Observability counters for one coordinator run.
struct FabricStats {
  std::size_t shards_total = 0;     ///< shards in the plan
  std::size_t shards_resumed = 0;   ///< recovered from the checkpoint
  std::size_t shards_executed = 0;  ///< completed by a worker this run
  std::size_t attempts = 0;         ///< shards started this run
  bool halted = false;              ///< stopped by halt_after_shards
};

/// A shard threw; carries the lowest failing index.
class FabricError : public std::runtime_error {
 public:
  FabricError(std::uint32_t shard_index, const std::string& message)
      : std::runtime_error(message), shard_index_(shard_index) {}
  [[nodiscard]] std::uint32_t shard_index() const noexcept {
    return shard_index_;
  }

 private:
  std::uint32_t shard_index_;
};

template <typename Summary>
struct FabricResult {
  Summary summary{};   ///< merge of completed shards, shard-index order
  FabricStats stats;
  bool complete = false;  ///< all shards merged (false after a halt)
};

namespace detail {

/// Type-erased shard execution: descriptor in, codec payload out.
using ShardRunner =
    std::function<std::vector<std::uint8_t>(const ShardDescriptor&)>;

struct RunOutcome {
  std::vector<ShardRecord> records;  ///< completed shards, index order
  FabricStats stats;
  bool complete = false;
};

/// The scheduling core (coordinator.cpp): resume, dispatch, persist.
/// `payload_valid` vets resumed checkpoint payloads (records failing it
/// are re-run, not merged). Throws FabricError when a shard fails and
/// rethrows a checkpoint write failure; a halt returns normally with
/// `complete == false`.
RunOutcome run_shards(const FabricConfig& config, const ShardPlan& plan,
                      const ShardRunner& runner,
                      const std::function<bool(const ShardRecord&)>& payload_valid);

}  // namespace detail

/// Runs a sharded campaign of `total_runs` runs under `config` and
/// merges the per-shard summaries in shard-index order. `shard_runner`
/// must be a pure function of the descriptor (thread-safe, no hidden
/// state) — typically a thin wrapper over classify_campaign_range or
/// MemoryFaultCampaign::run_range (see campaigns.hpp).
template <typename Summary>
FabricResult<Summary> run_fabric(
    const FabricConfig& config, std::uint64_t total_runs,
    std::uint64_t seed_base,
    const std::function<Summary(const ShardDescriptor&)>& shard_runner) {
  using Codec = SummaryCodec<Summary>;
  const std::uint64_t fingerprint = campaign_fingerprint(
      Codec::kTag, total_runs, config.shard_size, seed_base);
  const ShardPlan plan =
      make_shard_plan(total_runs, config.shard_size, seed_base, fingerprint);

  const detail::ShardRunner byte_runner =
      [&shard_runner](const ShardDescriptor& shard) {
        std::vector<std::uint8_t> bytes;
        Codec::encode(shard_runner(shard), bytes);
        return bytes;
      };
  const auto payload_valid = [](const ShardRecord& record) {
    Summary scratch;
    return Codec::decode(record.payload.data(), record.payload.size(),
                         scratch);
  };

  detail::RunOutcome outcome =
      detail::run_shards(config, plan, byte_runner, payload_valid);

  FabricResult<Summary> result;
  result.stats = outcome.stats;
  result.complete = outcome.complete;
  for (const ShardRecord& record : outcome.records) {
    Summary part;
    if (!Codec::decode(record.payload.data(), record.payload.size(), part)) {
      throw FabricError(record.shard_index,
                        "fabric: shard produced an undecodable payload");
    }
    Codec::merge(result.summary, part);
  }
  return result;
}

}  // namespace hybridcnn::fabric
