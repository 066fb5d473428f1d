// Memory-fault campaign over the hybrid classify path.
//
// The paper's failure model names "data corruption of the weights and
// input data" alongside compute-unit upsets (Section II). This surface
// evaluates that axis end to end: each run corrupts the stored conv1
// parameters and/or the input image under a MemoryFaultModel, optionally
// routes the weights through SEC-DED protected storage with a scrub
// cadence, classifies through the unmodified hybrid dataflow
// (HybridNetwork::classify_with_conv1) and buckets the observable outcome
// — intact / ECC-corrected / ECC-uncorrectable (fail-stop) / caught by
// the hybrid evidence chain / silent corruption.
//
// Determinism contract: run i derives ALL stochastic state (memory-fault
// Rng, compute-fault injector seed) from `seeds.peek() + i` alone, runs
// fan across the thread pool, and outcomes reduce in run-index order —
// so the returned summary is bit-identical at every thread count
// (tests/test_memory_campaign.cpp locks 1/2/8 threads and the fabric
// against summaries pinned before the masked-run rule below existed).
//
// Masked runs: a run whose weights, after corruption and any scrub, and
// whose input are bit-identical to the pristine ones (compared bit for
// bit, so a +0/-0 swap or a NaN-payload change is not a match) is not
// classified. Its classification and its golden are the same pure
// function of (weight bits, input bits, seed), so they agree whether or
// not compute faults are armed, and the run takes the matching outcome:
// corrected when bits flipped and the scrub repaired any, else intact.
//
// Golden: the pristine conv1 kernel, and with no compute faults armed
// the one shared golden, are built lazily, at most once per run_range
// call and only when some run in the range classifies. With compute
// faults armed, each classifying run also classifies its same-seed
// golden; masked runs skip both.
#pragma once

#include <cstddef>

#include "core/fault_seed_stream.hpp"
#include "core/hybrid_network.hpp"
#include "faultsim/memory_faults.hpp"
#include "runtime/compute_context.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::core {

/// Configuration of one memory-fault campaign.
struct MemoryCampaignConfig {
  /// What to corrupt, and how much, per exposure epoch.
  faultsim::MemoryFaultModel model{};

  /// Route the conv1 parameters through SEC-DED protected storage: upsets
  /// land in the protected words and a scrub pass runs before the weights
  /// are used. ECC covers the stored model only — input corruption (a
  /// sensor-side effect) is never ECC-protected.
  bool ecc = false;

  /// Scrub cadence in runs: run i accumulates `(i % scrub_interval) + 1`
  /// exposure epochs of injection since its last scrub, so a larger
  /// interval models rarer scrubbing (more accumulated upsets per check)
  /// while keeping every run a pure function of its index. Must be >= 1.
  std::size_t scrub_interval = 1;

  /// Report detail of the reliable conv1 kernel (kStatsOnly skips per-op
  /// report assembly; outcomes are unaffected).
  reliable::ReportMode report = reliable::ReportMode::kStatsOnly;
};

/// Runs memory-fault campaigns against one HybridNetwork. Construction
/// snapshots the pristine conv1 parameters once; each run builds its own
/// corrupted kernel from the snapshot, so the network itself is never
/// mutated and campaigns may share it with concurrent classify traffic.
class MemoryFaultCampaign {
 public:
  /// `net` must outlive the campaign. Throws if `config.scrub_interval`
  /// is zero.
  MemoryFaultCampaign(const HybridNetwork& net, MemoryCampaignConfig config);

  /// Executes `runs` independent corrupted classifications of `image`
  /// across the pool, consuming `runs` seeds from `seeds` (run i uses
  /// `seeds.peek() + i`, the classify_repeat contract). The golden
  /// reference is the same-seed classification with pristine weights —
  /// computed once when the network's compute-fault environment is
  /// kNone (the fault-free path is seed-independent), per classifying
  /// run otherwise, so the summary isolates the memory-fault effect
  /// either way. Masked runs are decided without either (file comment).
  /// Throws if `image` is not CHW with conv1's input channels; other
  /// shape errors surface from the first run that classifies.
  [[nodiscard]] faultsim::MemoryCampaignSummary run(
      const tensor::Tensor& image, std::size_t runs, FaultSeedStream& seeds,
      runtime::ComputeContext& ctx =
          runtime::ComputeContext::global()) const;

  /// Shard/resume form of run() over an explicit GLOBAL run range: run i
  /// in [run_begin, run_end) derives its stochastic state from
  /// `seed_base + i` and its scrub-cadence exposure from the global
  /// index i — `(i % scrub_interval) + 1` epochs — exactly as the
  /// monolithic campaign does, so summing the partial summaries of any
  /// disjoint cover of [0, runs) is bit-identical to run() even when the
  /// shard size is not a multiple of the scrub interval. Campaign-fabric
  /// shard entry point: consumes no stream, const/re-entrant, shards may
  /// execute concurrently from worker threads.
  [[nodiscard]] faultsim::MemoryCampaignSummary run_range(
      const tensor::Tensor& image, std::size_t run_begin,
      std::size_t run_end, std::uint64_t seed_base,
      runtime::ComputeContext& ctx =
          runtime::ComputeContext::global()) const;

  [[nodiscard]] const MemoryCampaignConfig& config() const noexcept {
    return config_;
  }

 private:
  const HybridNetwork* net_;
  MemoryCampaignConfig config_;
  // Pristine conv1 snapshot (weights, bias, geometry) taken at
  // construction; the per-run corruption source.
  tensor::Tensor weights_;
  tensor::Tensor bias_;
  reliable::ConvSpec spec_;
};

}  // namespace hybridcnn::core
