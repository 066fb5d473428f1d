// HybridNetwork: the paper's primary contribution (Figure 2).
//
// A CNN whose first convolution layer — the DCNN — is executed reliably
// (Algorithm 3 with DMR/TMR operators); its output *bifurcates*, feeding
// (a) the remaining, non-reliably executed CNN layers and (b) a
// deterministic shape qualifier. The qualifier's verdict gates the CNN's
// safety-critical classifications: a "Stop" is only reported reliable when
// the dependable octagon evidence confirms it. Non-critical classes pass
// through unqualified, which is where the design conserves "both footprint
// and computational power" compared to duplicating the whole network.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/fault_seed_stream.hpp"
#include "core/policy.hpp"
#include "core/shape_qualifier.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/fault_model.hpp"
#include "faultsim/power.hpp"
#include "nn/sequential.hpp"
#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"

namespace hybridcnn::core {

/// Configuration of the hybrid execution envelope.
struct HybridConfig {
  /// Executor scheme for all reliable execution ("simplex", "dmr", "tmr").
  std::string scheme = "dmr";
  /// Reliability policy (leaky bucket, retry cap) for reliable kernels.
  reliable::ReliabilityPolicy policy{};
  /// Qualifier parameters.
  ShapeQualifierConfig qualifier{};
  /// Safety-critical labels (default: label 0 = stop).
  std::set<int> critical_classes{0};
  /// Index of the conv1 filter that is Sobel pre-initialised and whose
  /// feature map is the bifurcated dependable output.
  std::size_t dependable_filter = 0;
  /// Fault environment the reliable kernels execute under.
  faultsim::FaultConfig fault_config{};
  /// Seed for the fault injector streams.
  std::uint64_t fault_seed = 1;
};

/// Outcome of one hybrid classification: the paper's "Reliable Result".
struct HybridClassification {
  int predicted_class = -1;
  double confidence = 0.0;       ///< softmax probability of the prediction
  bool safety_critical = false;  ///< prediction is in the critical set
  Decision decision = Decision::kNonCriticalPass;
  QualifierVerdict qualifier;              ///< dependable-path evidence
  reliable::ExecutionReport conv1_report;  ///< DCNN execution evidence

  /// True when the classification may be acted upon for safety purposes.
  [[nodiscard]] bool reliable_positive() const noexcept {
    return decision == Decision::kQualifiedReliable;
  }
};

/// How classify_batch executes the non-reliable CNN remainder. kFanned is
/// the only mode; the enum stays so callers that aggregate-initialise
/// BatchOptions with it (the perfbench harness) keep compiling.
enum class RemainderMode {
  /// Whole per-image pipeline (reliable DCNN + qualifier + CNN remainder)
  /// fans across the pool as one re-entrant const inference per image.
  kFanned,
};

/// Execution knobs for the batched classify entry points. A struct so
/// future knobs extend it without churning every signature again.
struct BatchOptions {
  RemainderMode remainder = RemainderMode::kFanned;
  /// Report detail of the reliable conv1 kernel. kStatsOnly skips per-op
  /// ExecutionReport assembly — campaign sweeps that only consume the
  /// CampaignSummary (outcome counts) pay no report cost; predicted
  /// class, decision, qualifier verdict and conv1_report.ok are
  /// unaffected, while the conv1_report counters stay at their defaults.
  reliable::ReportMode report = reliable::ReportMode::kFull;
};

/// Memory model of the intermittent checkpoint slot
/// (HybridNetwork::classify_intermittent). The committed activation sits
/// in non-volatile memory across power cycles, so it accumulates upsets
/// exactly while the system is down: at each power failure
/// `flips_per_cycle` distinct bits of the committed state are flipped
/// (deterministically derived from the run seed on a dedicated Rng
/// stream). With `ecc` on the slot is SEC-DED protected
/// (reliable::ProgressCheckpoint's protected mode) and a scrub pass runs
/// on every reboot before the resumed step reads the state — a single
/// upset per cycle is always corrected and the classification stays
/// bit-identical to classify().
struct CheckpointMemoryModel {
  std::uint64_t flips_per_cycle = 0;  ///< exact SEUs per power failure
  bool ecc = false;  ///< SEC-DED protect the slot + scrub on reboot
};

/// The hybrid (reliable/non-reliable) network.
class HybridNetwork {
 public:
  /// Takes ownership of `cnn`. `conv1_index` must name a Conv2d layer;
  /// the layers [conv1_index + 1, ...) form the non-reliable remainder.
  /// The dependable filter of conv1 is Sobel pre-initialised and frozen.
  HybridNetwork(std::unique_ptr<nn::Sequential> cnn, std::size_t conv1_index,
                HybridConfig config = {});

  // ------------------------------------------------- const classify API
  //
  // The network is logically immutable after construction: every entry
  // point below is const and re-entrant, and the per-run fault-seed
  // contract lives in the caller-owned FaultSeedStream instead of hidden
  // network state. Any number of OS threads may classify through one
  // shared const network concurrently, each advancing its own stream —
  // the serving front-end (serve::InferenceService) is built on exactly
  // this property. seed_stream() hands out a stream positioned at the
  // configured base for callers that want the historical behaviour.

  /// Classifies one [3, H, W] image through the hybrid dataflow,
  /// consuming one seed from `seeds`.
  [[nodiscard]] HybridClassification classify(const tensor::Tensor& image,
                                              FaultSeedStream& seeds) const;

  /// Batched classification: validates every image, draws one block of
  /// consecutive seeds and runs classify_seeded. Image i consumes seed
  /// `seeds.peek() + i` — exactly the stream a loop of classify() calls
  /// would consume — so the returned results are bit-identical to looped
  /// single-image classify at every thread count. A refused batch or an
  /// empty one does not advance the stream.
  [[nodiscard]] std::vector<HybridClassification> classify_batch(
      const std::vector<tensor::Tensor>& images, FaultSeedStream& seeds,
      BatchOptions options = {}) const;

  /// Fault-injection campaign over the full hybrid classify path, over
  /// an explicit run range: run i in [run_begin, run_end) classifies the
  /// image with fault seed `seed_base + i`, and `judge(i, result)` maps
  /// it to a dependability outcome. The runs go through
  /// faultsim::run_campaign with one prepared reliable kernel for the
  /// whole range, so each run and its `judge` call execute on a pool
  /// worker: `judge` is called exactly once per index, in any order, and
  /// must be thread-safe. Outcomes are reduced in run order. A whole
  /// campaign of `runs` over a seed stream is
  /// `classify_campaign_range(image, 0, runs, seeds.take_block(runs),
  /// judge)`, and summing the partial summaries of any disjoint cover of
  /// [0, runs) equals it exactly. This is also the campaign-fabric shard
  /// entry point; it consumes no stream (the caller owns the seed base)
  /// and is const/re-entrant, so shards may execute concurrently from
  /// fabric worker threads.
  [[nodiscard]] faultsim::CampaignSummary classify_campaign_range(
      const tensor::Tensor& image, std::size_t run_begin,
      std::size_t run_end, std::uint64_t seed_base,
      const std::function<faultsim::Outcome(
          std::size_t, const HybridClassification&)>& judge,
      BatchOptions options = {}) const;

  /// The batched core, with explicit seeds: image i uses seeds[i], with
  /// no consecutiveness requirement. The reliable conv1 kernel is built
  /// once for the whole batch and the complete per-image pipeline —
  /// reliable DCNN, qualifier and the non-reliable CNN remainder, a const
  /// re-entrant inference — fans out across the global
  /// runtime::ThreadPool, each image drawing scratch from the executing
  /// slot's Workspace arena. This is also the serving entry point: a
  /// dispatcher coalescing requests from several sessions hands each
  /// image the seed its session stream assigned at submit time, so
  /// per-session results are independent of how requests were batched.
  /// `seeds` must have `count` entries.
  [[nodiscard]] std::vector<HybridClassification> classify_seeded(
      std::size_t count, const tensor::Tensor* const* images,
      const std::uint64_t* seeds, BatchOptions options = {}) const;

  /// Classifies with an externally supplied reliable conv1 kernel in
  /// place of the network's own — the memory-fault campaign entry point:
  /// `rconv` carries corrupted (or ECC-scrubbed) parameters whose
  /// geometry must match conv1's. The qualifier, CNN remainder and
  /// decision combination are exactly the classify() dataflow, and the
  /// call is const/re-entrant, so campaign workers may call it
  /// concurrently with per-run kernels.
  [[nodiscard]] HybridClassification classify_with_conv1(
      const reliable::ReliableConv2d& rconv, const tensor::Tensor& image,
      std::uint64_t fault_seed, BatchOptions options = {}) const;

  /// Outcome of one intermittent (checkpointed) classification.
  struct IntermittentResult {
    HybridClassification classification;
    std::size_t power_cycles = 0;     ///< power failures survived
    std::size_t steps_committed = 0;  ///< checkpointed steps (progress)
    std::size_t steps_executed = 0;   ///< attempts, incl. work lost to cuts
    // Checkpoint-slot memory accounting (CheckpointMemoryModel):
    std::uint64_t checkpoint_bits_flipped = 0;   ///< upsets injected
    std::uint64_t checkpoint_corrected = 0;      ///< scrub-corrected bits
    std::uint64_t checkpoint_uncorrectable = 0;  ///< double-error words
  };

  /// Intermittent-execution mode (Stateful-CNN style): the classification
  /// runs as a sequence of checkpointed steps — step 0 is the dependable
  /// stage (reliable conv1 + qualifier), each following step one CNN
  /// remainder layer — committing (step, activation) progress after each
  /// step. `trace` injects power failures: a step interrupted mid-flight
  /// loses its work and re-executes from the committed checkpoint after
  /// the reboot. Every step is a pure function of (weights, committed
  /// state, seed), so the final classification is bit-identical to
  /// classify() with the same seed for EVERY trace, and execution always
  /// terminates once the trace is exhausted (power stable thereafter).
  /// Consumes one seed from `seeds`, exactly like classify(). `memory`
  /// optionally corrupts the committed checkpoint at each power failure
  /// and/or ECC-protects the slot (see CheckpointMemoryModel).
  [[nodiscard]] IntermittentResult classify_intermittent(
      const tensor::Tensor& image, FaultSeedStream& seeds,
      const faultsim::PowerTrace& trace, BatchOptions options = {},
      CheckpointMemoryModel memory = {}) const;

  /// A fresh stream positioned at the configured `fault_seed` base — the
  /// stream a newly constructed network's wrappers would consume.
  [[nodiscard]] FaultSeedStream seed_stream() const noexcept {
    return FaultSeedStream(config_.fault_seed);
  }

  /// Index of the reliably executed conv1 layer inside cnn().
  [[nodiscard]] std::size_t conv1_index() const noexcept {
    return conv1_index_;
  }

  /// The wrapped CNN (e.g. for training or filter surgery).
  [[nodiscard]] nn::Sequential& cnn() noexcept { return *cnn_; }
  [[nodiscard]] const nn::Sequential& cnn() const noexcept { return *cnn_; }

  [[nodiscard]] const HybridConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const SafetyPolicy& policy() const noexcept {
    return safety_;
  }

  /// Logical multiply-accumulate count of the reliable (DCNN) portion vs
  /// the whole network for one inference — the footprint argument of the
  /// paper's conclusion. Computed for input [3, H, W].
  struct CostSplit {
    std::uint64_t reliable_macs = 0;
    std::uint64_t total_macs = 0;
  };
  [[nodiscard]] CostSplit cost_split(const tensor::Shape& input_shape) const;

 private:
  /// Product of the dependable phase: everything one classification
  /// needs before the non-reliable CNN remainder runs.
  struct DependableStage {
    tensor::Tensor conv1_out;  ///< committed reliable output or fallback
    reliable::ExecutionReport report;
    QualifierVerdict qualifier;
    bool reliable_ok = false;
  };

  [[nodiscard]] reliable::ReliableConv2d make_reliable_conv1() const;

  /// Reliable DCNN + qualifier for one image with an explicit fault
  /// seed. Pure function of (weights, image, seed) — safe to run from
  /// pool workers; scratch comes from the calling slot's arena.
  [[nodiscard]] DependableStage dependable_stage(
      const reliable::ReliableConv2d& rconv, const tensor::Tensor& image,
      std::uint64_t fault_seed,
      reliable::ReportMode mode = reliable::ReportMode::kFull) const;

  /// Non-reliable CNN remainder (const re-entrant inference over the
  /// shared model, calling-thread scratch from `ws`) + decision
  /// combination. Safe to run concurrently from pool workers.
  [[nodiscard]] HybridClassification run_remainder(
      DependableStage&& stage, runtime::Workspace& ws) const;

  /// Decision combination only: argmax/softmax over `logits`
  /// [1, classes] + the Figure-1 Reliable Result rule over the
  /// dependable evidence. Shared by run_remainder and the intermittent
  /// layer-stepping path.
  [[nodiscard]] HybridClassification finalize_classification(
      DependableStage&& stage, const tensor::Tensor& logits) const;

  std::unique_ptr<nn::Sequential> cnn_;
  std::size_t conv1_index_;
  HybridConfig config_;
  SafetyPolicy safety_;
  ShapeQualifier qualifier_;
  /// config_.scheme resolved once at construction (validating the name
  /// early), so per-image executor construction dispatches on the enum
  /// instead of re-parsing the scheme string on every classification.
  reliable::Scheme scheme_id_;
};

}  // namespace hybridcnn::core
