// Shared declarations of the benchmark driver: workloads, inputs, pinned
// expected outputs, and the traced layer probes. See README.md for what
// each workload and metric means.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign_fabric/coordinator.hpp"
#include "core/hybrid_network.hpp"
#include "core/memory_campaign.hpp"
#include "data/renderer.hpp"
#include "faultsim/campaign.hpp"
#include "faultsim/memory_faults.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace hybridcnn;

// ------------------------------------------------------------ networks

enum class NetKind { kAlexNet227, kSign96 };

const char* net_name(NetKind kind);
std::size_t image_side(NetKind kind);

/// The CNN of a workload, freshly initialised from a fixed weight seed.
std::unique_ptr<nn::Sequential> make_cnn(NetKind kind);

/// Fault-free hybrid envelope (DMR conv1, full-resolution qualifier).
core::HybridConfig clean_config();
/// Armed envelope of the fault campaigns: DMR under transient compute
/// faults at p = 1e-4 per execution, random bit.
core::HybridConfig armed_config();

// -------------------------------------------------------------- inputs

/// Render parameters of candidate input `u` of a network's universe:
/// mixed classes, rotation, scale, brightness and noise. A fixed function
/// of `u`; the run seed only chooses which pinned inputs a run uses and in
/// what order.
data::RenderParams universe_params(NetKind kind, std::size_t u);
inline constexpr std::size_t kUniverseSize = 48;

/// Expected classify() output of one pinned input.
struct Pin {
  std::size_t u = 0;
  int predicted_class = -1;
  core::Decision decision = core::Decision::kNonCriticalPass;
  double confidence = 0.0;
};

/// Confidence tolerance of the output check: loose enough for a legal
/// change of the remainder's rounding, far tighter than any class change.
inline constexpr double kConfidenceTolerance = 1e-3;
/// Inputs whose top-2 logits are closer than this are not pinned: a legal
/// rounding change could flip their class.
inline constexpr double kMinLogitMargin = 1e-3;

std::vector<Pin> load_pins(const std::string& path);
bool matches_pin(const core::HybridClassification& r, const Pin& pin);

/// Top-1 minus top-2 logit of the plain CNN on `image`.
double logit_margin(const core::HybridNetwork& net,
                    const tensor::Tensor& image);

/// The fault-campaign inputs: a tilted stop sign and a campaign seed base
/// per variant, with pinned outcome summaries.
inline constexpr std::size_t kCampaignVariants = 8;
inline constexpr std::size_t kComputeRuns = 4;     ///< per compute campaign
inline constexpr std::size_t kComputeShard = 2;    ///< runs per shard
/// Runs per memory campaign: a memory campaign takes about as long as a
/// compute campaign.
inline constexpr std::size_t kMemoryRuns = 384;
inline constexpr std::size_t kMemoryShard = 96;
/// The compute campaign consumes only the summary, so it skips per-op
/// report assembly, as campaign sweeps do.
inline constexpr core::BatchOptions kCampaignOptions{
    core::RemainderMode::kFanned, reliable::ReportMode::kStatsOnly};

/// The campaign inputs, one per variant.
std::vector<tensor::Tensor> campaign_images();
std::uint64_t campaign_seed_base(std::size_t variant);
core::MemoryCampaignConfig memory_campaign_config();

struct CampaignPin {
  std::size_t variant = 0;
  faultsim::CampaignSummary compute;
  faultsim::MemoryCampaignSummary memory;
};
std::vector<CampaignPin> load_campaign_pins(const std::string& path);

/// Seeded permutation of [0, n) (splitmix64-driven Fisher-Yates).
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);

/// The judge of the compute campaign: a run is correct when it matches
/// the fault-free golden classification's class and decision.
faultsim::Outcome judge_against(const core::HybridClassification& golden,
                                const core::HybridClassification& r);

// ------------------------------------------------------------- reports

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;  ///< pins, bit-identity and summaries held
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir = "perfbench/expected";
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Pinned inputs of a network, rendered, in the run's seeded order.
struct InputPool {
  std::vector<Pin> pins;               ///< pinned universe entries
  std::vector<tensor::Tensor> images;  ///< images[i] renders pins[i]
  std::vector<std::size_t> order;      ///< seeded visiting order
};
InputPool make_inputs(const Options& opt, NetKind kind);

/// Base of the per-image fault seeds of a run.
std::uint64_t fault_seed_base(std::uint64_t seed);

// ------------------------------------------------------------ campaigns

/// One fabric campaign: its merged summary, fabric counters and wall time.
template <typename Summary>
struct CampaignRun {
  Summary summary{};
  fabric::FabricStats stats;
  double seconds = 0.0;
  bool complete = false;
};

/// Networks of the fault campaigns: the armed network for compute faults,
/// a clean one for the memory campaign and the goldens. `images` are the
/// rendered campaign_images(); rendering is not part of set-up.
struct CampaignRig {
  CampaignRig(const Options& opt, std::vector<tensor::Tensor> images);

  /// Durable single-worker fabric config; removes any stale checkpoint.
  fabric::FabricConfig fabric_config(std::uint64_t shard_size,
                                     const std::string& tag) const;
  /// A compute campaign of `runs` runs (shards of kComputeShard) on
  /// `variant`, through fabric::run_classify_campaign.
  CampaignRun<faultsim::CampaignSummary> run_compute(
      std::size_t variant, std::size_t runs, const std::string& tag) const;
  /// A memory campaign of `runs` runs (shards of kMemoryShard) on
  /// `variant`, through fabric::run_memory_campaign.
  CampaignRun<faultsim::MemoryCampaignSummary> run_memory(
      std::size_t variant, std::size_t runs, const std::string& tag) const;
  /// The compute campaign's judge for `variant`.
  [[nodiscard]] std::function<faultsim::Outcome(
      std::size_t, const core::HybridClassification&)>
  judge(std::size_t variant) const;

  core::HybridNetwork armed;
  core::HybridNetwork clean;
  core::MemoryFaultCampaign memory;
  std::string work_dir;
  std::vector<tensor::Tensor> images;
  std::vector<core::HybridClassification> goldens;
};

/// Runs one workload end to end (trace off) or its traced layer profile
/// (trace on) and returns the report. Prints human-readable lines on the
/// way; the caller prints the final JSON line.
Report run_workload(const Options& opt);

/// Writes the pin files for the shipped inputs into `data_dir`.
int write_pins(const Options& opt);

/// Median wall time of a fixed nn::ref::gemm call, in ms — a host-speed
/// reference printed at the start and end of every run. Never used to
/// scale a metric.
double host_reference_ms();

// ------------------------------------------------------- traced probes

/// Inputs shared by the probes of one run.
struct ProbeInputs {
  const core::HybridNetwork* net = nullptr;   ///< the workload's network
  const std::vector<tensor::Tensor>* images = nullptr;
  const std::vector<Pin>* pins = nullptr;     ///< pins[i] is images[i]
  std::vector<std::size_t> order;             ///< seeded visiting order
  std::uint64_t fault_seed_base = 1;
  std::size_t pool = 1;
};

/// classify() re-derived from its public stages under spans, checked
/// bit-identical to classify() on the same image and seed.
void probe_stages(const ProbeInputs& in, double budget_s, Tracer& tracer,
                  Report& report);
/// Serial per-image time against classify_batch wall time on the pool.
void probe_fanout(const ProbeInputs& in, std::size_t batch, Report& report);
/// Traced closed loop through serve::InferenceService (sign96).
void probe_serve(const Options& opt, double budget_s, Tracer& tracer,
                 Report& report);
/// Armed decomposition, fabric vs direct-range campaigns, and the memory
/// fault primitives (sign96).
void probe_campaign(const Options& opt, double budget_s, Tracer& tracer,
                    Report& report);

}  // namespace perfbench
