// Reliable convolution kernel: the paper's Algorithm 3.
//
// Calculates a 2-D convolution layer where every multiplication and
// accumulation is executed through an overloaded, qualified operator
// (Algorithm 1 or 2). The kernel "assumes that every operation fails
// unless explicitly asserted otherwise"; a failed operation is retried
// after a rollback to the last committed accumulator value (rollback
// distance = one operation) and feeds the leaky-bucket error counter.
// Exit conditions are success or failure: failure is reported once the
// bucket reaches its ceiling, i.e. the error is considered persistent.
//
// A layer-granular DMR variant (LayerDmrConv2d) is provided for the
// rollback-distance ablation: it re-executes the *entire* layer on
// mismatch, the strategy the paper argues against for deadline-bound
// systems.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "faultsim/campaign.hpp"
#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/report.hpp"
#include "runtime/compute_context.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable {

namespace detail {
// Channel-lane repacked weights for the fault-free fast path; defined in
// reliable/static_dispatch.hpp (which includes this header).
struct WeightPack;
}  // namespace detail

/// Spatial parameters of a convolution.
struct ConvSpec {
  std::size_t stride = 1;
  std::size_t pad = 0;
};

/// Parameters of the reliability envelope around a kernel.
struct ReliabilityPolicy {
  std::uint32_t bucket_factor = 2;
  std::uint32_t bucket_ceiling = 4;
  /// Hard cap on retries of one operation, guarding forward progress under
  /// permanent faults even with large buckets.
  std::uint32_t max_retries_per_op = 16;
};

/// Output of a reliable kernel: the tensor plus the execution report.
struct ReliableResult {
  tensor::Tensor output;
  ExecutionReport report;
};

/// Reliably executed convolution layer (Algorithm 3 generalised from one
/// convolution operation to a full layer). Weights are OIHW, bias is O,
/// input and output are CHW (single image — the hybrid pipeline operates
/// per frame).
class ReliableConv2d {
 public:
  /// Constructs from weights [out_c, in_c, kh, kw] and bias [out_c].
  /// Throws std::invalid_argument on inconsistent shapes.
  ReliableConv2d(tensor::Tensor weights, tensor::Tensor bias, ConvSpec spec,
                 ReliabilityPolicy policy = {});

  /// Executes the layer with qualified operations from `exec`.
  /// On bucket exhaustion the report has ok == false and the output is
  /// whatever had been committed up to the failed operation (explicitly
  /// bounded error propagation).
  ///
  /// Dispatches once per call on the executor's scheme; custom executors
  /// fall back to forward_generic(). The three library schemes pass one
  /// counting clean-window gate (Executor::take_clean): a forward granted
  /// as a whole runs as raw arithmetic (channel or pixel lanes, picked
  /// from the conv's shape, where the target has vectors); otherwise a
  /// devirtualized kernel walks from fault to fault, spending the granted
  /// ops as a credit. Pixels inside the credit are computed the same way,
  /// only the op each fault lands on runs the per-op envelope, and after
  /// it the kernel asks the gate again for the rest of the forward.
  /// Outputs, reports, executor stats and injector state are
  /// bit-identical across the paths — the contract
  /// tests/test_static_dispatch.cpp and tests/test_simd_dispatch.cpp
  /// enforce.
  ///
  /// `mode` selects the report detail (see reliable::ReportMode):
  /// kStatsOnly skips the per-op report counters for campaign sweeps
  /// that only consume the summary; output bits, report.ok and all
  /// executor/injector statistics are unaffected. Custom executors
  /// always produce a full report.
  [[nodiscard]] ReliableResult forward(
      const tensor::Tensor& input, Executor& exec,
      ReportMode mode = ReportMode::kFull) const;

  /// The retained virtual-dispatch qualified path: every mul/add goes
  /// through Executor's virtual interface, per-op retry lambda and
  /// per-tap boundary checks. Semantically identical to forward(); kept
  /// as the oracle the specialized kernels are diffed against and as the
  /// path for out-of-library executor schemes.
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

  /// Golden reference: plain non-instrumented convolution (fault-free
  /// scalar arithmetic, same loop order so results are bit-comparable).
  [[nodiscard]] tensor::Tensor reference_forward(
      const tensor::Tensor& input) const;

  /// Fault-injection campaign over this layer: `runs` independent
  /// qualified executions split across the thread pool. `make_exec(run)`
  /// builds the run-local executor (seed it from `run` — it may be called
  /// from any worker, in any order); `classify(run, result, exec)` maps
  /// the finished run to a dependability outcome. Outcomes are reduced in
  /// run order, so the summary is bit-identical at every thread count.
  /// `mode` is forwarded to every per-run forward(); kStatsOnly sweeps
  /// produce the identical summary without per-op report assembly.
  [[nodiscard]] faultsim::CampaignSummary forward_campaign(
      const tensor::Tensor& input, std::size_t runs,
      const std::function<std::unique_ptr<Executor>(std::size_t)>& make_exec,
      const std::function<faultsim::Outcome(std::size_t,
                                            const ReliableResult&, Executor&)>&
          classify,
      ReportMode mode = ReportMode::kFull,
      runtime::ComputeContext& ctx =
          runtime::ComputeContext::global()) const;

  /// Output shape for a given input shape; validates channel count.
  [[nodiscard]] tensor::Shape output_shape(const tensor::Shape& in) const;

  [[nodiscard]] const tensor::Tensor& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const tensor::Tensor& bias() const noexcept { return bias_; }
  [[nodiscard]] const ConvSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const ReliabilityPolicy& policy() const noexcept {
    return policy_;
  }

  /// Logical multiply-accumulate count for one forward on `in` shape.
  [[nodiscard]] std::uint64_t mac_count(const tensor::Shape& in) const;

  /// Replaces the layer's weights (shape must match; throws
  /// std::invalid_argument otherwise) and bumps the weight generation,
  /// invalidating the cached channel-lane weight pack. Not safe against
  /// concurrent forwards — like mutating any layer parameter, it is a
  /// setup-time operation.
  void set_weights(tensor::Tensor weights);

  /// Monotonic counter of weight replacements; the channel-lane pack is
  /// keyed on it.
  [[nodiscard]] std::uint64_t weight_generation() const noexcept {
    return weight_generation_;
  }

  /// True if the current weights or the bias hold a NaN, recorded once
  /// per weight generation. Such a layer's forwards take no clean window:
  /// every output runs the per-op path, whose NaN payloads the raw
  /// kernels do not reproduce.
  [[nodiscard]] bool params_hold_nan() const noexcept {
    return params_hold_nan_;
  }

  /// The channel-lane repacked weights for the fault-free fast path,
  /// built lazily (thread-safe) and cached until the weight generation
  /// changes. Null whenever the kernel rule does not pick channel lanes
  /// for this conv (detail::channel_lanes_selected): stride-1 convs with
  /// fewer maps than a vector, targets without vectors, and the closed
  /// kill-switch; those calls take no lock. Engine-internal; exposed for
  /// the dispatch tests and layer-granular wrappers.
  [[nodiscard]] std::shared_ptr<const detail::WeightPack> channel_pack()
      const;

  /// Pre-builds the cached pack (when the rule uses one) so batch and
  /// campaign paths pay the repack once up front instead of contending on
  /// first concurrent use.
  void prepare_fast_path() const { (void)channel_pack(); }

 private:
  tensor::Tensor weights_;  // OIHW
  tensor::Tensor bias_;     // O
  ConvSpec spec_;
  ReliabilityPolicy policy_;
  std::uint64_t weight_generation_ = 0;
  bool params_hold_nan_ = false;
  mutable std::mutex pack_mutex_;
  mutable std::shared_ptr<const detail::WeightPack> pack_;
};

/// Layer-granular DMR: runs the whole (unqualified) layer twice through
/// the faulty compute unit and compares; on mismatch rolls back and
/// re-executes the entire layer. Used by the rollback-distance ablation.
class LayerDmrConv2d {
 public:
  LayerDmrConv2d(tensor::Tensor weights, tensor::Tensor bias, ConvSpec spec,
                 ReliabilityPolicy policy = {});

  /// `exec` supplies the faulty raw arithmetic via a SimplexExecutor-style
  /// single execution; redundancy is applied at layer granularity.
  /// Scheme-dispatched like ReliableConv2d::forward; the two attempt
  /// buffers are allocated once and reused across retries, and the
  /// agreeing attempt is moved (not copied) into the result.
  [[nodiscard]] ReliableResult forward(const tensor::Tensor& input,
                                       Executor& exec) const;

  /// Virtual-dispatch oracle path (same buffer-reuse shape, raw ops go
  /// through Executor's virtual mul/add).
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

 private:
  ReliableConv2d inner_;
};

}  // namespace hybridcnn::reliable
