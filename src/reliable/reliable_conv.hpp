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
#pragma once

#include <cstdint>
#include <memory>

#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/report.hpp"
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
/// per frame). Immutable: weights, bias, spec, policy, the NaN flag and
/// the channel-lane pack are fixed at construction, so any number of
/// threads may run const forwards on one shared kernel without a lock.
/// Other weights mean a new kernel.
class ReliableConv2d {
 public:
  /// Constructs from weights [out_c, in_c, kh, kw] and bias [out_c], and
  /// builds the channel-lane pack when the kernel rule picks channel
  /// lanes. Throws std::invalid_argument on inconsistent shapes.
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

  /// True if the weights or the bias hold a NaN, recorded at
  /// construction. Such a layer's forwards take no clean window: every
  /// output runs the per-op path, whose NaN payloads the raw kernels do
  /// not reproduce.
  [[nodiscard]] bool params_hold_nan() const noexcept {
    return params_hold_nan_;
  }

  /// The channel-lane repacked weights for the fault-free fast path,
  /// built at construction. Null whenever the kernel rule does not pick
  /// channel lanes for this conv (detail::channel_lanes_selected), that
  /// is for stride-1 convs with fewer maps than a vector. Engine-internal;
  /// exposed for the dispatch tests.
  [[nodiscard]] const detail::WeightPack* channel_pack() const noexcept {
    return pack_.get();
  }

  /// A no-op: the pack is built at construction. It stays only so the
  /// perfbench harness, which calls it, keeps compiling (as
  /// core::RemainderMode does).
  void prepare_fast_path() const noexcept {}

 private:
  tensor::Tensor weights_;  // OIHW
  tensor::Tensor bias_;     // O
  ConvSpec spec_;
  ReliabilityPolicy policy_;
  bool params_hold_nan_ = false;
  std::shared_ptr<const detail::WeightPack> pack_;  // null: pixel lanes
};

}  // namespace hybridcnn::reliable
