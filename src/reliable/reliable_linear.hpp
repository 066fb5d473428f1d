// Reliably executed fully-connected layer.
//
// The paper limits its evaluation to one convolution layer but names the
// harnessing of subsequent layers as the direction of further work
// (Section V). ReliableLinear extends Algorithm 3's qualified
// multiply-accumulate scheme to dense layers so hybrid partitions can
// place the reliability boundary after any layer.
#pragma once

#include <memory>
#include <mutex>

#include "reliable/executor.hpp"
#include "reliable/leaky_bucket.hpp"
#include "reliable/reliable_conv.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable {

namespace detail {
// Neuron-lane repacked weights for the dense fault-free fast path;
// defined in reliable/static_dispatch.hpp.
struct LinearWeightPack;
}  // namespace detail

/// Qualified dense layer: y = W x + b with every scalar operation executed
/// through an overloaded executor, single-op rollback and a leaky bucket.
class ReliableLinear {
 public:
  /// Weights [out, in], bias [out]. Throws std::invalid_argument on
  /// inconsistent shapes.
  ReliableLinear(tensor::Tensor weights, tensor::Tensor bias,
                 ReliabilityPolicy policy = {});

  /// Input must be rank-1 of length `in`. Same contract as
  /// ReliableConv2d::forward, including the once-per-call scheme dispatch
  /// onto devirtualized kernels, the counting clean-window gate (a
  /// fault-to-fault walk over the output neurons when the whole forward
  /// is not granted; neurons inside the credit are vectorized across
  /// output neurons where the target allows) and the
  /// ReportMode::kStatsOnly variant.
  [[nodiscard]] ReliableResult forward(
      const tensor::Tensor& input, Executor& exec,
      ReportMode mode = ReportMode::kFull) const;

  /// Retained virtual-dispatch qualified path (oracle / custom-scheme
  /// fallback); see ReliableConv2d::forward_generic.
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

  /// Golden reference with identical operation order.
  [[nodiscard]] tensor::Tensor reference_forward(
      const tensor::Tensor& input) const;

  [[nodiscard]] const tensor::Tensor& weights() const noexcept {
    return weights_;
  }
  [[nodiscard]] const tensor::Tensor& bias() const noexcept { return bias_; }

  /// Replaces the layer's weights (shape must match; throws
  /// std::invalid_argument otherwise) and bumps the weight generation,
  /// invalidating the cached neuron-lane pack. Setup-time only.
  void set_weights(tensor::Tensor weights);

  [[nodiscard]] std::uint64_t weight_generation() const noexcept {
    return weight_generation_;
  }

  /// True if the current weights or the bias hold a NaN; see
  /// ReliableConv2d::params_hold_nan().
  [[nodiscard]] bool params_hold_nan() const noexcept {
    return params_hold_nan_;
  }

  /// Neuron-lane repacked weights for the fault-free fast path; same
  /// lifetime/caching contract as ReliableConv2d::channel_pack(). Null
  /// on targets without vectors.
  [[nodiscard]] std::shared_ptr<const detail::LinearWeightPack>
  neuron_pack() const;

  /// Pre-builds the cached pack (see ReliableConv2d::prepare_fast_path).
  void prepare_fast_path() const { (void)neuron_pack(); }

 private:
  tensor::Tensor weights_;  // [out, in]
  tensor::Tensor bias_;     // [out]
  ReliabilityPolicy policy_;
  std::uint64_t weight_generation_ = 0;
  bool params_hold_nan_ = false;
  mutable std::mutex pack_mutex_;
  mutable std::shared_ptr<const detail::LinearWeightPack> pack_;
};

}  // namespace hybridcnn::reliable
