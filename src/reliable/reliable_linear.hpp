// Reliably executed fully-connected layer.
//
// The paper limits its evaluation to one convolution layer but names the
// harnessing of subsequent layers as the direction of further work
// (Section V). ReliableLinear extends Algorithm 3's qualified
// multiply-accumulate scheme to dense layers so hybrid partitions can
// place the reliability boundary after any layer.
//
// A dense layer is a convolution whose kernel covers its whole input, so
// the layer runs on the conv engine: weights [out, in] are held as a
// 1 x in kernel [out, 1, 1, in] over a [1, 1, in] input (stride 1, no
// padding). The qualified order is the dense loop's (bias first, then
// inputs 0..in-1, for each output in turn), the fault-to-fault walk,
// the clean-window gate and the raw kernels are the conv's,
// and only the shapes and the report's stage are translated here.
#pragma once

#include "reliable/executor.hpp"
#include "reliable/reliable_conv.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::reliable {

/// Qualified dense layer: y = W x + b with every scalar operation executed
/// through an overloaded executor, single-op rollback and a leaky bucket.
class ReliableLinear {
 public:
  /// Weights [out, in], bias [out]. Throws std::invalid_argument on
  /// inconsistent shapes.
  ReliableLinear(tensor::Tensor weights, tensor::Tensor bias,
                 ReliabilityPolicy policy = {});

  /// Input must be rank-1 of length `in` (std::invalid_argument
  /// otherwise). Runs ReliableConv2d::forward on the 1 x in view, so the
  /// contract is the conv's, including custom executors falling back to
  /// the generic path and ReportMode::kStatsOnly; the report's stage is
  /// "reliable_linear".
  [[nodiscard]] ReliableResult forward(
      const tensor::Tensor& input, Executor& exec,
      ReportMode mode = ReportMode::kFull) const;

  /// Independent virtual-dispatch dense loop, the per-op oracle forward()
  /// is diffed against (see ReliableConv2d::forward_generic).
  [[nodiscard]] ReliableResult forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const;

  /// Golden reference with identical operation order.
  [[nodiscard]] tensor::Tensor reference_forward(
      const tensor::Tensor& input) const;

  /// True if the weights or the bias hold a NaN; see
  /// ReliableConv2d::params_hold_nan().
  [[nodiscard]] bool params_hold_nan() const noexcept {
    return conv_.params_hold_nan();
  }

  /// The conv's channel-lane pack, null for fewer outputs than a vector
  /// (see ReliableConv2d::channel_pack). Exposed for the dispatch tests.
  [[nodiscard]] const detail::WeightPack* channel_pack() const noexcept {
    return conv_.channel_pack();
  }

 private:
  [[nodiscard]] tensor::Tensor conv_input(const tensor::Tensor& input) const;

  ReliableConv2d conv_;  // weights [out, 1, 1, in]
};

}  // namespace hybridcnn::reliable
