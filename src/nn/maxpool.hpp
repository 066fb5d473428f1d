// Max pooling with argmax routing for the backward pass.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace hybridcnn::nn {

/// Max pooling over batched NCHW input with a square window. AlexNet uses
/// overlapping pooling (window 3, stride 2), which this supports.
/// Cache usage: `in_shape`, `argmax` (flat input index per output
/// element); the inference path recomputes maxima without recording them.
class MaxPool final : public Layer {
 public:
  MaxPool(std::size_t window, std::size_t stride);

  [[nodiscard]] tensor::Tensor infer(const tensor::Tensor& input,
                                     runtime::Workspace& ws) const override;
  tensor::Tensor forward_train(const tensor::Tensor& input,
                               LayerCache& cache) override;
  using Layer::forward_train;
  tensor::Tensor backward(const tensor::Tensor& grad_output,
                          LayerCache& cache) override;

  [[nodiscard]] std::string name() const override { return "maxpool"; }

  [[nodiscard]] std::size_t out_size(std::size_t in) const;

 private:
  /// NCHW output shape; throws std::invalid_argument on other ranks or a
  /// window larger than the input.
  [[nodiscard]] tensor::Shape pooled_shape(const tensor::Shape& in) const;

  std::size_t window_;
  std::size_t stride_;
};

}  // namespace hybridcnn::nn
