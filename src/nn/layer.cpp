#include "nn/layer.hpp"

#include <stdexcept>

namespace hybridcnn::nn {

tensor::Tensor Layer::backward(const tensor::Tensor& /*grad_output*/,
                               LayerCache& /*cache*/) {
  throw std::logic_error("backward not implemented for layer '" + name() +
                         "'");
}

void Layer::zero_grad() {
  for (const Param& p : params()) {
    if (p.grad != nullptr) p.grad->fill(0.0f);
  }
}

}  // namespace hybridcnn::nn
