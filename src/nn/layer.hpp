// Layer interface of the CNN engine.
//
// The engine is the library's stand-in for the paper's TensorFlow
// execution path: batched NCHW forward inference for AlexNet-class
// networks plus enough backpropagation to reproduce the paper's training
// experiments (Sobel pre-initialisation, filter freezing). Layers own
// their parameters and gradients and expose them generically so the SGD
// optimizer and the filter-surgery tools need no per-layer knowledge.
//
// Forward is split into two paths:
//
//   - infer(): const, re-entrant. Touches no layer state, draws any
//     calling-thread scratch from the Workspace it is handed, and may be
//     called on one shared model from any number of threads
//     concurrently. Layers that parallelise internally draw per-slot
//     arenas from the global ComputeContext inside their own parallel
//     regions.
//   - forward_train(): writes the state backward needs into the
//     caller-owned LayerCache instead of member fields; backward() reads
//     the same cache. One cache serves one forward/backward pair —
//     concurrent micro-batches use one cache context each.
//
// These are the only two forward paths: the historical mutating
// forward()/backward() wrappers (per-layer hidden cache) are gone.
#pragma once

#include <string>
#include <vector>

#include "nn/fwd_cache.hpp"
#include "tensor/tensor.hpp"

namespace hybridcnn::runtime {
class Workspace;
}  // namespace hybridcnn::runtime

namespace hybridcnn::nn {

/// A parameter tensor paired with its gradient accumulator.
struct Param {
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
  std::string name;
};

/// Base class for all layers.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  // ------------------------------------------------ const inference path

  /// Computes the layer output for a batched NCHW (or [N, features])
  /// input without touching any layer state. `ws` provides the calling
  /// thread's scratch arena. Safe to call concurrently on one shared
  /// layer. Throws std::invalid_argument on shape mismatch.
  [[nodiscard]] virtual tensor::Tensor infer(const tensor::Tensor& input,
                                             runtime::Workspace& ws) const = 0;

  /// Rvalue overload: layers whose output can reuse the (dead) input
  /// tensor — ReLU's in-place clamp, Dropout's identity, Flatten's
  /// reshape — avoid one full-activation allocation per call, which a
  /// chained inference (Sequential moving intermediates along) exploits.
  /// Bit-identical to the lvalue path. Default delegates to it.
  [[nodiscard]] virtual tensor::Tensor infer(tensor::Tensor&& input,
                                             runtime::Workspace& ws) const {
    return infer(static_cast<const tensor::Tensor&>(input), ws);
  }

  // ------------------------------------------- explicit-cache training

  /// Training forward: computes the output and records whatever backward
  /// needs into `cache` (never into members).
  virtual tensor::Tensor forward_train(const tensor::Tensor& input,
                                       LayerCache& cache) = 0;

  /// Rvalue overload: layers that cache their input for backward (conv,
  /// linear, lrn, relu) take ownership instead of deep-copying it, so a
  /// training step over a Sequential does no per-layer input copies.
  /// Default delegates to the const-lvalue overload.
  virtual tensor::Tensor forward_train(tensor::Tensor&& input,
                                       LayerCache& cache) {
    return forward_train(static_cast<const tensor::Tensor&>(input), cache);
  }

  /// Propagates the loss gradient using the state `cache` recorded;
  /// returns dL/dinput and accumulates parameter gradients. Default:
  /// unsupported (inference-only layer).
  virtual tensor::Tensor backward(const tensor::Tensor& grad_output,
                                  LayerCache& cache);

  // ----------------------------------------------------- parameters etc.

  /// Parameters with their gradients; empty for stateless layers.
  virtual std::vector<Param> params() { return {}; }

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Toggles training-mode behaviour (dropout masking under
  /// forward_train).
  virtual void set_training(bool training) { training_ = training; }
  [[nodiscard]] bool training() const noexcept { return training_; }

  /// Layer type name for diagnostics ("conv2d", "relu", ...).
  [[nodiscard]] virtual std::string name() const = 0;

 protected:
  bool training_ = false;
};

}  // namespace hybridcnn::nn
