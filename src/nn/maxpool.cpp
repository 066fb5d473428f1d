#include "nn/maxpool.hpp"

#include <stdexcept>

#include "runtime/compute_context.hpp"

namespace hybridcnn::nn {

MaxPool::MaxPool(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride) {
  if (window == 0 || stride == 0) {
    throw std::invalid_argument("MaxPool: window and stride must be >= 1");
  }
}

std::size_t MaxPool::out_size(std::size_t in) const {
  if (in < window_) throw std::invalid_argument("MaxPool: window > input");
  return (in - window_) / stride_ + 1;
}

tensor::Shape MaxPool::pooled_shape(const tensor::Shape& in) const {
  if (in.rank() != 4) {
    throw std::invalid_argument("MaxPool: expected NCHW, got " + in.str());
  }
  return tensor::Shape{in[0], in[1], out_size(in[2]), out_size(in[3])};
}

namespace {

/// Maximum of every window of one plane: forward_train's scan without its
/// argmax. Each window is read in the same order under the same strict
/// `>`, so NaN, signed zeros and ties resolve exactly as in training, and
/// the select is branch-free. kWindow/kStride fix the shape at compile
/// time (0 takes the runtime value): with both fixed every window
/// unrolls, which makes the shipped 3/2 and 2/2 pools several times
/// faster than the runtime-shaped loop.
template <std::size_t kWindow, std::size_t kStride>
void max_plane(const float* in, std::size_t in_w, float* out,
               std::size_t out_h, std::size_t out_w, std::size_t window_arg,
               std::size_t stride_arg) noexcept {
  const std::size_t window = kWindow != 0 ? kWindow : window_arg;
  const std::size_t stride = kStride != 0 ? kStride : stride_arg;
  for (std::size_t oy = 0; oy < out_h; ++oy) {
    const float* row = in + oy * stride * in_w;
    for (std::size_t ox = 0; ox < out_w; ++ox, ++out) {
      const float* win = row + ox * stride;
      float best = win[0];
      for (std::size_t wy = 0; wy < window; ++wy) {
        for (std::size_t wx = 0; wx < window; ++wx) {
          const float v = win[wy * in_w + wx];
          best = v > best ? v : best;
        }
      }
      *out = best;
    }
  }
}

}  // namespace

tensor::Tensor MaxPool::infer(const tensor::Tensor& input,
                              runtime::Workspace& /*ws*/) const {
  tensor::Tensor out(pooled_shape(input.shape()));
  const auto& in = input.shape();
  const std::size_t in_plane = in[2] * in[3];
  const std::size_t out_h = out.shape()[2];
  const std::size_t out_w = out.shape()[3];
  auto* const plane_fn = window_ == 3 && stride_ == 2   ? max_plane<3, 2>
                         : window_ == 2 && stride_ == 2 ? max_plane<2, 2>
                                                        : max_plane<0, 0>;
  const float* src = input.data().data();
  float* dst = out.data().data();
  runtime::ComputeContext::global().pool().parallel_for(
      0, in[0] * in[1], [&](std::size_t sc) {
        plane_fn(src + sc * in_plane, in[3], dst + sc * out_h * out_w, out_h,
                 out_w, window_, stride_);
      });
  return out;
}

tensor::Tensor MaxPool::forward_train(const tensor::Tensor& input,
                                      LayerCache& cache) {
  tensor::Tensor out(pooled_shape(input.shape()));
  const auto& in = input.shape();
  const std::size_t in_h = in[2];
  const std::size_t in_w = in[3];
  const std::size_t out_h = out.shape()[2];
  const std::size_t out_w = out.shape()[3];
  std::vector<std::size_t>& argmax = cache.argmax;
  argmax.assign(out.count(), 0);

  // Each (sample, channel) plane is independent; split across the pool.
  const std::size_t out_plane = out_h * out_w;
  runtime::ComputeContext::global().pool().parallel_for(
      0, in[0] * in[1], [&](std::size_t sc) {
        const std::size_t base = sc * in_h * in_w;
        std::size_t oi = sc * out_plane;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          for (std::size_t ox = 0; ox < out_w; ++ox, ++oi) {
            std::size_t best_idx =
                base + (oy * stride_) * in_w + ox * stride_;
            float best = input[best_idx];
            for (std::size_t wy = 0; wy < window_; ++wy) {
              for (std::size_t wx = 0; wx < window_; ++wx) {
                const std::size_t idx =
                    base + (oy * stride_ + wy) * in_w + (ox * stride_ + wx);
                if (input[idx] > best) {
                  best = input[idx];
                  best_idx = idx;
                }
              }
            }
            out[oi] = best;
            argmax[oi] = best_idx;
          }
        }
      });
  cache.in_shape = input.shape();
  return out;
}

tensor::Tensor MaxPool::backward(const tensor::Tensor& grad_output,
                                 LayerCache& cache) {
  if (cache.argmax.empty() || cache.in_shape.rank() != 4) {
    throw std::logic_error("MaxPool::backward before forward_train");
  }
  if (grad_output.count() != cache.argmax.size()) {
    throw std::invalid_argument("MaxPool::backward: shape mismatch");
  }
  const auto& in = cache.in_shape;
  tensor::Tensor grad(in);
  const std::size_t out_plane = cache.argmax.size() / (in[0] * in[1]);
  // argmax indices of one (sample, channel) plane stay inside that
  // plane's input slots, so the scatter is race-free per plane.
  runtime::ComputeContext::global().pool().parallel_for(
      0, in[0] * in[1], [&](std::size_t sc) {
        const std::size_t lo = sc * out_plane;
        for (std::size_t i = lo; i < lo + out_plane; ++i) {
          grad[cache.argmax[i]] += grad_output[i];
        }
      });
  return grad;
}

}  // namespace hybridcnn::nn
