#include "reliable/reliable_conv.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "reliable/checkpoint.hpp"
#include "reliable/static_dispatch.hpp"

namespace hybridcnn::reliable {

namespace {

void validate_conv_params(const tensor::Tensor& weights,
                          const tensor::Tensor& bias) {
  if (weights.shape().rank() != 4) {
    throw std::invalid_argument("ReliableConv2d: weights must be OIHW, got " +
                                weights.shape().str());
  }
  if (bias.shape().rank() != 1 || bias.shape()[0] != weights.shape()[0]) {
    throw std::invalid_argument(
        "ReliableConv2d: bias must be [out_channels]");
  }
}

}  // namespace

ReliableConv2d::ReliableConv2d(tensor::Tensor weights, tensor::Tensor bias,
                               ConvSpec spec, ReliabilityPolicy policy)
    : weights_(std::move(weights)),
      bias_(std::move(bias)),
      spec_(spec),
      policy_(policy) {
  validate_conv_params(weights_, bias_);
  if (spec_.stride == 0) {
    throw std::invalid_argument("ReliableConv2d: stride must be >= 1");
  }
  params_hold_nan_ = detail::params_hold_nan(weights_, bias_);
  const tensor::Shape& w = weights_.shape();
  if (detail::channel_lanes_selected(spec_.stride, w[0])) {
    pack_ = std::make_shared<const detail::WeightPack>(
        detail::build_weight_pack(w[0], w[1], w[2], w[3],
                                  weights_.data().data(),
                                  bias_.data().data()));
  }
}

tensor::Shape ReliableConv2d::output_shape(const tensor::Shape& in) const {
  if (in.rank() != 3) {
    throw std::invalid_argument("ReliableConv2d: input must be CHW, got " +
                                in.str());
  }
  if (in[0] != weights_.shape()[1]) {
    throw std::invalid_argument(
        "ReliableConv2d: input channels " + std::to_string(in[0]) +
        " do not match weights " + weights_.shape().str());
  }
  const std::size_t kh = weights_.shape()[2];
  const std::size_t kw = weights_.shape()[3];
  const std::size_t padded_h = in[1] + 2 * spec_.pad;
  const std::size_t padded_w = in[2] + 2 * spec_.pad;
  if (padded_h < kh || padded_w < kw) {
    throw std::invalid_argument("ReliableConv2d: kernel larger than input");
  }
  const std::size_t oh = (padded_h - kh) / spec_.stride + 1;
  const std::size_t ow = (padded_w - kw) / spec_.stride + 1;
  return tensor::Shape{weights_.shape()[0], oh, ow};
}

std::uint64_t ReliableConv2d::mac_count(const tensor::Shape& in) const {
  return detail::ConvPlan(output_shape(in), in, weights_.shape(),
                          spec_.stride, spec_.pad)
      .macs();
}

ReliableResult ReliableConv2d::forward(const tensor::Tensor& input,
                                       Executor& exec,
                                       ReportMode mode) const {
  const Scheme scheme = exec.scheme_kind();
  if (scheme == Scheme::kCustom) {
    // Unknown executor subclass: only the virtual interface is available
    // (and only the full-report oracle path exists for it).
    return forward_generic(input, exec);
  }

  const tensor::Shape out_shape = output_shape(input.shape());
  const detail::ConvPlan plan(out_shape, input.shape(), weights_.shape(),
                              spec_.stride, spec_.pad);
  ReliableResult result{tensor::Tensor(out_shape), {}};
  result.report.stage = "reliable_conv2d";
  result.report.scheme = exec.name();

  const float* in = input.data().data();
  const float* wgt = weights_.data().data();
  const float* b = bias_.data().data();

  // One gate: when the executor grants the whole forward (no injector,
  // kNone, p <= 0, no faulty PE, or simply no fault landing), the
  // qualified schedule collapses to raw arithmetic in the identical order,
  // vectorized and fanned across the pool as the conv's shape picks.
  // Otherwise the granted prefix is the qualified kernel's first credit,
  // and it walks on from fault to fault. An input, weight or bias holding
  // a NaN takes no window (detail::holds_nan).
  const std::uint64_t ops = 2 * plan.macs();  // mul + accumulate per MAC
  const bool windows =
      !params_hold_nan_ && !detail::holds_nan(in, input.count());
  const std::uint64_t granted = windows ? exec.take_clean(ops) : 0;
  if (windows && granted == ops) {
    detail::conv_raw_compute(plan, pack_.get(), in, wgt, b,
                             result.output.data().data());
    if (mode == ReportMode::kFull) {
      result.report.logical_ops = ops;
      result.report.commits = ops;
    }
    return result;
  }

  detail::with_concrete_executor(scheme, exec, [&](auto& concrete) {
    if (mode == ReportMode::kFull) {
      detail::conv_forward_qualified<true>(plan, pack_.get(), in, wgt, b,
                                           policy_, windows, granted,
                                           concrete, result);
    } else {
      detail::conv_forward_qualified<false>(plan, pack_.get(), in, wgt, b,
                                            policy_, windows, granted,
                                            concrete, result);
    }
  });
  return result;
}

ReliableResult ReliableConv2d::forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const {
  const tensor::Shape out_shape = output_shape(input.shape());
  ReliableResult result{tensor::Tensor(out_shape), {}};
  ExecutionReport& report = result.report;
  report.stage = "reliable_conv2d";
  report.scheme = exec.name();

  LeakyBucket bucket(policy_.bucket_factor, policy_.bucket_ceiling);

  const std::size_t out_c = out_shape[0];
  const std::size_t out_h = out_shape[1];
  const std::size_t out_w = out_shape[2];
  const std::size_t in_c = input.shape()[0];
  const std::size_t in_h = input.shape()[1];
  const std::size_t in_w = input.shape()[2];
  const std::size_t kh = weights_.shape()[2];
  const std::size_t kw = weights_.shape()[3];

  std::int64_t op_index = 0;

  // Executes one qualified operation with single-op rollback (Algorithm 3
  // body). Returns std::nullopt when the error is persistent: either the
  // bucket reached its ceiling or the per-op retry cap was exceeded.
  const auto run_qualified =
      [&](const auto& op, ScalarCheckpoint& cp) -> std::optional<float> {
    ++report.logical_ops;
    for (std::uint32_t attempt = 0;; ++attempt) {
      const Qualified<float> q = op();
      if (q.ok) {
        bucket.record_success();
        if (attempt > 0) ++report.corrected_errors;
        cp.commit(q.value);
        ++report.commits;
        return q.value;
      }
      ++report.detected_errors;
      (void)cp.rollback();  // discard the unqualified value
      ++report.rollbacks;
      if (bucket.record_error()) {
        return std::nullopt;  // persistent: ceiling reached
      }
      if (attempt + 1 >= policy_.max_retries_per_op) {
        return std::nullopt;  // persistent: retry cap
      }
      ++report.retries;  // rollback distance: exactly one operation
    }
  };

  const auto abort_with = [&](std::int64_t failed_at) {
    report.ok = false;
    report.failed_op_index = failed_at;
    report.bucket_peak = bucket.peak();
    report.bucket_exhausted = bucket.exhausted();
  };

  for (std::size_t o = 0; o < out_c; ++o) {
    const float b = bias_[o];
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        // The accumulator starts from the bias, loaded from (assumed
        // ECC-protected) parameter memory; all arithmetic on it is
        // qualified.
        ScalarCheckpoint acc(b);
        bool aborted = false;
        for (std::size_t c = 0; c < in_c && !aborted; ++c) {
          for (std::size_t ky = 0; ky < kh && !aborted; ++ky) {
            const auto iy =
                static_cast<std::int64_t>(oy * spec_.stride + ky) -
                static_cast<std::int64_t>(spec_.pad);
            if (iy < 0 || iy >= static_cast<std::int64_t>(in_h)) continue;
            for (std::size_t kx = 0; kx < kw; ++kx) {
              const auto ix =
                  static_cast<std::int64_t>(ox * spec_.stride + kx) -
                  static_cast<std::int64_t>(spec_.pad);
              if (ix < 0 || ix >= static_cast<std::int64_t>(in_w)) continue;

              const float x = input[(c * in_h + static_cast<std::size_t>(iy)) *
                                        in_w +
                                    static_cast<std::size_t>(ix)];
              const float w =
                  weights_[((o * in_c + c) * kh + ky) * kw + kx];

              // Qualified multiply, checkpointed into a product cell.
              ScalarCheckpoint prod(0.0f);
              const auto p =
                  run_qualified([&] { return exec.mul(x, w); }, prod);
              ++op_index;
              if (!p) {
                abort_with(op_index - 1);
                aborted = true;
                break;
              }

              // Qualified accumulate onto the committed accumulator.
              const float before = acc.value();
              const auto s = run_qualified(
                  [&] { return exec.add(before, *p); }, acc);
              ++op_index;
              if (!s) {
                abort_with(op_index - 1);
                aborted = true;
                break;
              }
            }
          }
        }
        result.output[(o * out_h + oy) * out_w + ox] = acc.value();
        if (aborted) {
          // Error propagation stops here: committed prefix is returned,
          // the failure is reported, nothing downstream consumes
          // unqualified values.
          return result;
        }
      }
    }
  }

  report.bucket_peak = bucket.peak();
  report.bucket_exhausted = bucket.exhausted();
  return result;
}

tensor::Tensor ReliableConv2d::reference_forward(
    const tensor::Tensor& input) const {
  const tensor::Shape out_shape = output_shape(input.shape());
  const detail::ConvPlan plan(out_shape, input.shape(), weights_.shape(),
                              spec_.stride, spec_.pad);
  tensor::Tensor out(out_shape);
  // Same operation order as forward() so results are bit-identical.
  detail::conv_raw_compute(plan, pack_.get(), input.data().data(),
                           weights_.data().data(), bias_.data().data(),
                           out.data().data());
  return out;
}

}  // namespace hybridcnn::reliable
