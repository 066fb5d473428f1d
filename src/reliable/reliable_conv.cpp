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

void ReliableConv2d::set_weights(tensor::Tensor weights) {
  if (!(weights.shape() == weights_.shape())) {
    throw std::invalid_argument(
        "ReliableConv2d::set_weights: shape mismatch, expected " +
        weights_.shape().str() + " got " + weights.shape().str());
  }
  weights_ = std::move(weights);
  ++weight_generation_;
  params_hold_nan_ = detail::params_hold_nan(weights_, bias_);
}

std::shared_ptr<const detail::WeightPack> ReliableConv2d::channel_pack()
    const {
  // Decided before the lock: convs the rule keeps off channel lanes (the
  // qualifier's shared Sobel, the kill-switch) never touch the mutex.
  if (!detail::channel_lanes_selected(spec_.stride, weights_.shape()[0])) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(pack_mutex_);
  if (!pack_ || pack_->generation != weight_generation_) {
    pack_ = std::make_shared<const detail::WeightPack>(
        detail::build_weight_pack(weights_.shape()[0], weights_.shape()[1],
                                  weights_.shape()[2], weights_.shape()[3],
                                  weights_.data().data(),
                                  bias_.data().data(), weight_generation_));
  }
  return pack_;
}

std::uint64_t ReliableConv2d::mac_count(const tensor::Shape& in) const {
  const tensor::Shape out = output_shape(in);
  // The valid-tap count of one output coordinate separates into
  // rows(oy) * cols(ox), so the full sum is the product of the two
  // per-axis totals — closed-form per-row arithmetic instead of walking
  // every (oy, ox, ky, kx) tap.
  const std::uint64_t row_taps = detail::total_valid_taps(
      out[1], spec_.stride, spec_.pad, weights_.shape()[2], in[1]);
  const std::uint64_t col_taps = detail::total_valid_taps(
      out[2], spec_.stride, spec_.pad, weights_.shape()[3], in[2]);
  return static_cast<std::uint64_t>(out[0]) * in[0] * row_taps * col_taps;
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
  const auto pack = channel_pack();
  const std::uint64_t ops = 2 * plan.macs();  // mul + accumulate per MAC
  const bool windows =
      !params_hold_nan_ && !detail::holds_nan(in, input.count());
  const std::uint64_t granted = windows ? exec.take_clean(ops) : 0;
  if (windows && granted == ops) {
    detail::conv_raw_compute(plan, pack.get(), in, wgt, b,
                             result.output.data().data());
    if (mode == ReportMode::kFull) {
      result.report.logical_ops = ops;
      result.report.commits = ops;
    }
    return result;
  }

  detail::with_concrete_executor(scheme, exec, [&](auto& concrete) {
    if (mode == ReportMode::kFull) {
      detail::conv_forward_qualified<true>(plan, pack.get(), in, wgt, b,
                                           policy_, windows, granted,
                                           concrete, result);
    } else {
      detail::conv_forward_qualified<false>(plan, pack.get(), in, wgt, b,
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

faultsim::CampaignSummary ReliableConv2d::forward_campaign(
    const tensor::Tensor& input, std::size_t runs,
    const std::function<std::unique_ptr<Executor>(std::size_t)>& make_exec,
    const std::function<faultsim::Outcome(std::size_t, const ReliableResult&,
                                          Executor&)>& classify,
    ReportMode mode, runtime::ComputeContext& ctx) const {
  // Clean windows hit the packed raw kernel from every worker at once;
  // build the cached pack serially up front instead.
  prepare_fast_path();
  return faultsim::run_campaign(
      runs,
      [&](std::size_t run) {
        const auto exec = make_exec(run);
        const ReliableResult result = forward(input, *exec, mode);
        return classify(run, result, *exec);
      },
      ctx);
}

tensor::Tensor ReliableConv2d::reference_forward(
    const tensor::Tensor& input) const {
  const tensor::Shape out_shape = output_shape(input.shape());
  const detail::ConvPlan plan(out_shape, input.shape(), weights_.shape(),
                              spec_.stride, spec_.pad);
  tensor::Tensor out(out_shape);
  // Same operation order as forward() so results are bit-identical.
  const auto pack = channel_pack();
  detail::conv_raw_compute(plan, pack.get(), input.data().data(),
                           weights_.data().data(), bias_.data().data(),
                           out.data().data());
  return out;
}

// ------------------------------------------------------------ layer DMR

LayerDmrConv2d::LayerDmrConv2d(tensor::Tensor weights, tensor::Tensor bias,
                               ConvSpec spec, ReliabilityPolicy policy)
    : inner_(std::move(weights), std::move(bias), spec, policy) {}

namespace {

/// Runs the layer once through the executor's (possibly faulty) raw
/// arithmetic with no per-op qualification — the execution style that
/// layer-granular redundancy wraps. Virtual-dispatch variant; writes into
/// the caller's buffer so attempts reuse their allocations.
void unqualified_forward_generic(const detail::ConvPlan& plan,
                                 const float* input, const float* weights,
                                 const float* bias, Executor& exec,
                                 ExecutionReport& report, float* out) {
  for (std::size_t o = 0; o < plan.out_c; ++o) {
    const float b = bias[o];
    for (std::size_t oy = 0; oy < plan.out_h; ++oy) {
      const detail::TapRange ry = plan.row_taps[oy];
      for (std::size_t ox = 0; ox < plan.out_w; ++ox) {
        const detail::TapRange rx = plan.col_taps[ox];
        float acc = b;
        for (std::size_t c = 0; c < plan.in_c; ++c) {
          for (std::size_t ky = ry.begin; ky < ry.end; ++ky) {
            const std::size_t iy = oy * plan.stride + ky - plan.pad;
            const std::size_t in_base = (c * plan.in_h + iy) * plan.in_w;
            const float* w_row =
                weights + ((o * plan.in_c + c) * plan.kh + ky) * plan.kw;
            for (std::size_t kx = rx.begin; kx < rx.end; ++kx) {
              const std::size_t ix = ox * plan.stride + kx - plan.pad;
              const float p = exec.mul(input[in_base + ix], w_row[kx]).value;
              acc = exec.add(acc, p).value;
              report.logical_ops += 2;
            }
          }
        }
        out[(o * plan.out_h + oy) * plan.out_w + ox] = acc;
      }
    }
  }
}

/// Shared layer-DMR control loop: `pass(buffer, report)` executes one
/// unqualified layer attempt into the buffer, accounting into the
/// result's report. Attempt buffers are allocated once and reused; the
/// agreeing (or best-effort) attempt is moved into the result.
template <typename Pass>
ReliableResult layer_dmr_loop(const ReliableConv2d& inner,
                              const tensor::Shape& out_shape,
                              const std::string& scheme_label,
                              const Pass& pass) {
  ReliableResult result{tensor::Tensor(), {}};
  ExecutionReport& report = result.report;
  report.stage = "layer_dmr_conv2d";
  report.scheme = scheme_label;

  LeakyBucket bucket(inner.policy().bucket_factor,
                     inner.policy().bucket_ceiling);

  tensor::Tensor first(out_shape);
  tensor::Tensor second(out_shape);
  for (std::uint32_t attempt = 0;; ++attempt) {
    pass(first, report);
    pass(second, report);
    if (tensor::bit_identical(first, second)) {
      bucket.record_success();
      if (attempt > 0) ++report.corrected_errors;
      ++report.commits;
      result.output = std::move(first);
      report.bucket_peak = bucket.peak();
      return result;
    }
    ++report.detected_errors;
    ++report.rollbacks;  // rollback distance: the entire layer
    if (bucket.record_error() ||
        attempt + 1 >= inner.policy().max_retries_per_op) {
      report.ok = false;
      report.bucket_peak = bucket.peak();
      report.bucket_exhausted = bucket.exhausted();
      report.failed_op_index = 0;
      result.output = std::move(first);  // best effort; marked failed
      return result;
    }
    ++report.retries;
  }
}

}  // namespace

ReliableResult LayerDmrConv2d::forward(const tensor::Tensor& input,
                                       Executor& exec) const {
  const Scheme scheme = exec.scheme_kind();
  if (scheme == Scheme::kCustom) return forward_generic(input, exec);

  const tensor::Shape out_shape = inner_.output_shape(input.shape());
  const detail::ConvPlan plan(out_shape, input.shape(),
                              inner_.weights().shape(), inner_.spec().stride,
                              inner_.spec().pad);
  const float* in = input.data().data();
  const float* wgt = inner_.weights().data().data();
  const float* b = inner_.bias().data().data();

  const auto pack = inner_.channel_pack();
  const bool windows =
      !inner_.params_hold_nan() && !detail::holds_nan(in, input.count());
  const std::uint64_t ops = 2 * (2 * plan.macs());  // two layer passes
  std::uint64_t credit = windows ? exec.take_clean(ops) : 0;
  if (windows && credit == ops) {
    // Both attempts are granted clean windows: they agree by
    // construction, so one raw computation serves as the committed layer.
    ReliableResult result{tensor::Tensor(out_shape), {}};
    ExecutionReport& report = result.report;
    report.stage = "layer_dmr_conv2d";
    report.scheme = "layer-dmr(" + exec.name() + ")";
    detail::conv_raw_compute(plan, pack.get(), in, wgt, b,
                             result.output.data().data());
    report.logical_ops = ops;
    ++report.commits;
    return result;
  }

  // The granted prefix is the first pass's credit (and the second's, if
  // it reaches past the first).
  return layer_dmr_loop(
      inner_, out_shape, "layer-dmr(" + exec.name() + ")",
      [&](tensor::Tensor& buffer, ExecutionReport& report) {
        detail::with_concrete_executor(scheme, exec, [&](auto& concrete) {
          detail::conv_unqualified_inline(plan, pack.get(), in, wgt, b,
                                          windows, credit, concrete, report,
                                          buffer.data().data());
        });
      });
}

ReliableResult LayerDmrConv2d::forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const {
  const tensor::Shape out_shape = inner_.output_shape(input.shape());
  const detail::ConvPlan plan(out_shape, input.shape(),
                              inner_.weights().shape(), inner_.spec().stride,
                              inner_.spec().pad);
  const float* in = input.data().data();
  const float* wgt = inner_.weights().data().data();
  const float* b = inner_.bias().data().data();

  return layer_dmr_loop(
      inner_, out_shape, "layer-dmr(" + exec.name() + ")",
      [&](tensor::Tensor& buffer, ExecutionReport& report) {
        unqualified_forward_generic(plan, in, wgt, b, exec, report,
                                    buffer.data().data());
      });
}

}  // namespace hybridcnn::reliable
