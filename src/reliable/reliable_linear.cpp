#include "reliable/reliable_linear.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "reliable/checkpoint.hpp"
#include "reliable/leaky_bucket.hpp"

namespace hybridcnn::reliable {

namespace {

void validate_linear_input(const tensor::Tensor& input, std::size_t in_n) {
  if (input.shape().rank() != 1 || input.shape()[0] != in_n) {
    throw std::invalid_argument("ReliableLinear: input must be [" +
                                std::to_string(in_n) + "]");
  }
}

/// The dense layer as a conv: weights [out, in] become the 1 x in kernel
/// [out, 1, 1, in], stride 1, no padding.
ReliableConv2d as_conv(tensor::Tensor weights, tensor::Tensor bias,
                       ReliabilityPolicy policy) {
  if (weights.shape().rank() != 2) {
    throw std::invalid_argument("ReliableLinear: weights must be [out, in]");
  }
  if (bias.shape().rank() != 1 || bias.shape()[0] != weights.shape()[0]) {
    throw std::invalid_argument("ReliableLinear: bias must be [out]");
  }
  weights.reshape(tensor::Shape{weights.shape()[0], 1, 1, weights.shape()[1]});
  return ReliableConv2d(std::move(weights), std::move(bias), ConvSpec{1, 0},
                        policy);
}

/// The conv's [out, 1, 1] result as the dense layer's [out].
ReliableResult as_linear(ReliableResult result) {
  result.output.reshape(tensor::Shape{result.output.count()});
  result.report.stage = "reliable_linear";
  return result;
}

}  // namespace

ReliableLinear::ReliableLinear(tensor::Tensor weights, tensor::Tensor bias,
                               ReliabilityPolicy policy)
    : conv_(as_conv(std::move(weights), std::move(bias), policy)) {}

tensor::Tensor ReliableLinear::conv_input(const tensor::Tensor& input) const {
  const std::size_t in_n = conv_.weights().shape()[3];
  validate_linear_input(input, in_n);
  tensor::Tensor view = input;
  view.reshape(tensor::Shape{1, 1, in_n});
  return view;
}

ReliableResult ReliableLinear::forward(const tensor::Tensor& input,
                                       Executor& exec,
                                       ReportMode mode) const {
  return as_linear(conv_.forward(conv_input(input), exec, mode));
}

ReliableResult ReliableLinear::forward_generic(const tensor::Tensor& input,
                                               Executor& exec) const {
  const tensor::Tensor& weights = conv_.weights();
  const tensor::Tensor& bias = conv_.bias();
  const ReliabilityPolicy& policy = conv_.policy();
  const std::size_t out_n = weights.shape()[0];
  const std::size_t in_n = weights.shape()[3];
  validate_linear_input(input, in_n);

  ReliableResult result{tensor::Tensor(tensor::Shape{out_n}), {}};
  ExecutionReport& report = result.report;
  report.stage = "reliable_linear";
  report.scheme = exec.name();

  LeakyBucket bucket(policy.bucket_factor, policy.bucket_ceiling);
  std::int64_t op_index = 0;

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
      (void)cp.rollback();
      ++report.rollbacks;
      if (bucket.record_error()) return std::nullopt;
      if (attempt + 1 >= policy.max_retries_per_op) return std::nullopt;
      ++report.retries;
    }
  };

  for (std::size_t o = 0; o < out_n; ++o) {
    ScalarCheckpoint acc(bias[o]);
    for (std::size_t i = 0; i < in_n; ++i) {
      const float x = input[i];
      const float w = weights[o * in_n + i];

      ScalarCheckpoint prod(0.0f);
      const auto p = run_qualified([&] { return exec.mul(x, w); }, prod);
      ++op_index;
      if (!p) {
        report.ok = false;
        report.failed_op_index = op_index - 1;
        report.bucket_peak = bucket.peak();
        report.bucket_exhausted = bucket.exhausted();
        result.output[o] = acc.value();
        return result;
      }

      const float before = acc.value();
      const auto s =
          run_qualified([&] { return exec.add(before, *p); }, acc);
      ++op_index;
      if (!s) {
        report.ok = false;
        report.failed_op_index = op_index - 1;
        report.bucket_peak = bucket.peak();
        report.bucket_exhausted = bucket.exhausted();
        result.output[o] = acc.value();
        return result;
      }
    }
    result.output[o] = acc.value();
  }

  report.bucket_peak = bucket.peak();
  report.bucket_exhausted = bucket.exhausted();
  return result;
}

tensor::Tensor ReliableLinear::reference_forward(
    const tensor::Tensor& input) const {
  tensor::Tensor out = conv_.reference_forward(conv_input(input));
  out.reshape(tensor::Shape{out.count()});
  return out;
}

}  // namespace hybridcnn::reliable
