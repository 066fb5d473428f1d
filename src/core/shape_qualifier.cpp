#include "core/shape_qualifier.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "nn/filters.hpp"
#include "vision/edge_map.hpp"
#include "vision/gray.hpp"
#include "vision/radial.hpp"

namespace hybridcnn::core {

namespace {

/// Builds the 2-filter (Sobel-x, Sobel-y) reliable convolution used for
/// full-resolution dependable edge extraction.
reliable::ReliableConv2d make_sobel_conv(
    const reliable::ReliabilityPolicy& policy) {
  tensor::Tensor weights(tensor::Shape{2, 1, 3, 3});
  const tensor::Tensor kx = nn::sobel_kernel(3, nn::SobelAxis::kX,
                                             /*normalized=*/false);
  const tensor::Tensor ky = nn::sobel_kernel(3, nn::SobelAxis::kY,
                                             /*normalized=*/false);
  for (std::size_t i = 0; i < 9; ++i) {
    weights[i] = kx[i];
    weights[9 + i] = ky[i];
  }
  tensor::Tensor bias(tensor::Shape{2});
  return {std::move(weights), std::move(bias),
          reliable::ConvSpec{/*stride=*/1, /*pad=*/1}, policy};
}

}  // namespace

ShapeQualifier::ShapeQualifier(ShapeQualifierConfig config)
    : config_(config),
      sobel_conv_(make_sobel_conv(config.policy)),
      rays_(vision::ray_directions(config.samples)) {
  // The matcher precomputes the polygon templates; configurations it
  // rejects (e.g. samples shorter than the SAX word) fall back to the
  // per-call match path, which reproduces the legacy error behaviour.
  try {
    matcher_.emplace(config_.sides, config_.samples, config_.match);
  } catch (const std::invalid_argument&) {
    matcher_.reset();
  }
}

QualifierVerdict ShapeQualifier::qualify(const tensor::Tensor& image,
                                         reliable::Executor& exec) const {
  return qualify(image, exec, runtime::thread_scratch());
}

QualifierVerdict ShapeQualifier::qualify(const tensor::Tensor& image,
                                         reliable::Executor& exec,
                                         runtime::Workspace& ws) const {
  tensor::Tensor gray = vision::to_gray(image);
  gray.reshape(tensor::Shape{1, gray.shape()[0], gray.shape()[1]});

  const reliable::ReliableResult edges = sobel_conv_.forward(gray, exec);

  // Magnitude map from the two dependable responses.
  const std::size_t h = edges.output.shape()[1];
  const std::size_t w = edges.output.shape()[2];
  runtime::Workspace::Scope scope(ws);
  const std::span<float> magnitude = ws.alloc_span_as<float>(h * w);
  for (std::size_t i = 0; i < h * w; ++i) {
    const float gx = edges.output[i];
    const float gy = edges.output[h * w + i];
    magnitude[i] = std::sqrt(gx * gx + gy * gy);
  }
  return qualify_feature_map(magnitude, h, w, edges.report, ws);
}

QualifierVerdict ShapeQualifier::qualify_feature_map(
    const tensor::Tensor& feature_map,
    const reliable::ExecutionReport& report) const {
  const auto& sh = feature_map.shape();
  if (sh.rank() != 2) {
    throw std::invalid_argument("qualify_feature_map: expected [H, W]");
  }
  return qualify_feature_map(feature_map.data(), sh[0], sh[1], report,
                             runtime::thread_scratch());
}

QualifierVerdict ShapeQualifier::qualify_feature_map(
    std::span<const float> feature_map, std::size_t h, std::size_t w,
    const reliable::ExecutionReport& report, runtime::Workspace& ws) const {
  QualifierVerdict verdict;
  verdict.report = report;
  verdict.reliable = report.ok;
  if (!report.ok) {
    // A failed reliable execution can never qualify anything: the paper's
    // design rule that unqualified values must not propagate.
    return verdict;
  }

  runtime::Workspace::Scope scope(ws);
  const vision::MaskView silhouette{h, w, ws.alloc_as<std::uint8_t>(h * w)};
  vision::mask_from_feature_map(feature_map, h, w, silhouette, ws);

  // The silhouette is already the largest 4-connected component, so the
  // series is taken around its centroid without labelling it again.
  const std::span<double> series =
      ws.alloc_span_as<double>(config_.samples);
  std::size_t got = 0;
  if (const std::optional<vision::Centroid> c = vision::centroid(silhouette)) {
    vision::radial_distance_series(silhouette, *c, rays_, series);
    got = series.size();
  }
  if (got < config_.match.sax.word_length) {
    return verdict;  // no usable shape found; not a match
  }

  if (matcher_) {
    verdict.shape = matcher_->match(series.first(got), ws);
  } else {
    // matcher_ is only absent when its construction rejected the config.
    // The samples-shorter-than-word case never reaches here (the early
    // return above fires first), so this branch exists purely to rethrow
    // the legacy per-call invalid_argument (sides < 3, word_length == 0,
    // bad alphabet) at use time instead of construction time — it never
    // produces a verdict.
    verdict.shape = sax::match_shape(
        std::vector<double>(series.begin(), series.begin() + got),
        config_.sides, config_.match);
  }
  verdict.match = verdict.shape.match;
  return verdict;
}

}  // namespace hybridcnn::core
