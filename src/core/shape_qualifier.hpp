// Octagon shape qualifier: reliable Sobel edges -> silhouette -> radial
// signature -> SAX match (the paper's Fig. 2/3 pipeline).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/qualifier.hpp"
#include "reliable/reliable_conv.hpp"
#include "runtime/workspace.hpp"
#include "sax/shape_match.hpp"
#include "vision/radial.hpp"

namespace hybridcnn::core {

/// Where the qualifier takes its dependable edge information from.
enum class QualifierSource {
  /// Reliable 3x3 Sobel convolution on the full-resolution luminance
  /// image (default; the paper notes 227x227 is "barely acceptable for
  /// deterministic edge recognition", so resolution is precious).
  kFullResolution,
  /// The bifurcated dependable feature map produced by the reliably
  /// executed first CNN layer's single Sobel x/y/x filter — the paper's
  /// naive choice. Collapsing both gradient axes into one map leaves
  /// directional nulls on the shape boundary; the ablation bench shows
  /// this source failing, which is why it is not the default.
  kDependableFeatureMap,
  /// Extension: a PAIR of dependable conv1 filters (pure Sobel-x and
  /// Sobel-y) whose joint magnitude restores a gap-free boundary on the
  /// bifurcated path at a second feature map's cost.
  kDependableFeatureMapPair,
};

/// Parameters of the shape qualifier.
struct ShapeQualifierConfig {
  std::size_t sides = 8;          ///< octagon (stop sign)
  std::size_t samples = 360;      ///< radial scan resolution
  sax::ShapeMatchConfig match{};  ///< SAX word/alphabet/threshold
  reliable::ReliabilityPolicy policy{};
  QualifierSource source = QualifierSource::kFullResolution;
};

/// Deterministic, reliably executed shape qualifier.
///
/// Construction precomputes everything shared across images — the
/// reliable Sobel convolution weights, the radial scan's ray table (the
/// sin/cos direction of each of the `samples` rays) and the SAX
/// ShapeMatcher (distance table + polygon template words) — so the
/// per-image qualify paths only draw transient scratch from a
/// runtime::Workspace arena. The object is immutable after construction;
/// qualify calls are const and safe to run concurrently from
/// campaign/batch workers.
class ShapeQualifier final : public Qualifier {
 public:
  explicit ShapeQualifier(ShapeQualifierConfig config = {});

  /// Full pipeline from an image; the Sobel stage runs through `exec`.
  [[nodiscard]] QualifierVerdict qualify(
      const tensor::Tensor& image, reliable::Executor& exec) const override;

  /// Explicit-scratch overload of qualify(); vision/SAX intermediates
  /// come from `ws` (the reliable Sobel stage still produces owning
  /// tensors — reliable execution evidence outlives the call).
  [[nodiscard]] QualifierVerdict qualify(const tensor::Tensor& image,
                                         reliable::Executor& exec,
                                         runtime::Workspace& ws) const;

  /// Qualifies an already reliably-computed edge feature map [H, W]
  /// (the kDependableFeatureMap bifurcation). `report` is the reliable
  /// conv's execution report and is folded into the verdict.
  [[nodiscard]] QualifierVerdict qualify_feature_map(
      const tensor::Tensor& feature_map,
      const reliable::ExecutionReport& report) const;

  /// Explicit-scratch overload over a flat h x w feature-map plane.
  [[nodiscard]] QualifierVerdict qualify_feature_map(
      std::span<const float> feature_map, std::size_t h, std::size_t w,
      const reliable::ExecutionReport& report, runtime::Workspace& ws) const;

  [[nodiscard]] const ShapeQualifierConfig& config() const noexcept {
    return config_;
  }

 private:
  ShapeQualifierConfig config_;
  /// Absent when the configuration cannot form a SAX word (samples
  /// shorter than the word length) — those series never qualify anyway.
  std::optional<sax::ShapeMatcher> matcher_;
  reliable::ReliableConv2d sobel_conv_;
  /// vision::ray_directions(config_.samples); empty when samples == 0,
  /// which radial_distance_series rejects at use time.
  std::vector<vision::RayDirection> rays_;
};

}  // namespace hybridcnn::core
