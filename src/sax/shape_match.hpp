// Shape matching on radial signatures: analytic polygon templates, SAX
// word comparison and corner counting.
//
// This is the paper's "Qualifier" logic: the stop sign's octagonal
// silhouette yields a radial time series with eight corners (Fig. 3);
// reducing it with SAX gives a word whose rotation-invariant MINDIST to
// the analytic octagon template — a surrogate function whose "upper and
// lower bounds can be determined a priori" — decides whether the shape is
// qualified. Corner counting is a second, independent plausibility check.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/workspace.hpp"
#include "sax/mindist.hpp"
#include "sax/sax_word.hpp"

namespace hybridcnn::sax {

/// Sub-segment template rotations evaluated per match (see match_shape).
inline constexpr std::size_t kShapeSubRotations = 16;

/// Explicit-scratch overload: analytic radial signature of a regular
/// polygon with `sides` sides, unit circumradius, sampled at out.size()
/// angles, rotated by `rotation` radians. sides >= 3 and out.size() >= 1;
/// throws std::invalid_argument otherwise.
void polygon_signature(std::size_t sides, std::span<double> out,
                       double rotation = 0.0);

/// Allocating wrapper over the scratch overload.
std::vector<double> polygon_signature(std::size_t sides, std::size_t samples,
                                      double rotation = 0.0);

/// SAX word of the analytic polygon template.
std::string shape_template_word(std::size_t sides, const SaxConfig& config,
                                std::size_t samples = 360);

/// Explicit-scratch overload: counts prominent peaks (corners) in a
/// circular series, drawing the smoothing buffer from `ws`. A peak must
/// be the maximum of its circular neighbourhood (width samples/16) and
/// have prominence of at least `prominence_frac` of the series mean.
int count_corners(std::span<const double> series, runtime::Workspace& ws,
                  double prominence_frac = 0.04);

/// Allocating wrapper over the scratch overload.
int count_corners(const std::vector<double>& series,
                  double prominence_frac = 0.04);

/// Parameters of the octagon (or other polygon) qualifier decision.
struct ShapeMatchConfig {
  SaxConfig sax{32, 8};
  double mindist_threshold = 3.0;  ///< on z-normalised series units
  int corner_tolerance = 1;        ///< |observed - expected| allowed
};

/// Outcome of matching a measured radial signature against a polygon.
struct ShapeMatchResult {
  bool match = false;       ///< both SAX distance and corner test passed
  double distance = 0.0;    ///< rotation-invariant MINDIST to the template
  int corners = 0;          ///< prominent peaks observed
  std::string word;         ///< SAX word of the measured series
  std::string template_word;
  std::size_t rotation = 0; ///< best-matching circular rotation (letters)
};

/// Precomputed polygon matcher. Construction builds everything that does
/// not depend on the measured series — the symbol distance table, the
/// Gaussian breakpoints, and the SAX template words of the analytic
/// polygon at kShapeSubRotations sub-segment rotations with their symbol
/// indices — so steady-state match() builds the measured word's distance
/// rows once and draws only per-series scratch from a Workspace arena.
/// The rotation scan runs eight rotations at a time. This is
/// the batched-inference hot path: one ShapeMatcher lives inside each
/// ShapeQualifier and is shared (const, thread-safe) by all images.
class ShapeMatcher {
 public:
  /// `samples` is the radial-scan resolution every matched series must
  /// have. Requires sides >= 3, samples >= config.sax.word_length >= 1;
  /// throws std::invalid_argument otherwise.
  ShapeMatcher(std::size_t sides, std::size_t samples,
               ShapeMatchConfig config = {});

  /// Matches one measured series. Returns a default (no-match) result
  /// for series shorter than the SAX word length (the "no usable shape"
  /// case); otherwise series.size() must equal samples() — throws
  /// std::invalid_argument on mismatch. Bit-identical to match_shape().
  [[nodiscard]] ShapeMatchResult match(std::span<const double> series,
                                       runtime::Workspace& ws) const;

  [[nodiscard]] std::size_t sides() const noexcept { return sides_; }
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  [[nodiscard]] const ShapeMatchConfig& config() const noexcept {
    return config_;
  }

 private:
  std::size_t sides_;
  std::size_t samples_;
  ShapeMatchConfig config_;
  SymbolDistanceTable table_;
  std::vector<double> breakpoints_;
  std::vector<std::string> templates_;  // one word per sub-rotation
  /// symbols_twice of each template, 2 * word_length entries apiece.
  std::vector<std::uint8_t> template_symbols_;
};

/// Allocating wrapper: matches a measured series against the analytic
/// `sides`-gon template, rebuilding the templates per call.
ShapeMatchResult match_shape(const std::vector<double>& series,
                             std::size_t sides,
                             const ShapeMatchConfig& config = {});

}  // namespace hybridcnn::sax
