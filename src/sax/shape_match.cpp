#include "sax/shape_match.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sax/breakpoints.hpp"

namespace hybridcnn::sax {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// Shared corner-counting core; `smooth` is caller-provided scratch of
/// series.size() doubles (the circular moving-average buffer).
int count_corners_core(std::span<const double> series,
                       std::span<double> smooth, double prominence_frac) {
  const std::size_t n = series.size();
  if (n < 8) return 0;

  // Circular moving-average smoothing. The taps of sample i start at
  // (i - smooth_w) mod n and advance with a wrapped index; smooth_w < n.
  const std::size_t smooth_w = std::max<std::size_t>(1, n / 64);
  std::span<double> s = smooth;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j = i >= smooth_w ? i - smooth_w : i + n - smooth_w;
    double acc = 0.0;
    for (std::size_t k = 0; k <= 2 * smooth_w; ++k) {
      acc += series[j];
      j = j + 1 == n ? 0 : j + 1;
    }
    s[i] = acc / static_cast<double>(2 * smooth_w + 1);
  }

  double mean = 0.0;
  for (const double v : s) mean += v;
  mean /= static_cast<double>(n);
  if (mean <= 0.0) return 0;
  const double prominence = prominence_frac * mean;

  const std::size_t w = std::max<std::size_t>(2, n / 16);
  int corners = 0;
  std::size_t i = 0;
  while (i < n) {
    bool is_peak = true;
    double local_min = s[i];
    // w < n, so each probe wraps at most once.
    for (std::size_t k = 1; k <= w && is_peak; ++k) {
      const double left = s[i >= k ? i - k : i + n - k];
      const double right = s[i + k < n ? i + k : i + k - n];
      if (left > s[i] || right > s[i]) is_peak = false;
      local_min = std::min(local_min, std::min(left, right));
    }
    if (is_peak && (s[i] - local_min) >= prominence) {
      ++corners;
      i += w;  // skip the rest of this peak's neighbourhood
    } else {
      ++i;
    }
  }
  return corners;
}

}  // namespace

void polygon_signature(std::size_t sides, std::span<double> out,
                       double rotation) {
  if (sides < 3) {
    throw std::invalid_argument("polygon_signature: sides must be >= 3");
  }
  if (out.empty()) {
    throw std::invalid_argument("polygon_signature: samples must be >= 1");
  }
  const std::size_t samples = out.size();
  const double sector = kTwoPi / static_cast<double>(sides);
  const double apothem_angle = sector / 2.0;

  for (std::size_t i = 0; i < samples; ++i) {
    double theta = kTwoPi * static_cast<double>(i) /
                       static_cast<double>(samples) -
                   rotation;
    theta = std::fmod(std::fmod(theta, sector) + sector, sector);
    // Distance from centre to the edge of a unit-circumradius polygon.
    out[i] = std::cos(apothem_angle) / std::cos(theta - apothem_angle);
  }
}

std::vector<double> polygon_signature(std::size_t sides, std::size_t samples,
                                      double rotation) {
  if (samples == 0) {
    throw std::invalid_argument("polygon_signature: samples must be >= 1");
  }
  std::vector<double> series(samples, 0.0);
  polygon_signature(sides, std::span<double>(series), rotation);
  return series;
}

std::string shape_template_word(std::size_t sides, const SaxConfig& config,
                                std::size_t samples) {
  return sax_word(polygon_signature(sides, samples), config);
}

int count_corners(std::span<const double> series, runtime::Workspace& ws,
                  double prominence_frac) {
  runtime::Workspace::Scope scope(ws);
  const std::span<double> smooth = ws.alloc_span_as<double>(series.size());
  return count_corners_core(series, smooth, prominence_frac);
}

int count_corners(const std::vector<double>& series, double prominence_frac) {
  std::vector<double> smooth(series.size(), 0.0);
  return count_corners_core(series, smooth, prominence_frac);
}

ShapeMatcher::ShapeMatcher(std::size_t sides, std::size_t samples,
                           ShapeMatchConfig config)
    : sides_(sides),
      samples_(samples),
      config_(config),
      table_(config.sax.alphabet),
      breakpoints_(gaussian_breakpoints(config.sax.alphabet)) {
  if (config_.sax.word_length == 0) {
    throw std::invalid_argument("ShapeMatcher: word_length must be >= 1");
  }
  if (samples_ < config_.sax.word_length) {
    throw std::invalid_argument(
        "ShapeMatcher: samples shorter than the SAX word length");
  }
  // Circular letter rotation only models shifts by whole PAA segments; a
  // sign tilted by a fraction of a segment changes the segment means and
  // hence the word. The templates therefore span one polygon sector (the
  // signature is periodic in the sector) at kShapeSubRotations
  // sub-segment rotations; match() keeps the minimum distance.
  const double sector = kTwoPi / static_cast<double>(sides_);
  templates_.reserve(kShapeSubRotations);
  for (std::size_t r = 0; r < kShapeSubRotations; ++r) {
    const double rot = sector * static_cast<double>(r) /
                       static_cast<double>(kShapeSubRotations);
    templates_.push_back(
        sax_word(polygon_signature(sides_, samples_, rot), config_.sax));
  }
  const std::size_t n = config_.sax.word_length;
  template_symbols_.resize(kShapeSubRotations * 2 * n);
  for (std::size_t r = 0; r < kShapeSubRotations; ++r) {
    symbols_twice(templates_[r], config_.sax.alphabet,
                  std::span<std::uint8_t>(template_symbols_)
                      .subspan(r * 2 * n, 2 * n));
  }
}

ShapeMatchResult ShapeMatcher::match(std::span<const double> series,
                                     runtime::Workspace& ws) const {
  ShapeMatchResult result;
  if (series.size() < config_.sax.word_length) return result;
  if (series.size() != samples_) {
    throw std::invalid_argument(
        "ShapeMatcher::match: series length != samples()");
  }

  runtime::Workspace::Scope scope(ws);
  const std::span<char> word =
      ws.alloc_span_as<char>(config_.sax.word_length);
  sax_word(series, config_.sax, breakpoints_, word, ws);
  result.word.assign(word.data(), word.size());

  // The word's distance rows are built (and its symbols checked) once,
  // then scanned against every template's precomputed symbols.
  const std::size_t n = word.size();
  const std::span<double> rows =
      ws.alloc_span_as<double>(n * table_.alphabet());
  distance_rows(std::string_view(word.data(), n), table_, rows);
  result.distance = -1.0;
  for (std::size_t r = 0; r < kShapeSubRotations; ++r) {
    std::size_t letter_rot = 0;
    const double d = mindist_rotation_invariant(
        rows, std::span<const std::uint8_t>(template_symbols_).subspan(
                  r * 2 * n, 2 * n),
        samples_, table_, &letter_rot);
    if (result.distance < 0.0 || d < result.distance) {
      result.distance = d;
      result.rotation = letter_rot;
      result.template_word = templates_[r];
    }
  }
  result.corners = count_corners(series, ws);

  const bool corners_ok =
      std::abs(result.corners - static_cast<int>(sides_)) <=
      config_.corner_tolerance;
  result.match = result.distance <= config_.mindist_threshold && corners_ok;
  return result;
}

ShapeMatchResult match_shape(const std::vector<double>& series,
                             std::size_t sides,
                             const ShapeMatchConfig& config) {
  if (series.size() < config.sax.word_length) return {};
  const ShapeMatcher matcher(sides, series.size(), config);
  return matcher.match(std::span<const double>(series),
                       runtime::thread_scratch());
}

}  // namespace hybridcnn::sax
