#include "vision/radial.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace hybridcnn::vision {

namespace {

RayDirection direction(std::size_t s, std::size_t samples) {
  constexpr double two_pi = 6.283185307179586476925286766559;
  const double theta =
      two_pi * static_cast<double>(s) / static_cast<double>(samples);
  return {std::sin(theta), std::cos(theta)};
}

/// std::llround's rounding (half away from zero) kept in a double and
/// inlined. Exact: v - trunc(v) is the exact fractional part of v.
double round_half_away(double v) {
  const double t = std::trunc(v);
  const double frac = v - t;
  if (frac >= 0.5) return t + 1.0;
  if (frac <= -0.5) return t - 1.0;
  return t;
}

/// Farthest set pixel along each ray from one centroid, bit-identical to
/// marching r = 0, 0.5, 1, ... <= hypot(H, W) from the centroid, stopping
/// at the first step that leaves the image and keeping the last step that
/// lands on a set pixel.
///
/// Why a bounded search finds the same step: along a ray the rounded
/// coordinates round(c + r*d) are monotone in r, because every operation
/// in them (multiplication by a fixed d, adding c, rounding) is. So each
/// of "not yet past the set pixels' bounding box in y" and "... in x" holds
/// on a prefix of the steps, as does "inside the image" when the march
/// starts inside it. Every set pixel lies in the box, and the box lies in
/// the image, so the steps the march visits before leaving the image that
/// can hit a set pixel all lie in the prefix of steps not past the box.
/// The distance at which the ray passes the box gives a step near the
/// prefix's last step k; a walk of the predicate up or down from there
/// finds k exactly, because the predicate is monotone. A backward scan
/// from k finds the last set pixel in the prefix, and that is the step
/// the march keeps.
class RayScanner {
 public:
  RayScanner(ConstMaskView mask, const Centroid& c) : mask_(mask), c_(c) {
    const double max_r = std::hypot(static_cast<double>(mask.height),
                                    static_cast<double>(mask.width));
    last_step_ = static_cast<std::size_t>(std::floor(2.0 * max_r));
    const double y0 = round_half_away(c.y);
    const double x0 = round_half_away(c.x);
    const bool start_inside = y0 >= 0.0 && x0 >= 0.0 &&
                              y0 < static_cast<double>(mask.height) &&
                              x0 < static_cast<double>(mask.width);
    any_hit_ = start_inside && find_box();
  }

  [[nodiscard]] double farthest(RayDirection d) const {
    if (!any_hit_ || !before_box_end(d, 0)) return 0.0;
    std::size_t end = box_exit_estimate(d);
    if (before_box_end(d, end)) {
      while (end < last_step_ && before_box_end(d, end + 1)) ++end;
    } else {
      do {
        --end;  // stops at 0 at the latest: before_box_end(d, 0) holds
      } while (!before_box_end(d, end));
    }
    for (std::size_t k = end; k > 0; --k) {
      const double r = 0.5 * static_cast<double>(k);
      const double y = round_half_away(c_.y + r * d.dy);
      const double x = round_half_away(c_.x + r * d.dx);
      if (mask_.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x))) {
        return r;
      }
    }
    return 0.0;
  }

 private:
  /// The step at which the unrounded ray c + r*d passes the box widened by
  /// half a pixel on the first axis, clamped to [0, last_step_]: usually
  /// within a step of the prefix's end. Only the walk's starting point.
  [[nodiscard]] std::size_t box_exit_estimate(RayDirection d) const {
    const auto axis_steps = [](double c, double lo, double hi, double dir) {
      if (dir > 0.0) return 2.0 * (hi + 0.5 - c) / dir;
      if (dir < 0.0) return 2.0 * (c - (lo - 0.5)) / -dir;
      return std::numeric_limits<double>::infinity();
    };
    const double steps = std::min(axis_steps(c_.y, y0_, y1_, d.dy),
                                  axis_steps(c_.x, x0_, x1_, d.dx));
    if (!(steps < static_cast<double>(last_step_))) return last_step_;
    return steps > 0.0 ? static_cast<std::size_t>(steps) : 0;
  }

  /// Whether step k has not yet passed the box in the ray's direction of
  /// travel. A NaN coordinate compares false, so it ends the prefix.
  [[nodiscard]] bool before_box_end(RayDirection d, std::size_t k) const {
    const double r = 0.5 * static_cast<double>(k);
    const double y = round_half_away(c_.y + r * d.dy);
    const double x = round_half_away(c_.x + r * d.dx);
    const bool y_ok = d.dy < 0.0 ? y >= y0_ : y <= y1_;
    const bool x_ok = d.dx < 0.0 ? x >= x0_ : x <= x1_;
    return y_ok && x_ok;
  }

  /// Inclusive bounding box of the set pixels; only each row's leading and
  /// trailing background is read. Returns false when no pixel is set.
  bool find_box() {
    const std::size_t w = mask_.width;
    std::size_t y0 = mask_.height;
    std::size_t y1 = 0;
    std::size_t x0 = w;
    std::size_t x1 = 0;
    for (std::size_t y = 0; y < mask_.height; ++y) {
      const std::uint8_t* row = mask_.data + y * w;
      const std::uint8_t* first =
          std::find_if(row, row + w, [](std::uint8_t v) { return v != 0; });
      if (first == row + w) continue;
      std::size_t last = w - 1;
      while (row[last] == 0) --last;
      y0 = std::min(y0, y);
      y1 = y;
      x0 = std::min(x0, static_cast<std::size_t>(first - row));
      x1 = std::max(x1, last);
    }
    y0_ = static_cast<double>(y0);
    y1_ = static_cast<double>(y1);
    x0_ = static_cast<double>(x0);
    x1_ = static_cast<double>(x1);
    return y0 < mask_.height;
  }

  ConstMaskView mask_;
  Centroid c_;
  std::size_t last_step_ = 0;  // largest k with 0.5 * k <= hypot(H, W)
  /// The march starts inside the image and the mask has a set pixel;
  /// otherwise every ray's distance is 0.
  bool any_hit_ = false;
  double y0_ = 0.0;
  double y1_ = 0.0;
  double x0_ = 0.0;
  double x1_ = 0.0;
};

}  // namespace

std::vector<RayDirection> ray_directions(std::size_t samples) {
  std::vector<RayDirection> rays(samples);
  for (std::size_t s = 0; s < samples; ++s) rays[s] = direction(s, samples);
  return rays;
}

void radial_distance_series(ConstMaskView mask, const Centroid& c,
                            std::span<const RayDirection> rays,
                            std::span<double> out) {
  if (rays.empty()) {
    throw std::invalid_argument("radial_distance_series: samples == 0");
  }
  if (out.size() != rays.size()) {
    throw std::invalid_argument(
        "radial_distance_series: out.size() != rays.size()");
  }
  const RayScanner scanner(mask, c);
  for (std::size_t s = 0; s < rays.size(); ++s) {
    out[s] = scanner.farthest(rays[s]);
  }
}

void radial_distance_series(ConstMaskView mask, const Centroid& c,
                            std::span<double> out) {
  if (out.empty()) {
    throw std::invalid_argument("radial_distance_series: samples == 0");
  }
  const RayScanner scanner(mask, c);
  for (std::size_t s = 0; s < out.size(); ++s) {
    out[s] = scanner.farthest(direction(s, out.size()));
  }
}

std::vector<double> radial_distance_series(const BinaryMask& mask,
                                           const Centroid& c,
                                           std::size_t samples) {
  if (samples == 0) {
    throw std::invalid_argument("radial_distance_series: samples == 0");
  }
  std::vector<double> series(samples, 0.0);
  radial_distance_series(mask.view(), c, std::span<double>(series));
  return series;
}

std::size_t shape_signature(ConstMaskView mask, std::span<double> out,
                            runtime::Workspace& ws) {
  runtime::Workspace::Scope scope(ws);
  const MaskView component{mask.height, mask.width,
                           ws.alloc_as<std::uint8_t>(mask.size())};
  largest_component(mask, component, ws);
  const std::optional<Centroid> c = centroid(ConstMaskView(component));
  if (!c) return 0;
  radial_distance_series(component, *c, out);
  return out.size();
}

std::vector<double> shape_signature(const BinaryMask& mask,
                                    std::size_t samples) {
  const BinaryMask component = largest_component(mask);
  const std::optional<Centroid> c = centroid(component);
  if (!c) return {};
  return radial_distance_series(component, *c, samples);
}

}  // namespace hybridcnn::vision
