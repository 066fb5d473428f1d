// Centroid-to-edge radial distance series (the paper's Figure 3 signal).
//
// "The time-series of a shape is generated by the distance from the
// centroid of the shape to the edge of the shape." For each of `samples`
// equally spaced angles a ray is marched from the centroid and the
// distance to the farthest shape pixel along the ray is recorded. Regular
// polygons map to characteristic periodic series: an octagon produces
// eight smooth peaks (the corners), which SAX then symbolises.
//
// The ray is defined as a march of half-pixel steps out to the image
// edge. The implementation searches only the steps before the ray passes
// the set pixels' bounding box and returns exactly the distance the full
// march would; the exactness argument is at RayScanner in radial.cpp.
#pragma once

#include <span>
#include <vector>

#include "runtime/workspace.hpp"
#include "vision/centroid.hpp"
#include "vision/mask.hpp"

namespace hybridcnn::vision {

/// Unit direction of one ray: dy = sin(theta), dx = cos(theta).
struct RayDirection {
  double dy = 0.0;
  double dx = 1.0;
};

/// The `samples` ray directions at theta = 2*pi*s/samples, s = 0..samples-1,
/// exactly as the radial_distance_series overloads without a table compute
/// them (empty for samples == 0).
std::vector<RayDirection> ray_directions(std::size_t samples);

/// Precomputed-ray overload: out[s] is the distance along rays[s].
/// Allocation-free. Throws std::invalid_argument for an empty `rays` or
/// when out.size() != rays.size().
void radial_distance_series(ConstMaskView mask, const Centroid& c,
                            std::span<const RayDirection> rays,
                            std::span<double> out);

/// Explicit-scratch overload: radial distance series of `mask` around
/// `c`, sampled at out.size() angles over [0, 2*pi). Allocation-free.
/// Throws std::invalid_argument for an empty out span.
void radial_distance_series(ConstMaskView mask, const Centroid& c,
                            std::span<double> out);

/// Radial distance series of `mask` around `c`, sampled at `samples`
/// angles over [0, 2*pi). Throws std::invalid_argument for samples == 0.
std::vector<double> radial_distance_series(const BinaryMask& mask,
                                           const Centroid& c,
                                           std::size_t samples);

/// Explicit-scratch overload: largest component -> centroid -> series
/// into `out` (out.size() samples), with the component mask drawn from
/// `ws`. Returns the number of samples written: out.size(), or 0 when
/// the mask has no set pixels (out is untouched in that case).
std::size_t shape_signature(ConstMaskView mask, std::span<double> out,
                            runtime::Workspace& ws);

/// Convenience: largest component -> centroid -> series. Returns an empty
/// vector when the mask has no set pixels.
std::vector<double> shape_signature(const BinaryMask& mask,
                                    std::size_t samples);

}  // namespace hybridcnn::vision
