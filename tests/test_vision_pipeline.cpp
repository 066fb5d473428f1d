// Golden regression tests for the deterministic vision pipeline
// (gray -> threshold -> sobel -> edge_map -> centroid) on small synthetic
// shape images, scratch-overload vs allocating-overload equivalence for
// every refactored sax/vision function, and bit-for-bit comparisons of the
// radial scan, morphology, labelling, Otsu and centroid against
// straightforward reference implementations kept in this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/shape_qualifier.hpp"
#include "data/renderer.hpp"
#include "data/shapes.hpp"
#include "runtime/workspace.hpp"
#include "sax/breakpoints.hpp"
#include "sax/paa.hpp"
#include "sax/sax_word.hpp"
#include "sax/shape_match.hpp"
#include "sax/znorm.hpp"
#include "tensor/tensor.hpp"
#include "vision/centroid.hpp"
#include "vision/edge_map.hpp"
#include "vision/gray.hpp"
#include "vision/mask.hpp"
#include "vision/radial.hpp"
#include "vision/sobel.hpp"
#include "vision/threshold.hpp"

namespace {

using namespace hybridcnn;
using tensor::Shape;
using tensor::Tensor;
using vision::BinaryMask;

/// [3, n, n] image: dark background with a bright axis-aligned square
/// covering [lo, hi) x [lo, hi).
Tensor square_image(std::size_t n, std::size_t lo, std::size_t hi) {
  Tensor img(Shape{3, n, n}, 0.1f);
  for (std::size_t y = lo; y < hi; ++y) {
    for (std::size_t x = lo; x < hi; ++x) {
      img.at3(0, y, x) = 0.9f;
      img.at3(1, y, x) = 0.8f;
      img.at3(2, y, x) = 0.7f;
    }
  }
  return img;
}

Tensor random_plane(std::mt19937& rng, std::size_t h, std::size_t w) {
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  Tensor t(Shape{h, w});
  for (std::size_t i = 0; i < t.count(); ++i) t[i] = dist(rng);
  return t;
}

BinaryMask random_mask(std::mt19937& rng, std::size_t h, std::size_t w,
                       double density) {
  std::uniform_real_distribution<double> dist(0.0, 1.0);
  BinaryMask m(h, w);
  for (auto& v : m.data) v = dist(rng) < density ? 1 : 0;
  return m;
}

void expect_same_mask(const BinaryMask& a, const BinaryMask& b,
                      const char* what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(a.height, b.height);
  ASSERT_EQ(a.width, b.width);
  EXPECT_EQ(a.data, b.data);
}

// ------------------------------------------------------------------
// Golden regressions on the synthetic square.
// ------------------------------------------------------------------

TEST(VisionPipelineGolden, GrayAppliesRec601Weights) {
  const Tensor img = square_image(16, 4, 12);
  const Tensor gray = vision::to_gray(img);
  ASSERT_EQ(gray.shape(), (Shape{16, 16}));
  // Background: 0.1 everywhere -> luminance 0.1.
  EXPECT_NEAR(gray.at2(0, 0), 0.1f, 1e-6f);
  // Square: 0.299*0.9 + 0.587*0.8 + 0.114*0.7.
  EXPECT_NEAR(gray.at2(8, 8), 0.299f * 0.9f + 0.587f * 0.8f + 0.114f * 0.7f,
              1e-6f);
}

TEST(VisionPipelineGolden, OtsuThresholdSeparatesSquareFromBackground) {
  const Tensor gray = vision::to_gray(square_image(16, 4, 12));
  const BinaryMask mask = vision::threshold_otsu(gray);
  EXPECT_EQ(mask.count(), 8u * 8u);
  EXPECT_TRUE(mask.at(5, 5));
  EXPECT_FALSE(mask.at(0, 0));
}

TEST(VisionPipelineGolden, SobelRespondsOnlyOnSquareBoundary) {
  const Tensor gray = vision::to_gray(square_image(16, 4, 12));
  const Tensor gx = vision::sobel_x(gray);
  // Flat regions: zero response (interior of square and background).
  EXPECT_FLOAT_EQ(gx.at2(8, 8), 0.0f);
  EXPECT_FLOAT_EQ(gx.at2(1, 1), 0.0f);
  // Vertical boundary column: |gx| = 4 * step for a unit vertical edge.
  const float step = gray.at2(8, 8) - gray.at2(8, 0);
  EXPECT_NEAR(std::abs(gx.at2(8, 4)), 4.0f * std::abs(step), 1e-4f);
  // Horizontal boundary has no x-gradient mid-edge.
  const Tensor gy = vision::sobel_y(gray);
  EXPECT_NEAR(std::abs(gy.at2(4, 8)), 4.0f * std::abs(step), 1e-4f);
}

TEST(VisionPipelineGolden, EdgeMapRecoversSquareInterior) {
  const std::size_t n = 32;
  const Tensor gray = vision::to_gray(square_image(n, 8, 24));
  const Tensor edge = vision::sobel_magnitude(gray);
  const BinaryMask silhouette = vision::mask_from_feature_map(edge);

  // The filled silhouette covers (approximately, up to one boundary
  // pixel of morphology) the square's area.
  const std::size_t area = 16 * 16;
  EXPECT_GE(silhouette.count(), area * 3 / 4);
  EXPECT_LE(silhouette.count(), area * 5 / 4);
  EXPECT_TRUE(silhouette.at(15, 15));
  EXPECT_FALSE(silhouette.at(2, 2));

  const auto c = vision::centroid(silhouette);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->y, 15.5, 1.0);
  EXPECT_NEAR(c->x, 15.5, 1.0);
}

TEST(VisionPipelineGolden, CentroidOfRectangleIsItsCentre) {
  BinaryMask m(10, 20);
  for (std::size_t y = 2; y < 8; ++y) {
    for (std::size_t x = 4; x < 16; ++x) m.set(y, x, true);
  }
  const auto c = vision::centroid(m);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(c->y, 4.5);
  EXPECT_DOUBLE_EQ(c->x, 9.5);
  EXPECT_FALSE(vision::centroid(BinaryMask(4, 4)).has_value());
}

TEST(VisionPipelineGolden, RadialSeriesOfCentredSquareMatchesGeometry) {
  const std::size_t n = 33;
  BinaryMask m(n, n);
  for (std::size_t y = 8; y <= 24; ++y) {
    for (std::size_t x = 8; x <= 24; ++x) m.set(y, x, true);
  }
  const std::vector<double> series = vision::shape_signature(m, 360);
  ASSERT_EQ(series.size(), 360u);
  // Axis-aligned rays hit the edge at the half-side, diagonal rays at
  // half-side * sqrt(2); half-pixel ray marching quantises to 0.5.
  EXPECT_NEAR(series[0], 8.0, 0.75);    // 0 degrees
  EXPECT_NEAR(series[90], 8.0, 0.75);   // 90 degrees
  EXPECT_NEAR(series[45], 8.0 * std::sqrt(2.0), 0.75);
  // Four-fold symmetry of the square.
  EXPECT_NEAR(series[10], series[100], 0.75);
}

// ------------------------------------------------------------------
// Scratch-overload vs allocating-overload equivalence, per function.
// ------------------------------------------------------------------

TEST(VisionScratchEquivalence, ToGray) {
  runtime::Workspace ws;
  for (const std::size_t channels : {1u, 3u}) {
    Tensor img(Shape{channels, 9, 11});
    std::mt19937 rng(1);
    std::uniform_real_distribution<float> dist(0.0f, 1.0f);
    for (std::size_t i = 0; i < img.count(); ++i) img[i] = dist(rng);

    const Tensor expect = vision::to_gray(img);
    runtime::Workspace::Scope scope(ws);
    const std::span<float> got = ws.alloc_span_as<float>(9 * 11);
    vision::to_gray(img, got);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]) << i;
    }
  }
}

TEST(VisionScratchEquivalence, ThresholdAndOtsu) {
  std::mt19937 rng(2);
  runtime::Workspace ws;
  const Tensor plane = random_plane(rng, 13, 7);

  EXPECT_EQ(vision::otsu_threshold(std::span<const float>(plane.data())),
            vision::otsu_threshold(plane));

  const BinaryMask expect_fixed = vision::threshold(plane, 0.4f);
  const BinaryMask expect_otsu = vision::threshold_otsu(plane);
  runtime::Workspace::Scope scope(ws);
  vision::MaskView got_fixed{13, 7, ws.alloc_as<std::uint8_t>(13 * 7)};
  vision::threshold(plane.data(), 0.4f, got_fixed);
  vision::MaskView got_otsu{13, 7, ws.alloc_as<std::uint8_t>(13 * 7)};
  vision::threshold_otsu(plane.data(), got_otsu);
  for (std::size_t i = 0; i < expect_fixed.data.size(); ++i) {
    EXPECT_EQ(got_fixed.data[i], expect_fixed.data[i]);
    EXPECT_EQ(got_otsu.data[i], expect_otsu.data[i]);
  }
}

TEST(VisionScratchEquivalence, SobelXYAndMagnitude) {
  std::mt19937 rng(3);
  runtime::Workspace ws;
  const Tensor plane = random_plane(rng, 17, 19);
  const Tensor ex = vision::sobel_x(plane);
  const Tensor ey = vision::sobel_y(plane);
  const Tensor emag = vision::sobel_magnitude(plane);

  runtime::Workspace::Scope scope(ws);
  const std::span<float> gx = ws.alloc_span_as<float>(plane.count());
  const std::span<float> gy = ws.alloc_span_as<float>(plane.count());
  const std::span<float> mag = ws.alloc_span_as<float>(plane.count());
  vision::sobel_x(plane.data(), 17, 19, gx);
  vision::sobel_y(plane.data(), 17, 19, gy);
  vision::sobel_magnitude(plane.data(), 17, 19, mag);
  for (std::size_t i = 0; i < plane.count(); ++i) {
    EXPECT_EQ(gx[i], ex[i]);
    EXPECT_EQ(gy[i], ey[i]);
    EXPECT_EQ(mag[i], emag[i]);
  }
}

TEST(VisionScratchEquivalence, MaskMorphologyAndLargestComponent) {
  std::mt19937 rng(4);
  runtime::Workspace ws;
  for (int trial = 0; trial < 10; ++trial) {
    const BinaryMask mask = random_mask(rng, 21, 18, 0.35 + 0.03 * trial);

    const BinaryMask expect_dilated = vision::dilate(mask, 1);
    const BinaryMask expect_eroded = vision::erode(mask, 1);
    const BinaryMask expect_component = vision::largest_component(mask);

    runtime::Workspace::Scope scope(ws);
    BinaryMask got(21, 18);
    vision::dilate(mask.view(), 1, got.view());
    expect_same_mask(got, expect_dilated, "dilate");
    vision::erode(mask.view(), 1, got.view());
    expect_same_mask(got, expect_eroded, "erode");
    vision::largest_component(mask.view(), got.view(), ws);
    expect_same_mask(got, expect_component, "largest_component");
  }
}

TEST(VisionScratchEquivalence, EdgeMagnitudeAndMaskFromFeatureMap) {
  runtime::Workspace ws;
  const Tensor img = square_image(32, 8, 24);
  const Tensor expect_edge = vision::edge_magnitude(img);
  {
    runtime::Workspace::Scope scope(ws);
    const std::span<float> got = ws.alloc_span_as<float>(32 * 32);
    vision::edge_magnitude(img, got, ws);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect_edge[i]);
    }
  }

  std::mt19937 rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    // Mix of structured edges and noise exercises Otsu + flood + erosion.
    Tensor fm = random_plane(rng, 24, 24);
    const Tensor structured = vision::sobel_magnitude(
        vision::to_gray(square_image(24, 5, 19)));
    for (std::size_t i = 0; i < fm.count(); ++i) {
      fm[i] = structured[i] + 0.08f * fm[i];
    }
    const BinaryMask expect = vision::mask_from_feature_map(fm);
    runtime::Workspace::Scope scope(ws);
    BinaryMask got(24, 24);
    vision::mask_from_feature_map(fm.data(), 24, 24, got.view(), ws);
    expect_same_mask(got, expect, "mask_from_feature_map");
  }
}

TEST(VisionScratchEquivalence, RadialSeriesAndShapeSignature) {
  std::mt19937 rng(6);
  runtime::Workspace ws;
  for (int trial = 0; trial < 5; ++trial) {
    const BinaryMask mask = random_mask(rng, 25, 25, 0.5);
    const std::vector<double> expect = vision::shape_signature(mask, 90);
    runtime::Workspace::Scope scope(ws);
    const std::span<double> got = ws.alloc_span_as<double>(90);
    const std::size_t n = vision::shape_signature(mask.view(), got, ws);
    ASSERT_EQ(n, expect.size());
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got[i], expect[i]);

    const auto c = vision::centroid(mask);
    if (c) {
      EXPECT_EQ(vision::centroid(mask.view())->y, c->y);
      EXPECT_EQ(vision::centroid(mask.view())->x, c->x);
      const std::vector<double> expect_radial =
          vision::radial_distance_series(mask, *c, 45);
      const std::span<double> got_radial = ws.alloc_span_as<double>(45);
      vision::radial_distance_series(mask.view(), *c, got_radial);
      for (std::size_t i = 0; i < 45; ++i) {
        EXPECT_EQ(got_radial[i], expect_radial[i]);
      }
    }
  }
  // Empty mask: scratch overload reports zero samples.
  runtime::Workspace::Scope scope(ws);
  const std::span<double> out = ws.alloc_span_as<double>(16);
  EXPECT_EQ(vision::shape_signature(BinaryMask(8, 8).view(), out, ws), 0u);
}

// ------------------------------------------------------------------
// Radial scan, morphology, labelling, Otsu and centroid against
// reference implementations.
//
// The library's radial scan searches a bounded range of each ray, its
// radius-1 morphology runs separable passes, its components come from a
// run-length labelling, its Otsu scans in lanes and sub-histograms and
// its centroid sums integers; the references below are the plain
// definitions (march every half-pixel step to the image edge; test every
// pixel of the square structuring element; flood pixel by pixel; one
// serial min/max and histogram scan; running double sums). Every public
// overload must match them bit for bit.
// ------------------------------------------------------------------

/// Marches r = 0, 0.5, 1, ... out to hypot(H, W), stopping when the ray
/// leaves the image, and keeps the last r that lands on a set pixel.
std::vector<double> reference_radial(const BinaryMask& mask,
                                     const vision::Centroid& c,
                                     std::size_t samples) {
  std::vector<double> out(samples, 0.0);
  const double max_r = std::hypot(static_cast<double>(mask.height),
                                  static_cast<double>(mask.width));
  constexpr double two_pi = 6.283185307179586476925286766559;
  for (std::size_t s = 0; s < samples; ++s) {
    const double theta =
        two_pi * static_cast<double>(s) / static_cast<double>(samples);
    const double dy = std::sin(theta);
    const double dx = std::cos(theta);
    double farthest = 0.0;
    for (double r = 0.0; r <= max_r; r += 0.5) {
      const auto y = static_cast<std::int64_t>(std::llround(c.y + r * dy));
      const auto x = static_cast<std::int64_t>(std::llround(c.x + r * dx));
      if (!mask.contains(y, x)) break;
      if (mask.at(static_cast<std::size_t>(y), static_cast<std::size_t>(x))) {
        farthest = r;
      }
    }
    out[s] = farthest;
  }
  return out;
}

/// Square structuring element of radius r, pixel by pixel. Dilation sets
/// a pixel when any in-image pixel of its square is set; erosion when
/// every pixel of its square is in the image and set.
BinaryMask reference_morphology(const BinaryMask& mask, std::size_t radius,
                                bool dilation) {
  BinaryMask out(mask.height, mask.width);
  const auto r = static_cast<std::int64_t>(radius);
  for (std::size_t y = 0; y < mask.height; ++y) {
    for (std::size_t x = 0; x < mask.width; ++x) {
      bool any = false;
      bool all = true;
      for (std::int64_t dy = -r; dy <= r; ++dy) {
        for (std::int64_t dx = -r; dx <= r; ++dx) {
          const auto ny = static_cast<std::int64_t>(y) + dy;
          const auto nx = static_cast<std::int64_t>(x) + dx;
          const bool set =
              mask.contains(ny, nx) && mask.at(static_cast<std::size_t>(ny),
                                               static_cast<std::size_t>(nx));
          any = any || set;
          all = all && set;
        }
      }
      out.set(y, x, dilation ? any : all);
    }
  }
  return out;
}

/// Largest 4-connected component by BFS with explicit bounds checks; on
/// ties the component met first in raster order wins.
BinaryMask reference_largest_component(const BinaryMask& mask) {
  std::vector<int> label(mask.data.size(), 0);
  int best_label = 0;
  std::size_t best_size = 0;
  int next_label = 0;
  for (std::size_t start = 0; start < mask.data.size(); ++start) {
    if (mask.data[start] == 0 || label[start] != 0) continue;
    ++next_label;
    std::vector<std::size_t> frontier{start};
    label[start] = next_label;
    std::size_t size = 0;
    while (!frontier.empty()) {
      const std::size_t idx = frontier.back();
      frontier.pop_back();
      ++size;
      const auto y = static_cast<std::int64_t>(idx / mask.width);
      const auto x = static_cast<std::int64_t>(idx % mask.width);
      for (const auto& [ny, nx] : {std::pair{y - 1, x}, std::pair{y + 1, x},
                                   std::pair{y, x - 1}, std::pair{y, x + 1}}) {
        if (!mask.contains(ny, nx)) continue;
        const std::size_t n = static_cast<std::size_t>(ny) * mask.width +
                              static_cast<std::size_t>(nx);
        if (mask.data[n] == 0 || label[n] != 0) continue;
        label[n] = next_label;
        frontier.push_back(n);
      }
    }
    if (size > best_size) {
      best_size = size;
      best_label = next_label;
    }
  }
  BinaryMask out(mask.height, mask.width);
  for (std::size_t i = 0; i < out.data.size(); ++i) {
    out.data[i] = best_size != 0 && label[i] == best_label ? 1 : 0;
  }
  return out;
}

/// Otsu's threshold by one serial scan: a running min/max from image[0],
/// one 256-bin histogram of s = (v - lo) * scale truncated to int and
/// clamped to [0, 255], and the between-class variance sweep. A NaN s,
/// or one outside int's range, converts to INT_MIN as x86's truncating
/// convert gives it, so it lands in bin 0.
float reference_otsu(std::span<const float> image) {
  float lo = image[0];
  float hi = image[0];
  for (std::size_t i = 1; i < image.size(); ++i) {
    lo = std::min(lo, image[i]);
    hi = std::max(hi, image[i]);
  }
  if (hi <= lo) return lo;

  constexpr int kBins = 256;
  std::vector<std::uint64_t> hist(kBins, 0);
  const float scale = static_cast<float>(kBins - 1) / (hi - lo);
  for (std::size_t i = 0; i < image.size(); ++i) {
    const float s = (image[i] - lo) * scale;
    const int bin = s > -2147483648.0f && s < 2147483648.0f
                        ? static_cast<int>(s)
                        : std::numeric_limits<int>::min();
    ++hist[static_cast<std::size_t>(std::min(std::max(bin, 0), kBins - 1))];
  }

  const double total = static_cast<double>(image.size());
  double sum_all = 0.0;
  for (int b = 0; b < kBins; ++b) sum_all += b * static_cast<double>(hist[b]);

  double sum_bg = 0.0;
  double weight_bg = 0.0;
  double best_between = -1.0;
  int best_bin = 0;
  for (int b = 0; b < kBins; ++b) {
    weight_bg += static_cast<double>(hist[b]);
    if (weight_bg == 0.0) continue;
    const double weight_fg = total - weight_bg;
    if (weight_fg == 0.0) break;
    sum_bg += b * static_cast<double>(hist[b]);
    const double mean_bg = sum_bg / weight_bg;
    const double mean_fg = (sum_all - sum_bg) / weight_fg;
    const double between =
        weight_bg * weight_fg * (mean_bg - mean_fg) * (mean_bg - mean_fg);
    if (between > best_between) {
      best_between = between;
      best_bin = b;
    }
  }
  return lo + static_cast<float>(best_bin) / scale;
}

/// Centroid as running double sums of each set pixel's coordinates.
std::optional<vision::Centroid> reference_centroid(const BinaryMask& mask) {
  double sy = 0.0;
  double sx = 0.0;
  std::size_t n = 0;
  for (std::size_t y = 0; y < mask.height; ++y) {
    for (std::size_t x = 0; x < mask.width; ++x) {
      if (!mask.at(y, x)) continue;
      sy += static_cast<double>(y);
      sx += static_cast<double>(x);
      ++n;
    }
  }
  if (n == 0) return std::nullopt;
  return vision::Centroid{sy / static_cast<double>(n),
                          sx / static_cast<double>(n)};
}

/// mask_from_feature_map's documented recipe built from the references:
/// Otsu edges of |feature| with a two-pixel frame cleared, a radius-1
/// dilation with the one-pixel frame cleared, the pixels a 4-connected
/// flood from the image border over non-edge pixels cannot reach, a
/// radius-1 erosion, and the largest component.
BinaryMask reference_mask_from_feature_map(const Tensor& feature_map) {
  Tensor mag = feature_map;
  for (std::size_t i = 0; i < mag.count(); ++i) mag[i] = std::abs(mag[i]);
  BinaryMask edges = vision::threshold(
      mag, reference_otsu(std::span<const float>(mag.data())));
  const std::size_t h = edges.height;
  const std::size_t w = edges.width;
  const auto clear_frame = [&](BinaryMask& m, std::size_t band) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        if (y < band || x < band || y + band >= h || x + band >= w) {
          m.set(y, x, false);
        }
      }
    }
  };
  clear_frame(edges, 2);
  BinaryMask dilated = reference_morphology(edges, 1, true);
  clear_frame(dilated, 1);

  BinaryMask outside(h, w);
  std::vector<std::pair<std::int64_t, std::int64_t>> frontier;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      if (y == 0 || x == 0 || y + 1 == h || x + 1 == w) {
        frontier.emplace_back(y, x);
      }
    }
  }
  while (!frontier.empty()) {
    const auto [y, x] = frontier.back();
    frontier.pop_back();
    if (!outside.contains(y, x)) continue;
    const auto uy = static_cast<std::size_t>(y);
    const auto ux = static_cast<std::size_t>(x);
    if (outside.at(uy, ux) || dilated.at(uy, ux)) continue;
    outside.set(uy, ux, true);
    frontier.insert(frontier.end(),
                    {{y - 1, x}, {y + 1, x}, {y, x - 1}, {y, x + 1}});
  }
  BinaryMask filled(h, w);
  for (std::size_t i = 0; i < filled.data.size(); ++i) {
    filled.data[i] = outside.data[i] != 0 ? 0 : 1;
  }
  return reference_largest_component(
      reference_morphology(filled, 1, false));
}

/// Every public radial overload against reference_radial at `samples`.
void expect_radial_matches_reference(const BinaryMask& mask,
                                     const vision::Centroid& c,
                                     std::size_t samples) {
  SCOPED_TRACE(::testing::Message()
               << mask.height << "x" << mask.width << " c=(" << c.y << ", "
               << c.x << ") samples=" << samples);
  const std::vector<double> expect = reference_radial(mask, c, samples);

  EXPECT_EQ(vision::radial_distance_series(mask, c, samples), expect);

  std::vector<double> got(samples, -1.0);
  vision::radial_distance_series(mask.view(), c, std::span<double>(got));
  EXPECT_EQ(got, expect);

  const std::vector<vision::RayDirection> rays =
      vision::ray_directions(samples);
  std::fill(got.begin(), got.end(), -1.0);
  vision::radial_distance_series(mask.view(), c,
                                 std::span<const vision::RayDirection>(rays),
                                 std::span<double>(got));
  EXPECT_EQ(got, expect);
}

void expect_morphology_matches_reference(const BinaryMask& mask) {
  for (const std::size_t radius : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << mask.height << "x" << mask.width
                                      << " radius=" << radius);
    const BinaryMask expect_dilated = reference_morphology(mask, radius, true);
    const BinaryMask expect_eroded = reference_morphology(mask, radius, false);
    expect_same_mask(vision::dilate(mask, radius), expect_dilated, "dilate");
    expect_same_mask(vision::erode(mask, radius), expect_eroded, "erode");

    // The view overloads overwrite every output pixel.
    BinaryMask got(mask.height, mask.width);
    std::fill(got.data.begin(), got.data.end(), std::uint8_t{1});
    vision::dilate(mask.view(), radius, got.view());
    expect_same_mask(got, expect_dilated, "dilate (view)");
    std::fill(got.data.begin(), got.data.end(), std::uint8_t{1});
    vision::erode(mask.view(), radius, got.view());
    expect_same_mask(got, expect_eroded, "erode (view)");
  }
}

void expect_same_centroid(const BinaryMask& mask) {
  const auto expect = reference_centroid(mask);
  const auto got = vision::centroid(mask);
  ASSERT_EQ(got.has_value(), expect.has_value());
  if (!expect) return;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->y),
            std::bit_cast<std::uint64_t>(expect->y));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got->x),
            std::bit_cast<std::uint64_t>(expect->x));
}

/// Radial scan around the mask's own centroid at every tested resolution,
/// both morphology operators and the largest component.
void expect_mask_matches_references(const BinaryMask& mask) {
  expect_morphology_matches_reference(mask);
  expect_same_mask(vision::largest_component(mask),
                   reference_largest_component(mask), "largest_component");
  expect_same_centroid(mask);
  if (const auto c = vision::centroid(mask)) {
    for (const std::size_t samples : {1u, 2u, 7u, 45u, 90u, 360u, 720u}) {
      expect_radial_matches_reference(mask, *c, samples);
    }
  }
}

BinaryMask filled_rect(std::size_t h, std::size_t w, std::size_t y0,
                       std::size_t x0, std::size_t y1, std::size_t x1) {
  BinaryMask m(h, w);
  for (std::size_t y = y0; y < y1; ++y) {
    for (std::size_t x = x0; x < x1; ++x) m.set(y, x, true);
  }
  return m;
}

TEST(VisionReferenceEquivalence, RenderedSignsAt96And227Pixels) {
  const core::ShapeQualifier qualifier;  // default: octagon, 360 samples
  const sax::ShapeMatcher matcher(qualifier.config().sides,
                                  qualifier.config().samples,
                                  qualifier.config().match);
  runtime::Workspace ws;
  for (const std::size_t size : {96u, 227u}) {
    for (const data::SignClass cls : data::all_classes()) {
      SCOPED_TRACE(::testing::Message()
                   << data::class_name(cls) << " at " << size << "px");
      data::RenderParams params;
      params.cls = cls;
      params.size = size;
      params.rotation = 0.1;
      const Tensor img = data::render_sign(params);
      const Tensor edge = vision::edge_magnitude(img);

      // The morphology's inputs in the qualifier: Otsu edge pixels, and
      // the filled silhouette.
      expect_morphology_matches_reference(vision::threshold_otsu(edge));
      const BinaryMask silhouette = vision::mask_from_feature_map(edge);
      ASSERT_GT(silhouette.count(), 0u);
      expect_same_mask(silhouette, reference_mask_from_feature_map(edge),
                       "mask_from_feature_map");
      expect_mask_matches_references(silhouette);
      expect_mask_matches_references(vision::dominant_shape(img));

      // The qualifier's verdict equals the reference signature (relabel
      // the component, centroid, full-ray scan) pushed through the matcher.
      const BinaryMask component = vision::largest_component(silhouette);
      const auto c = vision::centroid(component);
      ASSERT_TRUE(c.has_value());
      const sax::ShapeMatchResult expect = matcher.match(
          std::span<const double>(reference_radial(component, *c, 360)), ws);
      reliable::ExecutionReport report;
      report.ok = true;
      const core::QualifierVerdict got =
          qualifier.qualify_feature_map(edge, report);
      EXPECT_EQ(got.match, expect.match);
      EXPECT_EQ(got.shape.match, expect.match);
      EXPECT_EQ(got.shape.distance, expect.distance);
      EXPECT_EQ(got.shape.corners, expect.corners);
      EXPECT_EQ(got.shape.word, expect.word);
      EXPECT_EQ(got.shape.template_word, expect.template_word);
      EXPECT_EQ(got.shape.rotation, expect.rotation);
    }
  }
}

TEST(VisionReferenceEquivalence, AdversarialMasks) {
  // Hollow ring: annulus 4 <= d < 8 around (10, 10).
  BinaryMask ring(21, 21);
  for (std::size_t y = 0; y < 21; ++y) {
    for (std::size_t x = 0; x < 21; ++x) {
      const double d = std::hypot(static_cast<double>(y) - 10.0,
                                  static_cast<double>(x) - 10.0);
      ring.set(y, x, d >= 4.0 && d < 8.0);
    }
  }
  // Concave notch: a square with a deep wedge cut in from the right, so
  // rays leave the shape and re-enter it.
  BinaryMask notch = filled_rect(24, 24, 3, 3, 21, 21);
  for (std::size_t y = 3; y < 21; ++y) {
    const std::size_t half = y < 12 ? 12 - y : y - 11;
    for (std::size_t x = 10 + half; x < 21; ++x) notch.set(y, x, false);
  }
  const BinaryMask empty(7, 9);

  std::vector<BinaryMask> masks;
  masks.push_back(empty);
  masks.emplace_back(1, 1);                    // 1x1 unset
  masks.push_back(filled_rect(1, 1, 0, 0, 1, 1));    // 1x1 set
  masks.push_back(filled_rect(1, 13, 0, 0, 1, 13));  // 1xN row
  masks.push_back(filled_rect(1, 13, 0, 4, 1, 9));   // 1xN segment
  masks.push_back(filled_rect(11, 1, 0, 0, 11, 1));  // Nx1 column
  masks.push_back(filled_rect(11, 1, 3, 0, 8, 1));   // Nx1 segment
  masks.push_back(filled_rect(2, 2, 0, 0, 2, 2));    // 2x2, all set
  masks.push_back(filled_rect(12, 10, 0, 0, 12, 10));  // touches every border
  {
    // Frame one pixel wide along every border, hollow inside.
    BinaryMask m(12, 10);
    for (std::size_t y = 0; y < 12; ++y) {
      for (std::size_t x = 0; x < 10; ++x) {
        m.set(y, x, y == 0 || x == 0 || y == 11 || x == 9);
      }
    }
    masks.push_back(m);
  }
  masks.push_back(ring);
  masks.push_back(notch);
  // Centroids on exact .5 coordinates: even-sided blocks.
  masks.push_back(filled_rect(16, 16, 4, 6, 10, 12));   // c = (6.5, 8.5)
  masks.push_back(filled_rect(9, 14, 1, 1, 7, 13));     // c = (3.5, 6.5)
  // Non-canonical set values (any non-zero byte counts as set).
  {
    BinaryMask m = filled_rect(8, 8, 2, 2, 6, 6);
    m.data[2 * 8 + 3] = 2;
    m.data[4 * 8 + 4] = 255;
    masks.push_back(m);
  }

  for (const BinaryMask& m : masks) expect_mask_matches_references(m);

  // Centroids chosen by hand: exact half-pixel positions, the image
  // corners, points off the shape and points outside the image.
  for (const vision::Centroid c :
       {vision::Centroid{10.5, 10.5}, vision::Centroid{0.5, 0.5},
        vision::Centroid{-0.5, 10.0}, vision::Centroid{20.5, 20.5},
        vision::Centroid{0.0, 0.0}, vision::Centroid{20.0, 20.0},
        vision::Centroid{2.0, 18.0}, vision::Centroid{-3.0, 4.0},
        vision::Centroid{25.0, 5.0}, vision::Centroid{10.0, 10.49999}}) {
    for (const std::size_t samples : {1u, 2u, 7u, 45u, 90u, 360u, 720u}) {
      expect_radial_matches_reference(ring, c, samples);
      expect_radial_matches_reference(notch, c, samples);
      expect_radial_matches_reference(empty, c, samples);
    }
  }
}

TEST(VisionReferenceEquivalence, RandomMasks) {
  std::mt19937 rng(8);
  std::uniform_int_distribution<std::size_t> side(1, 19);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t h = side(rng);
    const std::size_t w = side(rng);
    const BinaryMask m = random_mask(rng, h, w, 0.15 + 0.012 * trial);
    expect_mask_matches_references(m);
    expect_mask_matches_references(vision::largest_component(m));
  }
}

TEST(VisionReferenceEquivalence, MaskFromNoisyFeatureMaps) {
  std::mt19937 rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t h = 6 + 5 * static_cast<std::size_t>(trial);
    const std::size_t w = 30 - 3 * static_cast<std::size_t>(trial);
    Tensor fm = random_plane(rng, h, w);
    for (std::size_t i = 0; i < fm.count(); ++i) {
      if (i % 3 == 0) fm[i] = -fm[i];  // the recipe takes |response|
    }
    SCOPED_TRACE(::testing::Message() << h << "x" << w);
    expect_same_mask(vision::mask_from_feature_map(fm),
                     reference_mask_from_feature_map(fm),
                     "mask_from_feature_map");
  }
}

TEST(VisionReferenceEquivalence, OtsuMatchesSerialScan) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> value(-3.0f, 5.0f);
  const auto random_span = [&](std::size_t n) {
    std::vector<float> v(n);
    for (float& x : v) x = value(rng);
    return v;
  };
  std::vector<std::vector<float>> spans;
  // Random maps, at lengths around the lane and chunk widths.
  for (const std::size_t n : {1u, 2u, 3u, 15u, 16u, 17u, 31u, 33u, 100u,
                              1023u, 1024u, 1025u, 2100u, 9216u}) {
    spans.push_back(random_span(n));
  }
  // Flat and one-pixel spans.
  for (const float v : {0.5f, 0.0f, -0.0f, -7.0f, nan, inf, -inf}) {
    spans.push_back({v});
    spans.push_back(std::vector<float>(37, v));
  }
  // +0/-0 mixes: flat ones keep image[0]'s sign; others add 1 and -1.
  std::bernoulli_distribution coin(0.5);
  for (const std::size_t n : {5u, 40u, 1100u}) {
    for (const float first : {0.0f, -0.0f}) {
      std::vector<float> v(n);
      for (float& x : v) x = coin(rng) ? 0.0f : -0.0f;
      v[0] = first;
      spans.push_back(v);
      v[n / 2] = 1.0f;
      spans.push_back(v);
      v[n / 3] = -1.0f;
      spans.push_back(v);
    }
  }
  // NaN first and later, and +-Inf, at positions inside and around the
  // first lane block and in the tail.
  const std::vector<float> base = random_span(50);
  for (const std::size_t at : {0u, 1u, 15u, 16u, 17u, 49u}) {
    for (const float v : {nan, inf, -inf}) {
      std::vector<float> with = base;
      with[at] = v;
      spans.push_back(with);
    }
  }
  {
    std::vector<float> many_nans = random_span(300);
    for (std::size_t i = 3; i < many_nans.size(); i += 7) many_nans[i] = nan;
    spans.push_back(many_nans);
  }
  // A range so narrow that the scale overflows to +Inf, and one a single
  // float step wide.
  spans.push_back({0.0f, 1e-45f, 0.0f, 1e-45f, 0.0f});
  spans.push_back({1.0f, std::nextafter(1.0f, 2.0f), 1.0f});
  // Sobel magnitudes of rendered signs at both qualifier resolutions.
  for (const std::size_t size : {96u, 227u}) {
    for (const data::SignClass cls : data::all_classes()) {
      data::RenderParams params;
      params.cls = cls;
      params.size = size;
      params.rotation = 0.1;
      const Tensor edge = vision::edge_magnitude(data::render_sign(params));
      spans.emplace_back(edge.data().begin(), edge.data().end());
    }
  }

  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::span<const float> span(spans[i]);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(vision::otsu_threshold(span)),
              std::bit_cast<std::uint32_t>(reference_otsu(span)))
        << "span " << i << " of length " << span.size();
  }
}

TEST(VisionReferenceEquivalence, CentroidMatchesDoubleSums) {
  std::mt19937 rng(12);
  std::uniform_int_distribution<std::size_t> side(1, 227);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t h = side(rng);
    const std::size_t w = side(rng);
    expect_same_centroid(random_mask(rng, h, w, 0.02 + 0.024 * trial));
  }
  expect_same_centroid(filled_rect(227, 227, 0, 0, 227, 227));
  expect_same_centroid(BinaryMask(5, 9));
  expect_same_centroid(filled_rect(1, 70000, 0, 0, 1, 70000));
  expect_same_centroid(random_mask(rng, 1, 70000, 0.5));
  expect_same_centroid(random_mask(rng, 70000, 1, 0.5));
}

/// Mask from rows of '#' (set) and '.' (unset), all of one width.
BinaryMask mask_from_rows(std::initializer_list<std::string_view> rows) {
  BinaryMask m(rows.size(), rows.begin()->size());
  std::size_t y = 0;
  for (const std::string_view row : rows) {
    for (std::size_t x = 0; x < row.size(); ++x) m.set(y, x, row[x] == '#');
    ++y;
  }
  return m;
}

/// Square spiral wall on an n x n grid, one pixel wide with one-pixel
/// gaps: legs of n-1, n-1, n-1, n-3, n-3, n-5, n-5, ... pixels.
BinaryMask spiral(std::size_t n) {
  BinaryMask m(n, n);
  constexpr std::int64_t kDy[] = {0, 1, 0, -1};
  constexpr std::int64_t kDx[] = {1, 0, -1, 0};
  std::int64_t y = 0;
  std::int64_t x = 0;
  m.set(0, 0, true);
  auto len = static_cast<std::int64_t>(n) - 1;
  for (std::size_t leg = 0; len > 0; ++leg) {
    if (leg >= 3 && (leg - 3) % 2 == 0) len -= 2;
    for (std::int64_t i = 0; i < len; ++i) {
      y += kDy[leg % 4];
      x += kDx[leg % 4];
      m.set(static_cast<std::size_t>(y), static_cast<std::size_t>(x), true);
    }
  }
  return m;
}

TEST(VisionReferenceEquivalence, LabellingAdversarialMasks) {
  std::vector<BinaryMask> masks;
  // U shapes: the arms are separate runs until the last row joins them.
  masks.push_back(mask_from_rows({"#...#",  //
                                  "#...#",  //
                                  "#####"}));
  masks.push_back(mask_from_rows({"....#",  //
                                  "#...#",  //
                                  "#.#.#",  //
                                  "#####"}));
  // Equal-size ties: the component whose first pixel comes first in
  // raster order wins, also when it is the one that starts further right.
  masks.push_back(mask_from_rows({"##.##",  //
                                  "##.##"}));
  masks.push_back(mask_from_rows({"....#",  //
                                  "#...#",  //
                                  "#...#"}));
  masks.push_back(mask_from_rows({".#.#..#",  //
                                  ".#.#..#",  //
                                  ".###.##"}));
  // Columns that start one row later from right to left, all joined on
  // the last row: every merge has to keep the rightmost column's root.
  {
    BinaryMask m(12, 23);
    for (std::size_t x = 0; x < 23; x += 2) {
      for (std::size_t y = (22 - x) / 2; y < 12; ++y) m.set(y, x, true);
    }
    for (std::size_t x = 0; x < 23; ++x) m.set(11, x, true);
    masks.push_back(m);
    // The same comb twice, the right copy a row higher: a tie.
    BinaryMask two(13, 47);
    for (std::size_t y = 0; y < 12; ++y) {
      for (std::size_t x = 0; x < 23; ++x) {
        two.set(y + 1, x, m.at(y, x));
        two.set(y, x + 24, m.at(y, x));
      }
    }
    masks.push_back(two);
  }
  masks.push_back(spiral(31));
  masks.push_back(spiral(32));
  {
    // Two spirals that meet only on their bottom rows.
    const BinaryMask s = spiral(15);
    BinaryMask m(16, 31);
    for (std::size_t y = 0; y < 15; ++y) {
      for (std::size_t x = 0; x < 15; ++x) {
        m.set(y, x, s.at(y, x));
        m.set(y, 30 - x, s.at(y, x));
      }
    }
    for (std::size_t x = 0; x < 31; ++x) m.set(15, x, true);
    masks.push_back(m);
  }
  // Checkerboards (every pixel its own component) and stripes.
  for (const std::size_t phase : {0u, 1u}) {
    BinaryMask m(9, 11);
    BinaryMask stripes(9, 11);
    for (std::size_t y = 0; y < 9; ++y) {
      for (std::size_t x = 0; x < 11; ++x) {
        m.set(y, x, (x + y + phase) % 2 == 0);
        stripes.set(y, x, (x + phase) % 2 == 0);
      }
    }
    masks.push_back(m);
    masks.push_back(stripes);
  }
  // 1 x n and n x 1 masks with gaps, empty and full masks.
  masks.push_back(mask_from_rows({"##.###.#..####."}));
  {
    BinaryMask column(15, 1);
    for (std::size_t y = 0; y < 15; ++y) column.set(y, 0, y % 4 != 2);
    masks.push_back(column);
  }
  masks.emplace_back(6, 7);
  masks.push_back(filled_rect(6, 7, 0, 0, 6, 7));
  masks.push_back(filled_rect(1, 1, 0, 0, 1, 1));
  // Zero-area masks, whose empty storage has a null data().
  masks.emplace_back(3, 0);
  masks.emplace_back(0, 3);
  masks.emplace_back(0, 0);

  for (const BinaryMask& m : masks) {
    SCOPED_TRACE(::testing::Message() << m.height << "x" << m.width);
    expect_mask_matches_references(m);
  }
}

TEST(VisionReferenceEquivalence, BackgroundReachedOnlyDiagonallyStaysFilled) {
  // Edge pixels on the boundary of [10, 30]^2, with the top row starting
  // at x = 13 and the left column at y = 13. Dilated, the outside pixel
  // (11, 11) touches the inside pixel (12, 12) only diagonally, so the
  // 4-connected background must not enter the square.
  Tensor fm(Shape{40, 40}, 0.0f);
  for (std::size_t i = 10; i <= 30; ++i) {
    if (i >= 13) fm.at2(10, i) = 1.0f;
    if (i >= 13) fm.at2(i, 10) = 1.0f;
    fm.at2(30, i) = 1.0f;
    fm.at2(i, 30) = 1.0f;
  }
  const BinaryMask silhouette = vision::mask_from_feature_map(fm);
  expect_same_mask(silhouette, reference_mask_from_feature_map(fm),
                   "mask_from_feature_map");
  // The erosion clears (12, 12), which borders (11, 11); the rest of the
  // square stays.
  EXPECT_TRUE(silhouette.at(13, 13));
  EXPECT_TRUE(silhouette.at(20, 20));
  EXPECT_FALSE(silhouette.at(11, 11));
}

TEST(VisionReferenceEquivalence, RadialCentroidsOffTheShapeAt227Pixels) {
  data::RenderParams params;
  params.cls = data::all_classes()[0];
  params.size = 227;
  params.rotation = 0.1;
  const BinaryMask silhouette = vision::mask_from_feature_map(
      vision::edge_magnitude(data::render_sign(params)));
  ASSERT_GT(silhouette.count(), 0u);
  // Image corners, points inside the image but outside the set pixels'
  // bounding box, points outside the image, and the exact centroid.
  // Sample counts 2 and 720 include theta = pi, where sin(theta) is about
  // 1.2e-16, and 720 also theta = pi / 2 with cos(theta) about 6e-17.
  std::vector<vision::Centroid> centroids = {
      {0.0, 0.0},   {0.0, 226.0}, {226.0, 0.0}, {226.4, 226.6},
      {3.5, 113.0}, {113.0, 2.0}, {220.0, 110.5}, {-1.0, 100.0},
      {100.0, 240.0}};
  centroids.push_back(*vision::centroid(silhouette));
  for (const vision::Centroid& c : centroids) {
    for (const std::size_t samples : {1u, 2u, 7u, 360u, 720u}) {
      expect_radial_matches_reference(silhouette, c, samples);
    }
  }
}

TEST(VisionReferenceEquivalence, RayTableArgumentChecks) {
  EXPECT_TRUE(vision::ray_directions(0).empty());
  const BinaryMask m = filled_rect(5, 5, 1, 1, 4, 4);
  const std::vector<vision::RayDirection> rays = vision::ray_directions(8);
  std::vector<double> out(7);
  EXPECT_THROW(vision::radial_distance_series(
                   m.view(), {2.0, 2.0},
                   std::span<const vision::RayDirection>(rays),
                   std::span<double>(out)),
               std::invalid_argument);
  EXPECT_THROW(vision::radial_distance_series(
                   m.view(), {2.0, 2.0},
                   std::span<const vision::RayDirection>(),
                   std::span<double>()),
               std::invalid_argument);
}

TEST(SaxScratchEquivalence, ZnormPaaAndWord) {
  std::mt19937 rng(7);
  runtime::Workspace ws;
  std::normal_distribution<double> dist(0.0, 2.0);
  std::vector<double> series(200);
  for (double& v : series) v = dist(rng);

  const std::vector<double> expect_z = sax::znormalize(series);
  const std::vector<double> expect_paa = sax::paa(series, 32);
  const sax::SaxConfig cfg{32, 8};
  const std::string expect_word = sax::sax_word(series, cfg);

  runtime::Workspace::Scope scope(ws);
  const std::span<double> z = ws.alloc_span_as<double>(series.size());
  sax::znormalize(series, z);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_EQ(z[i], expect_z[i]);

  const std::span<double> reduced = ws.alloc_span_as<double>(32);
  sax::paa(series, reduced);
  for (std::size_t i = 0; i < 32; ++i) EXPECT_EQ(reduced[i], expect_paa[i]);

  const std::vector<double> bp = sax::gaussian_breakpoints(cfg.alphabet);
  const std::span<char> word = ws.alloc_span_as<char>(cfg.word_length);
  sax::sax_word(series, cfg, bp, word, ws);
  EXPECT_EQ(std::string(word.data(), word.size()), expect_word);
}

TEST(SaxScratchEquivalence, CountCornersAndShapeMatcher) {
  runtime::Workspace ws;
  const sax::ShapeMatchConfig cfg{};
  for (const std::size_t sides : {3u, 6u, 8u}) {
    const std::vector<double> series =
        sax::polygon_signature(sides, 360, 0.19);

    EXPECT_EQ(sax::count_corners(series, ws), sax::count_corners(series));

    const sax::ShapeMatchResult expect =
        sax::match_shape(series, sides, cfg);
    const sax::ShapeMatcher matcher(sides, series.size(), cfg);
    const sax::ShapeMatchResult got =
        matcher.match(std::span<const double>(series), ws);
    EXPECT_EQ(got.match, expect.match);
    EXPECT_EQ(got.distance, expect.distance);
    EXPECT_EQ(got.corners, expect.corners);
    EXPECT_EQ(got.word, expect.word);
    EXPECT_EQ(got.template_word, expect.template_word);
    EXPECT_EQ(got.rotation, expect.rotation);
    EXPECT_TRUE(got.match) << sides;  // analytic polygon matches itself

    // Scratch polygon_signature agrees with the allocating one.
    runtime::Workspace::Scope scope(ws);
    const std::span<double> sig = ws.alloc_span_as<double>(series.size());
    sax::polygon_signature(sides, sig, 0.19);
    for (std::size_t i = 0; i < sig.size(); ++i) {
      EXPECT_EQ(sig[i], series[i]);
    }
  }
}

TEST(SaxScratchEquivalence, ShortSeriesNeverMatches) {
  runtime::Workspace ws;
  const sax::ShapeMatchConfig cfg{};
  const std::vector<double> tiny(8, 1.0);
  EXPECT_FALSE(sax::match_shape(tiny, 8, cfg).match);
  const sax::ShapeMatcher matcher(8, 360, cfg);
  EXPECT_FALSE(
      matcher.match(std::span<const double>(tiny), ws).match);
  EXPECT_THROW(static_cast<void>(matcher.match(
                   std::span<const double>(std::vector<double>(90, 1.0)), ws)),
               std::invalid_argument);
}

}  // namespace
