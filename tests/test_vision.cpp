// Deterministic vision pipeline: gray, Sobel, threshold, components,
// centroid, radial signature, silhouette extraction.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "data/renderer.hpp"
#include "vision/centroid.hpp"
#include "vision/edge_map.hpp"
#include "vision/gray.hpp"
#include "vision/mask.hpp"
#include "vision/radial.hpp"
#include "vision/sobel.hpp"
#include "vision/threshold.hpp"

namespace {

using namespace hybridcnn::vision;
using hybridcnn::tensor::Shape;
using hybridcnn::tensor::Tensor;

TEST(Gray, Rec601Weights) {
  Tensor img(Shape{3, 1, 1});
  img[0] = 1.0f;   // R
  img[1] = 0.5f;   // G
  img[2] = 0.25f;  // B
  const Tensor g = to_gray(img);
  EXPECT_NEAR(g[0], 0.299f * 1.0f + 0.587f * 0.5f + 0.114f * 0.25f, 1e-6);
}

TEST(Gray, SingleChannelPassThrough) {
  Tensor img(Shape{1, 2, 2}, 0.7f);
  const Tensor g = to_gray(img);
  EXPECT_EQ(g.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(g[3], 0.7f);
}

TEST(Gray, RejectsBadShape) {
  EXPECT_THROW(to_gray(Tensor(Shape{2, 4, 4})), std::invalid_argument);
}

TEST(Sobel, RespondsToVerticalEdge) {
  // Left half dark, right half bright: strong x response, no y response.
  Tensor img(Shape{8, 8});
  for (std::size_t y = 0; y < 8; ++y) {
    for (std::size_t x = 4; x < 8; ++x) img[y * 8 + x] = 1.0f;
  }
  const Tensor gx = sobel_x(img);
  const Tensor gy = sobel_y(img);
  EXPECT_NEAR(gx[3 * 8 + 3], 4.0f, 1e-5);
  EXPECT_NEAR(gy[3 * 8 + 3], 0.0f, 1e-5);
}

TEST(Sobel, MagnitudeIsSymmetricAcrossAxes) {
  Tensor img_v(Shape{8, 8});
  Tensor img_h(Shape{8, 8});
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = 4; b < 8; ++b) {
      img_v[a * 8 + b] = 1.0f;  // vertical edge
      img_h[b * 8 + a] = 1.0f;  // horizontal edge
    }
  }
  const Tensor mv = sobel_magnitude(img_v);
  const Tensor mh = sobel_magnitude(img_h);
  EXPECT_NEAR(mv[3 * 8 + 3], mh[3 * 8 + 3], 1e-5);
}

TEST(Sobel, FlatImageHasZeroInteriorResponse) {
  const Tensor img(Shape{6, 6}, 5.0f);
  const Tensor m = sobel_magnitude(img);
  for (std::size_t y = 1; y < 5; ++y) {
    for (std::size_t x = 1; x < 5; ++x) {
      EXPECT_NEAR(m[y * 6 + x], 0.0f, 1e-5);
    }
  }
}

TEST(Threshold, FixedValue) {
  const Tensor img(Shape{1, 4}, std::vector<float>{0.1f, 0.4f, 0.6f, 0.9f});
  const BinaryMask m = threshold(img, 0.5f);
  EXPECT_FALSE(m.at(0, 0));
  EXPECT_FALSE(m.at(0, 1));
  EXPECT_TRUE(m.at(0, 2));
  EXPECT_TRUE(m.at(0, 3));
}

TEST(Threshold, OtsuSeparatesBimodal) {
  Tensor img(Shape{10, 10});
  for (std::size_t i = 0; i < 50; ++i) img[i] = 0.1f;
  for (std::size_t i = 50; i < 100; ++i) img[i] = 0.9f;
  const float t = otsu_threshold(img);
  EXPECT_GE(t, 0.1f);  // threshold semantics are "strictly above"
  EXPECT_LT(t, 0.9f);
  EXPECT_EQ(threshold_otsu(img).count(), 50u);
}

TEST(Threshold, OtsuFlatImage) {
  const Tensor img(Shape{4, 4}, 0.5f);
  EXPECT_FLOAT_EQ(otsu_threshold(img), 0.5f);
}

TEST(Threshold, OtsuNanAndInfPixels) {
  // A 40-pixel ramp in quarter steps with one pixel replaced. A NaN first
  // propagates, a later NaN is skipped by the min/max and counted in bin
  // 0; an infinity makes the scale 0 or the range infinite, and the
  // threshold NaN. Values recorded from the serial single-histogram scan.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto ramp_with = [](std::size_t at, float v) {
    std::vector<float> image(40);
    for (std::size_t i = 0; i < image.size(); ++i) {
      image[i] = 0.25f * static_cast<float>((i * 7) % image.size());
    }
    image[at] = v;
    return otsu_threshold(image);
  };
  EXPECT_TRUE(std::isnan(ramp_with(0, nan)));
  EXPECT_EQ(ramp_with(17, nan), 0x1.1e1e1ep+2f);
  EXPECT_EQ(ramp_with(39, nan), 0x1.1e4e4ep+2f);
  for (const std::size_t at : {0u, 5u, 20u}) {
    EXPECT_TRUE(std::isnan(ramp_with(at, inf))) << at;
    EXPECT_TRUE(std::isnan(ramp_with(at, -inf))) << at;
  }
  // Flat spans return their first pixel: NaN propagates, -0 stays -0.
  EXPECT_TRUE(std::isnan(otsu_threshold(std::vector<float>{nan, 1.0f})));
  EXPECT_TRUE(std::signbit(otsu_threshold(
      std::vector<float>(33, -0.0f))));
  EXPECT_TRUE(std::signbit(
      otsu_threshold(std::vector<float>{-0.0f, 0.0f, nan, 0.0f})));
  EXPECT_FALSE(std::signbit(
      otsu_threshold(std::vector<float>{0.0f, -0.0f, nan, -0.0f})));
}

TEST(Mask, CountAndAccessors) {
  BinaryMask m(3, 4);
  EXPECT_EQ(m.count(), 0u);
  m.set(1, 2, true);
  EXPECT_TRUE(m.at(1, 2));
  EXPECT_EQ(m.count(), 1u);
  EXPECT_TRUE(m.contains(0, 0));
  EXPECT_FALSE(m.contains(-1, 0));
  EXPECT_FALSE(m.contains(3, 0));
}

TEST(Mask, LargestComponentPicksBiggest) {
  BinaryMask m(5, 10);
  m.set(0, 0, true);
  m.set(0, 1, true);
  for (std::size_t x = 4; x < 10; ++x) m.set(3, x, true);
  const BinaryMask big = largest_component(m);
  EXPECT_EQ(big.count(), 6u);
  EXPECT_TRUE(big.at(3, 5));
  EXPECT_FALSE(big.at(0, 0));
}

TEST(Mask, LargestComponentOfEmptyIsEmpty) {
  const BinaryMask empty(4, 4);
  EXPECT_EQ(largest_component(empty).count(), 0u);
}

TEST(Centroid, OfRectangle) {
  BinaryMask m(10, 10);
  for (std::size_t y = 2; y <= 4; ++y) {
    for (std::size_t x = 3; x <= 7; ++x) m.set(y, x, true);
  }
  const auto c = centroid(m);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->y, 3.0, 1e-9);
  EXPECT_NEAR(c->x, 5.0, 1e-9);
}

TEST(Centroid, EmptyMaskIsNullopt) {
  EXPECT_FALSE(centroid(BinaryMask(4, 4)).has_value());
}

TEST(Radial, DiskSignatureIsFlat) {
  const std::size_t n = 64;
  BinaryMask disk(n, n);
  const double r = 20.0;
  for (std::size_t y = 0; y < n; ++y) {
    for (std::size_t x = 0; x < n; ++x) {
      if (std::hypot(y - 32.0, x - 32.0) <= r) disk.set(y, x, true);
    }
  }
  const auto series = shape_signature(disk, 90);
  ASSERT_EQ(series.size(), 90u);
  double lo = series[0];
  double hi = series[0];
  for (const double v : series) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(lo, r - 2.0);
  EXPECT_LT(hi, r + 2.0);
}

TEST(Radial, SquareSignatureHasSqrt2Ratio) {
  const std::size_t n = 64;
  BinaryMask square(n, n);
  for (std::size_t y = 16; y < 48; ++y) {
    for (std::size_t x = 16; x < 48; ++x) square.set(y, x, true);
  }
  const auto series = shape_signature(square, 360);
  double lo = series[0];
  double hi = series[0];
  for (const double v : series) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_NEAR(hi / lo, std::sqrt(2.0), 0.12);
}

TEST(Radial, RejectsZeroSamples) {
  BinaryMask m(4, 4);
  m.set(1, 1, true);
  EXPECT_THROW(radial_distance_series(m, {1.0, 1.0}, 0),
               std::invalid_argument);
}

TEST(Radial, EmptyMaskYieldsEmptySignature) {
  EXPECT_TRUE(shape_signature(BinaryMask(8, 8), 16).empty());
}

TEST(EdgeMap, DominantShapeFindsRenderedSign) {
  const Tensor img = hybridcnn::data::render_stop_sign(96, 0.0);
  const BinaryMask shape = dominant_shape(img);
  const double frac = static_cast<double>(shape.count()) / (96.0 * 96.0);
  EXPECT_GT(frac, 0.2);
  EXPECT_LT(frac, 0.8);
  const auto c = centroid(shape);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->y, 48.0, 4.0);
  EXPECT_NEAR(c->x, 48.0, 4.0);
}

TEST(EdgeMap, MaskFromFeatureMapFillsInterior) {
  // Edge ring of a square: the filled mask must cover the interior.
  const std::size_t n = 32;
  Tensor fm(Shape{n, n});
  for (std::size_t i = 8; i < 24; ++i) {
    fm[8 * n + i] = 1.0f;
    fm[23 * n + i] = 1.0f;
    fm[i * n + 8] = 1.0f;
    fm[i * n + 23] = 1.0f;
  }
  const BinaryMask filled = mask_from_feature_map(fm);
  EXPECT_TRUE(filled.at(16, 16)) << "interior must be filled";
  EXPECT_FALSE(filled.at(2, 2));
  EXPECT_GE(filled.count(), 16u * 16u - 8);
}

TEST(EdgeMap, EdgeMagnitudeOfRenderedSignPeaksAtBoundary) {
  const Tensor img = hybridcnn::data::render_stop_sign(64, 0.0);
  const Tensor mag = edge_magnitude(img);
  float centre = mag[32 * 64 + 32];
  float boundary = 0.0f;
  for (std::size_t x = 0; x < 64; ++x) {
    boundary = std::max(boundary, mag[32 * 64 + x]);
  }
  EXPECT_GT(boundary, 4.0f * std::max(centre, 0.05f));
}

}  // namespace
