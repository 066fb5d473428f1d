#include "vision/threshold.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

namespace hybridcnn::vision {

void threshold(std::span<const float> image, float value, MaskView out) {
  if (out.size() != image.size() || out.data == nullptr) {
    throw std::invalid_argument("threshold: output view size mismatch");
  }
  for (std::size_t i = 0; i < image.size(); ++i) {
    out.data[i] = image[i] > value ? 1 : 0;
  }
}

BinaryMask threshold(const tensor::Tensor& image, float value) {
  const auto& sh = image.shape();
  if (sh.rank() != 2) {
    throw std::invalid_argument("threshold: expected [H, W], got " +
                                sh.str());
  }
  BinaryMask mask(sh[0], sh[1]);
  threshold(image.data(), value, mask.view());
  return mask;
}

float otsu_threshold(std::span<const float> image) {
  if (image.empty()) {
    throw std::invalid_argument("otsu_threshold: empty image");
  }

  // Min and max in independent lanes, each a serial scan from image[0]
  // over every kLanes-th pixel. Like one serial scan they skip a NaN after
  // image[0] and propagate one at image[0], which starts every lane. Lane
  // order can only differ from the serial scan's on values that compare
  // equal (+0 and -0), and their sign reaches the result only when
  // max == min: then no lane moves off image[0], so the result is image[0]
  // as before.
  constexpr std::size_t kLanes = 16;
  const std::size_t n = image.size();
  std::array<float, kLanes> lo_lane;
  std::array<float, kLanes> hi_lane;
  lo_lane.fill(image[0]);
  hi_lane.fill(image[0]);
  const auto scan = [&](std::size_t begin, std::size_t lanes) {
    // Kept a loop: GCC vectorises it, but scalarises the lanes of a fully
    // unrolled one.
#pragma GCC unroll 1
    for (std::size_t l = 0; l < lanes; ++l) {
      const float v = image[begin + l];
      lo_lane[l] = v < lo_lane[l] ? v : lo_lane[l];
      hi_lane[l] = hi_lane[l] < v ? v : hi_lane[l];
    }
  };
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) scan(i, kLanes);
  scan(i, n - i);
  float lo = lo_lane[0];
  float hi = hi_lane[0];
  for (std::size_t l = 1; l < kLanes; ++l) {
    lo = std::min(lo, lo_lane[l]);
    hi = std::max(hi, hi_lane[l]);
  }
  if (hi <= lo) return lo;

  // Bin indices of a chunk first, then counts into four sub-histograms,
  // so a run of pixels in one bin does not wait on its own increments.
  // Counts are integers: the sub-histograms sum to the one-histogram
  // counts exactly.
  constexpr int kBins = 256;
  constexpr std::size_t kChunk = 1024;
  const float scale = static_cast<float>(kBins - 1) / (hi - lo);
  std::array<std::uint8_t, kChunk> bins;
  std::array<std::array<std::uint64_t, kBins>, 4> sub{};
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t len = std::min(kChunk, n - begin);
    for (std::size_t j = 0; j < len; ++j) {
      // Truncated and clamped to [0, 255]; a NaN (from a NaN pixel or
      // range) goes to bin 0, as std::max(0, NaN) is 0. A value is +Inf
      // only when the scale is, and then the result lo + bin / scale is
      // the same for every bin.
      const float s = (image[begin + j] - lo) * scale;
      const float clamped =
          std::max(0.0f, std::min(s, static_cast<float>(kBins - 1)));
      bins[j] = static_cast<std::uint8_t>(static_cast<int>(clamped));
    }
    std::size_t j = 0;
    for (; j + 4 <= len; j += 4) {
      ++sub[0][bins[j]];
      ++sub[1][bins[j + 1]];
      ++sub[2][bins[j + 2]];
      ++sub[3][bins[j + 3]];
    }
    for (; j < len; ++j) ++sub[0][bins[j]];
  }
  std::array<std::uint64_t, kBins> hist;
  for (int b = 0; b < kBins; ++b) {
    hist[b] = sub[0][b] + sub[1][b] + sub[2][b] + sub[3][b];
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

float otsu_threshold(const tensor::Tensor& image) {
  const auto& sh = image.shape();
  if (sh.rank() != 2 || image.count() == 0) {
    throw std::invalid_argument("otsu_threshold: expected [H, W]");
  }
  return otsu_threshold(std::span<const float>(image.data()));
}

void threshold_otsu(std::span<const float> image, MaskView out) {
  threshold(image, otsu_threshold(image), out);
}

BinaryMask threshold_otsu(const tensor::Tensor& image) {
  return threshold(image, otsu_threshold(image));
}

}  // namespace hybridcnn::vision
