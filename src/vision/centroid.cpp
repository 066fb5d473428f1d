#include "vision/centroid.hpp"

#include <algorithm>
#include <cstdint>

namespace hybridcnn::vision {

std::optional<Centroid> centroid(ConstMaskView mask) {
  // Integer sums, converted once: the same values as summing each pixel's
  // coordinates in doubles, which is exact while the sums stay below 2^53.
  // Each row is summed in chunks short enough for 32-bit lane sums, which
  // keeps the byte-to-lane widening narrow enough to vectorise.
  constexpr std::size_t kChunk = 4096;
  std::uint64_t n = 0;
  std::uint64_t sy = 0;
  std::uint64_t sx = 0;
  for (std::size_t y = 0; y < mask.height; ++y) {
    const std::uint8_t* row = mask.data + y * mask.width;
    for (std::size_t x0 = 0; x0 < mask.width; x0 += kChunk) {
      const auto len =
          static_cast<std::uint32_t>(std::min(kChunk, mask.width - x0));
      std::uint32_t count = 0;
      std::uint32_t xsum = 0;  // below kChunk^2 / 2
      for (std::uint32_t x = 0; x < len; ++x) {
        const bool set = row[x0 + x] != 0;
        count += set ? 1U : 0U;
        xsum += set ? x : 0U;
      }
      n += count;
      sy += std::uint64_t{count} * y;
      sx += std::uint64_t{count} * x0 + xsum;
    }
  }
  if (n == 0) return std::nullopt;
  const auto count = static_cast<double>(n);
  return Centroid{static_cast<double>(sy) / count,
                  static_cast<double>(sx) / count};
}

std::optional<Centroid> centroid(const BinaryMask& mask) {
  return centroid(mask.view());
}

}  // namespace hybridcnn::vision
