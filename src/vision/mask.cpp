#include "vision/mask.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hybridcnn::vision {

namespace {

void require_same_dims(const ConstMaskView& in, const MaskView& out,
                       const char* what) {
  if (in.height != out.height || in.width != out.width ||
      out.data == nullptr) {
    throw std::invalid_argument(std::string(what) +
                                ": output view dimensions mismatch");
  }
}

/// Radius-1 dilation: a column pass ORs each pixel with the pixels above
/// and below it into `out`, then an in-place row pass ORs each result
/// with its left and right neighbours. Together they OR over the 3x3
/// square clipped to the image, exactly what the general path computes;
/// a missing neighbour row reuses the centre row, which leaves the OR
/// unchanged. The row pass carries the overwritten left neighbour in a
/// scalar, so no scratch is needed.
void dilate_3x3(ConstMaskView mask, MaskView out) {
  const std::size_t h = mask.height;
  const std::size_t w = mask.width;
  for (std::size_t y = 0; y < h; ++y) {
    const std::uint8_t* mid = mask.data + y * w;
    const std::uint8_t* up = y > 0 ? mid - w : mid;
    const std::uint8_t* down = y + 1 < h ? mid + w : mid;
    std::uint8_t* row = out.data + y * w;
    for (std::size_t x = 0; x < w; ++x) {
      row[x] = (up[x] | mid[x] | down[x]) != 0 ? 1 : 0;
    }
    std::uint8_t left = 0;
    for (std::size_t x = 0; x < w; ++x) {
      const std::uint8_t centre = row[x];
      const std::uint8_t right = x + 1 < w ? row[x + 1] : 0;
      row[x] = static_cast<std::uint8_t>(left | centre | right);
      left = centre;
    }
  }
}

/// Radius-1 erosion as separable AND passes, the same way as dilate_3x3.
/// Pixels outside the image count as unset, so the one-pixel frame is
/// always cleared.
void erode_3x3(ConstMaskView mask, MaskView out) {
  const std::size_t h = mask.height;
  const std::size_t w = mask.width;
  out.fill(0);
  if (h < 3 || w < 3) return;
  for (std::size_t y = 1; y + 1 < h; ++y) {
    const std::uint8_t* mid = mask.data + y * w;
    const std::uint8_t* up = mid - w;
    const std::uint8_t* down = mid + w;
    std::uint8_t* row = out.data + y * w;
    for (std::size_t x = 0; x < w; ++x) {
      row[x] = (up[x] != 0 && mid[x] != 0 && down[x] != 0) ? 1 : 0;
    }
    std::uint8_t left = row[0];
    row[0] = 0;
    for (std::size_t x = 1; x + 1 < w; ++x) {
      const std::uint8_t centre = row[x];
      row[x] = static_cast<std::uint8_t>(left & centre & row[x + 1]);
      left = centre;
    }
    row[w - 1] = 0;
  }
}

}  // namespace

std::size_t BinaryMask::count() const {
  std::size_t n = 0;
  for (const auto v : data) n += v;
  return n;
}

void dilate(ConstMaskView mask, std::size_t radius, MaskView out) {
  require_same_dims(mask, out, "dilate");
  if (radius == 1) {
    dilate_3x3(mask, out);
    return;
  }
  const auto r = static_cast<std::int64_t>(radius);
  out.fill(0);
  for (std::size_t y = 0; y < mask.height; ++y) {
    for (std::size_t x = 0; x < mask.width; ++x) {
      if (!mask.at(y, x)) continue;
      for (std::int64_t dy = -r; dy <= r; ++dy) {
        for (std::int64_t dx = -r; dx <= r; ++dx) {
          const auto ny = static_cast<std::int64_t>(y) + dy;
          const auto nx = static_cast<std::int64_t>(x) + dx;
          if (mask.contains(ny, nx)) {
            out.set(static_cast<std::size_t>(ny),
                    static_cast<std::size_t>(nx), true);
          }
        }
      }
    }
  }
}

BinaryMask dilate(const BinaryMask& mask, std::size_t radius) {
  BinaryMask out(mask.height, mask.width);
  dilate(mask.view(), radius, out.view());
  return out;
}

void erode(ConstMaskView mask, std::size_t radius, MaskView out) {
  require_same_dims(mask, out, "erode");
  if (radius == 1) {
    erode_3x3(mask, out);
    return;
  }
  const auto r = static_cast<std::int64_t>(radius);
  out.fill(0);
  for (std::size_t y = 0; y < mask.height; ++y) {
    for (std::size_t x = 0; x < mask.width; ++x) {
      bool all = true;
      for (std::int64_t dy = -r; dy <= r && all; ++dy) {
        for (std::int64_t dx = -r; dx <= r && all; ++dx) {
          const auto ny = static_cast<std::int64_t>(y) + dy;
          const auto nx = static_cast<std::int64_t>(x) + dx;
          if (!mask.contains(ny, nx) ||
              !mask.at(static_cast<std::size_t>(ny),
                       static_cast<std::size_t>(nx))) {
            all = false;
          }
        }
      }
      if (all) out.set(y, x, true);
    }
  }
}

BinaryMask erode(const BinaryMask& mask, std::size_t radius) {
  BinaryMask out(mask.height, mask.width);
  erode(mask.view(), radius, out.view());
  return out;
}

void largest_component(ConstMaskView mask, MaskView out,
                       runtime::Workspace& ws) {
  require_same_dims(mask, out, "largest_component");
  const std::size_t h = mask.height;
  const std::size_t w = mask.width;
  out.fill(0);
  if (mask.size() == 0) return;

  runtime::Workspace::Scope scope(ws);
  // Component labels on a grid padded by one pixel on every side
  // (0 = set and unvisited). Background and padding start as kBlocked,
  // so the flood fill reads the four neighbours of any pixel without
  // bounds checks or coordinate division.
  constexpr std::size_t kBlocked = ~std::size_t{0};
  const std::size_t pw = w + 2;
  std::size_t* label = ws.alloc_as<std::size_t>((h + 2) * pw);
  std::fill(label, label + pw, kBlocked);
  std::fill(label + (h + 1) * pw, label + (h + 2) * pw, kBlocked);
  for (std::size_t y = 0; y < h; ++y) {
    std::size_t* row = label + (y + 1) * pw;
    const std::uint8_t* src = mask.data + y * w;
    row[0] = kBlocked;
    for (std::size_t x = 0; x < w; ++x) {
      row[x + 1] = src[x] != 0 ? 0 : kBlocked;
    }
    row[w + 1] = kBlocked;
  }
  // Flat BFS queue of padded indices; every set pixel enters it at most
  // once, so mask.size() slots are enough.
  std::size_t* queue = ws.alloc_as<std::size_t>(mask.size());

  std::size_t next_label = 0;
  std::size_t best_label = 0;
  std::size_t best_size = 0;
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t start = (y + 1) * pw + x + 1;
      if (label[start] != 0) continue;

      // BFS flood fill from `start`. Start pixels are visited in raster
      // order, so on ties the earliest component wins.
      ++next_label;
      std::size_t head = 0;
      std::size_t tail = 0;
      queue[tail++] = start;
      label[start] = next_label;
      while (head < tail) {
        const std::size_t idx = queue[head++];
        for (const std::size_t nidx : {idx - pw, idx + pw, idx - 1, idx + 1}) {
          if (label[nidx] != 0) continue;
          label[nidx] = next_label;
          queue[tail++] = nidx;
        }
      }

      // Every pixel of the component entered the queue exactly once.
      if (tail > best_size) {
        best_size = tail;
        best_label = next_label;
      }
    }
  }

  if (best_size == 0) return;
  for (std::size_t y = 0; y < h; ++y) {
    const std::size_t* row = label + (y + 1) * pw + 1;
    std::uint8_t* dst = out.data + y * w;
    for (std::size_t x = 0; x < w; ++x) dst[x] = row[x] == best_label ? 1 : 0;
  }
}

BinaryMask largest_component(const BinaryMask& mask) {
  BinaryMask out(mask.height, mask.width);
  largest_component(mask.view(), out.view(), runtime::thread_scratch());
  return out;
}

}  // namespace hybridcnn::vision
