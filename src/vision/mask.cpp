#include "vision/mask.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hybridcnn::vision {

namespace {

/// A zero-area output needs no storage, so its data may be null.
void require_same_dims(const ConstMaskView& in, const MaskView& out,
                       const char* what) {
  if (in.height != out.height || in.width != out.width ||
      (out.data == nullptr && out.size() != 0)) {
    throw std::invalid_argument(std::string(what) +
                                ": output view dimensions mismatch");
  }
}

/// Radius-1 dilation: each output pixel ORs the column ORs (the pixel
/// with those above and below it) of its own column and its left and
/// right neighbours, which is the OR over the 3x3 square clipped to the
/// image, exactly what the general path computes. A missing neighbour row
/// reuses the centre row, and a missing neighbour column is left out;
/// either leaves the OR unchanged. Every column OR is read straight from
/// the input rows, so the row loop carries no value between pixels and
/// vectorises.
void dilate_3x3(ConstMaskView mask, MaskView out) {
  const std::size_t h = mask.height;
  const std::size_t w = mask.width;
  if (w == 0) return;
  for (std::size_t y = 0; y < h; ++y) {
    const std::uint8_t* mid = mask.data + y * w;
    const std::uint8_t* up = y > 0 ? mid - w : mid;
    const std::uint8_t* down = y + 1 < h ? mid + w : mid;
    std::uint8_t* row = out.data + y * w;
    const auto column = [&](std::size_t x) {
      return static_cast<std::uint8_t>(up[x] | mid[x] | down[x]);
    };
    if (w == 1) {
      row[0] = column(0) != 0 ? 1 : 0;
      continue;
    }
    row[0] = (column(0) | column(1)) != 0 ? 1 : 0;
    for (std::size_t x = 1; x + 1 < w; ++x) {
      row[x] = (column(x - 1) | column(x) | column(x + 1)) != 0 ? 1 : 0;
    }
    row[w - 1] = (column(w - 2) | column(w - 1)) != 0 ? 1 : 0;
  }
}

/// Radius-1 erosion the same way as dilate_3x3, with the minimum for the
/// AND: a pixel stays set when the minimum over its 3x3 square is non-zero.
/// Pixels outside the image count as unset, so the one-pixel frame is
/// always cleared.
void erode_3x3(ConstMaskView mask, MaskView out) {
  const std::size_t h = mask.height;
  const std::size_t w = mask.width;
  if (h < 3 || w < 3) {
    out.fill(0);
    return;
  }
  std::fill(out.data, out.data + w, std::uint8_t{0});
  std::fill(out.data + (h - 1) * w, out.data + h * w, std::uint8_t{0});
  for (std::size_t y = 1; y + 1 < h; ++y) {
    const std::uint8_t* mid = mask.data + y * w;
    const std::uint8_t* up = mid - w;
    const std::uint8_t* down = mid + w;
    std::uint8_t* row = out.data + y * w;
    const auto column = [&](std::size_t x) {
      return std::min(std::min(up[x], mid[x]), down[x]);
    };
    row[0] = 0;
    for (std::size_t x = 1; x + 1 < w; ++x) {
      const std::uint8_t m =
          std::min(std::min(column(x - 1), column(x)), column(x + 1));
      row[x] = m != 0 ? 1 : 0;
    }
    row[w - 1] = 0;
  }
}

/// Index of the first pixel in [x, w) of `row` that is set (`set`) or
/// unset (`!set`), or w when there is none. Tests eight pixels per word.
std::size_t find_pixel(const std::uint8_t* row, std::size_t x, std::size_t w,
                       bool set) {
  constexpr std::uint64_t kLow7 = 0x7f7f7f7f7f7f7f7fULL;
  constexpr std::uint64_t kHigh = ~kLow7;
  for (; x + 8 <= w; x += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, row + x, sizeof(word));
    // The high bit of each byte of `nonzero` is set when that byte is.
    const std::uint64_t nonzero = (((word & kLow7) + kLow7) | word) & kHigh;
    const std::uint64_t hits = set ? nonzero : nonzero ^ kHigh;
    if (hits == 0) continue;
    const int bit = std::endian::native == std::endian::little
                        ? std::countr_zero(hits)
                        : std::countl_zero(hits);
    return x + static_cast<std::size_t>(bit / 8);
  }
  while (x < w && (row[x] != 0) != set) ++x;
  return x;
}

}  // namespace

std::size_t BinaryMask::count() const {
  std::size_t n = 0;
  for (const auto v : data) n += v;
  return n;
}

namespace detail {

std::span<PixelRun> label_runs(ConstMaskView mask, bool set,
                               runtime::Workspace& ws) {
  const std::size_t h = mask.height;
  const std::size_t w = mask.width;
  // Runs of one value in a row are separated by at least one pixel.
  PixelRun* runs = ws.alloc_as<PixelRun>(h * ((w + 1) / 2));
  const auto find = [runs](std::size_t i) {
    while (runs[i].root != i) {
      runs[i].root = runs[runs[i].root].root;  // path halving
      i = runs[i].root;
    }
    return i;
  };
  std::size_t n = 0;
  std::size_t prev_begin = 0;
  for (std::size_t y = 0; y < h; ++y) {
    const std::uint8_t* row = mask.data + y * w;
    const std::size_t row_begin = n;
    for (std::size_t x = find_pixel(row, 0, w, set); x < w;) {
      const std::size_t x1 = find_pixel(row, x, w, !set);
      runs[n] = {y, x, x1, n};
      ++n;
      x = find_pixel(row, x1, w, set);
    }
    // Runs of adjacent rows that overlap in x are 4-connected. The lower
    // root wins each union, so every root is its component's first run.
    std::size_t p = prev_begin;
    for (std::size_t j = row_begin; j < n; ++j) {
      while (p < row_begin && runs[p].x1 <= runs[j].x0) ++p;
      for (std::size_t k = p; k < row_begin && runs[k].x0 < runs[j].x1;
           ++k) {
        const std::size_t a = find(k);
        const std::size_t b = find(j);
        if (a < b) {
          runs[b].root = a;
        } else if (b < a) {
          runs[a].root = b;
        }
      }
    }
    prev_begin = row_begin;
  }
  // A run's parent never follows it, so one forward pass flattens every
  // run onto its root.
  for (std::size_t i = 0; i < n; ++i) runs[i].root = runs[runs[i].root].root;
  return {runs, n};
}

}  // namespace detail

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
  out.fill(0);
  runtime::Workspace::Scope scope(ws);
  const std::span<detail::PixelRun> runs = detail::label_runs(mask, true, ws);
  // Pixel count of each component, kept on its root. A root precedes
  // every other run of its component, so its count is started first.
  std::size_t* size = ws.alloc_as<std::size_t>(runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const detail::PixelRun& r = runs[i];
    if (r.root == i) {
      size[i] = r.x1 - r.x0;
    } else {
      size[r.root] += r.x1 - r.x0;
    }
  }
  // Roots are visited in raster order of their first pixel, so on ties
  // the component that starts first wins.
  std::size_t best = runs.size();
  std::size_t best_size = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].root == i && size[i] > best_size) {
      best_size = size[i];
      best = i;
    }
  }
  for (const detail::PixelRun& r : runs) {
    if (r.root != best) continue;
    std::uint8_t* row = out.data + r.y * mask.width;
    std::fill(row + r.x0, row + r.x1, std::uint8_t{1});
  }
}

BinaryMask largest_component(const BinaryMask& mask) {
  BinaryMask out(mask.height, mask.width);
  largest_component(mask.view(), out.view(), runtime::thread_scratch());
  return out;
}

}  // namespace hybridcnn::vision
