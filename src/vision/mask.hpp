// Binary image mask used by the deterministic shape pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "runtime/workspace.hpp"

namespace hybridcnn::vision {

/// Read-only non-owning view of row-major binary mask pixels. Used by the
/// explicit-scratch pipeline overloads so mask storage can live in a
/// runtime::Workspace arena instead of the heap.
struct ConstMaskView {
  std::size_t height = 0;
  std::size_t width = 0;
  const std::uint8_t* data = nullptr;  // 0 or 1, height * width entries

  [[nodiscard]] std::size_t size() const noexcept { return height * width; }
  [[nodiscard]] bool at(std::size_t y, std::size_t x) const {
    return data[y * width + x] != 0;
  }
  /// Number of set pixels.
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < size(); ++i) n += data[i];
    return n;
  }
  /// In-bounds test for signed coordinates.
  [[nodiscard]] bool contains(std::int64_t y, std::int64_t x) const {
    return y >= 0 && x >= 0 && y < static_cast<std::int64_t>(height) &&
           x < static_cast<std::int64_t>(width);
  }
};

/// Mutable non-owning view; converts implicitly to ConstMaskView.
struct MaskView {
  std::size_t height = 0;
  std::size_t width = 0;
  std::uint8_t* data = nullptr;

  operator ConstMaskView() const noexcept {  // NOLINT(google-explicit-*)
    return {height, width, data};
  }
  [[nodiscard]] std::size_t size() const noexcept { return height * width; }
  [[nodiscard]] bool at(std::size_t y, std::size_t x) const {
    return data[y * width + x] != 0;
  }
  void set(std::size_t y, std::size_t x, bool v) {
    data[y * width + x] = v ? 1 : 0;
  }
  void fill(std::uint8_t v) {
    for (std::size_t i = 0; i < size(); ++i) data[i] = v;
  }
  [[nodiscard]] std::size_t count() const {
    return ConstMaskView(*this).count();
  }
  [[nodiscard]] bool contains(std::int64_t y, std::int64_t x) const {
    return ConstMaskView(*this).contains(y, x);
  }
};

/// Row-major binary mask (owning).
struct BinaryMask {
  std::size_t height = 0;
  std::size_t width = 0;
  std::vector<std::uint8_t> data;  // 0 or 1, size == height * width

  BinaryMask() = default;
  BinaryMask(std::size_t h, std::size_t w)
      : height(h), width(w), data(h * w, 0) {}

  [[nodiscard]] MaskView view() noexcept {
    return {height, width, data.data()};
  }
  [[nodiscard]] ConstMaskView view() const noexcept {
    return {height, width, data.data()};
  }
  operator ConstMaskView() const noexcept {  // NOLINT(google-explicit-*)
    return view();
  }

  [[nodiscard]] bool at(std::size_t y, std::size_t x) const {
    return data[y * width + x] != 0;
  }
  void set(std::size_t y, std::size_t x, bool v) {
    data[y * width + x] = v ? 1 : 0;
  }

  /// Number of set pixels.
  [[nodiscard]] std::size_t count() const;

  /// In-bounds test for signed coordinates.
  [[nodiscard]] bool contains(std::int64_t y, std::int64_t x) const {
    return y >= 0 && x >= 0 && y < static_cast<std::int64_t>(height) &&
           x < static_cast<std::int64_t>(width);
  }
};

namespace detail {

/// One maximal horizontal run [x0, x1) of row y whose pixels all share a
/// value, with the index of its 4-connected component's root run.
struct PixelRun {
  std::size_t y = 0;
  std::size_t x0 = 0;
  std::size_t x1 = 0;
  std::size_t root = 0;
};

/// Run-length labelling of the 4-connected components of the pixels that
/// are set (`set`) or unset (`!set`; any non-zero byte counts as set).
/// Runs are listed in raster order, and each run's `root` is the index of
/// its component's raster-first run. The runs live in `ws` until the
/// caller's scope ends.
std::span<PixelRun> label_runs(ConstMaskView mask, bool set,
                               runtime::Workspace& ws);

}  // namespace detail

/// Explicit-scratch overloads: `out` must match the input dimensions and
/// must not alias it. Results are identical to the allocating versions.
void largest_component(ConstMaskView mask, MaskView out,
                       runtime::Workspace& ws);
void dilate(ConstMaskView mask, std::size_t radius, MaskView out);
void erode(ConstMaskView mask, std::size_t radius, MaskView out);

/// Largest 4-connected component of `mask`; empty mask yields empty result.
BinaryMask largest_component(const BinaryMask& mask);

/// Morphological dilation with a (2r+1)x(2r+1) square structuring element.
BinaryMask dilate(const BinaryMask& mask, std::size_t radius = 1);

/// Morphological erosion with a (2r+1)x(2r+1) square structuring element
/// (pixels outside the image count as unset).
BinaryMask erode(const BinaryMask& mask, std::size_t radius = 1);

}  // namespace hybridcnn::vision
