// Grow-only scratch arena for kernel workspace (im2col/col2im panels,
// GEMM packing buffers).
//
// The hot paths used to heap-allocate their scratch on every call; a
// Workspace instead bump-allocates out of blocks that persist across
// calls, so steady-state forward/backward does no allocation at all.
// Blocks are never reallocated once handed out, so pointers from alloc()
// stay valid until the enclosing Scope is released (or reset() is
// called). Each execution slot of the ThreadPool owns its own Workspace
// (see ComputeContext), so no locking is needed.
//
// Usage:
//   Workspace::Scope scope(ws);          // marks the current watermark
//   float* col = ws.alloc(n);            // uninitialised scratch
//   ...                                  // scope exit frees back to mark
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace hybridcnn::runtime {

class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Bump-allocates `count` floats of *uninitialised* scratch. The
  /// pointer stays valid until the enclosing Scope releases it.
  float* alloc(std::size_t count);

  /// Span-returning convenience over alloc().
  std::span<float> alloc_span(std::size_t count) {
    return {alloc(count), count};
  }

  /// Typed bump allocation: `count` uninitialised objects of a trivial
  /// type T (double series, mask bytes, run labels), aligned for T and
  /// carved out of the same float blocks. Same lifetime rules as alloc().
  template <typename T>
  T* alloc_as(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "Workspace scratch must be trivial");
    const std::size_t bytes = count * sizeof(T) + alignof(T);
    const std::size_t floats = (bytes + sizeof(float) - 1) / sizeof(float);
    void* p = alloc(floats);
    std::size_t space = floats * sizeof(float);
    void* aligned = std::align(alignof(T), count * sizeof(T), p, space);
    assert(aligned != nullptr);
    return static_cast<T*>(aligned);
  }

  /// Span-returning convenience over alloc_as().
  template <typename T>
  std::span<T> alloc_span_as(std::size_t count) {
    return {alloc_as<T>(count), count};
  }

  /// Releases every allocation (keeps block capacity for reuse).
  void reset() noexcept;

  /// Frees the backing blocks themselves.
  void release_memory() noexcept;

  /// Total floats of backing capacity currently held.
  [[nodiscard]] std::size_t capacity() const noexcept;

  /// Floats currently allocated (watermark across blocks).
  [[nodiscard]] std::size_t in_use() const noexcept;

  /// RAII watermark: allocations made after construction are released on
  /// destruction. Scopes nest (stack discipline).
  ///
  /// Debug builds audit the discipline: destroying a Scope after the
  /// arena was reset() (or its blocks released) asserts, because every
  /// scratch pointer the scope guarded has been invalidated — the
  /// "scratch must not outlive its arena reset" contract the sax/vision
  /// pipeline overloads rely on.
  class Scope {
   public:
    explicit Scope(Workspace& ws) noexcept
        : ws_(ws),
          block_(ws.active_),
          used_(ws.used_in_active()),
          generation_(ws.generation_) {
      ++ws_.open_scopes_;
    }
    ~Scope() noexcept {
      assert(ws_.generation_ == generation_ &&
             "Workspace reset/released under a live Scope: scratch "
             "buffers outlived their arena");
      --ws_.open_scopes_;
      ws_.rewind(block_, used_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace& ws_;
    std::size_t block_;
    std::size_t used_;
    std::uint64_t generation_;
  };

  /// Number of Scopes currently open on this arena (debug audit hook).
  [[nodiscard]] std::size_t open_scopes() const noexcept {
    return open_scopes_;
  }

 private:
  friend class Scope;

  struct Block {
    std::vector<float> data;
    std::size_t used = 0;
  };

  [[nodiscard]] std::size_t used_in_active() const noexcept {
    return blocks_.empty() ? 0 : blocks_[active_].used;
  }
  void rewind(std::size_t block, std::size_t used) noexcept;

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  // index of the block new allocations bump into
  std::size_t open_scopes_ = 0;    // live Scope count (audit)
  std::uint64_t generation_ = 0;   // bumped by reset()/release_memory()
};

/// Per-thread grow-only arena for the allocating *wrapper* overloads of
/// pipeline functions (sax/vision): one arena per thread, shared by every
/// wrapper, so cold-path convenience signatures stay allocation-free in
/// steady state without dragging the pool context into leaf libraries.
/// Hot paths should pass an explicit slot arena instead
/// (ComputeContext::workspace()).
Workspace& thread_scratch();

}  // namespace hybridcnn::runtime
