// Leaky-bucket error counter (fault-tolerant telecommunication pattern).
//
// Algorithm 3 of the paper: "If an error occurs during the execution of an
// operation then, following the leaky bucket pattern, an error counter is
// incremented by a value (factor) and checked against a ceiling. For every
// correct operation this error counter is decremented by one, floor zero.
// In this way a stream of correctly executed operations will cancel one,
// but not two successive errors."
//
// With the default factor 2 and ceiling 4: one error raises the level to 2
// and subsequent successes drain it back to 0; two successive errors reach
// 4 == ceiling and the condition is reported as persistent.
#pragma once

#include <cstdint>

namespace hybridcnn::reliable {

/// Leaky bucket with error increment `factor`, success decrement 1,
/// floor 0 and saturation ceiling. Exhaustion latches until reset().
class LeakyBucket {
 public:
  /// Constructs with the given parameters. Requires factor >= 1 and
  /// ceiling >= 1; throws std::invalid_argument otherwise.
  explicit LeakyBucket(std::uint32_t factor = 2, std::uint32_t ceiling = 4);

  /// Records a failed operation: level += factor. Returns true if the
  /// bucket is now exhausted (level >= ceiling).
  bool record_error() noexcept;

  /// Records a correct operation: level -= 1, floor 0.
  void record_success() noexcept;

  /// Records `n` correct operations at once, exactly as `n`
  /// record_success() calls: level = max(0, level - n). The peak and the
  /// exhaustion latch never change on successes.
  void record_successes(std::uint64_t n) noexcept;

  /// True once level has reached the ceiling; latched until reset().
  [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }

  /// Current fill level.
  [[nodiscard]] std::uint32_t level() const noexcept { return level_; }

  /// Highest level observed since construction or reset().
  [[nodiscard]] std::uint32_t peak() const noexcept { return peak_; }

  [[nodiscard]] std::uint32_t factor() const noexcept { return factor_; }
  [[nodiscard]] std::uint32_t ceiling() const noexcept { return ceiling_; }

  /// Total errors and successes recorded since construction or reset().
  [[nodiscard]] std::uint64_t errors() const noexcept { return errors_; }
  [[nodiscard]] std::uint64_t successes() const noexcept {
    return successes_;
  }

  /// Drains the bucket and clears the latched exhaustion (system reboot /
  /// new inference).
  void reset() noexcept;

 private:
  std::uint32_t factor_;
  std::uint32_t ceiling_;
  std::uint32_t level_ = 0;
  std::uint32_t peak_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t successes_ = 0;
  bool exhausted_ = false;
};

}  // namespace hybridcnn::reliable
