#include "reliable/leaky_bucket.hpp"

#include <algorithm>
#include <stdexcept>

namespace hybridcnn::reliable {

LeakyBucket::LeakyBucket(std::uint32_t factor, std::uint32_t ceiling)
    : factor_(factor), ceiling_(ceiling) {
  if (factor == 0) {
    throw std::invalid_argument("LeakyBucket: factor must be >= 1");
  }
  if (ceiling == 0) {
    throw std::invalid_argument("LeakyBucket: ceiling must be >= 1");
  }
}

bool LeakyBucket::record_error() noexcept {
  ++errors_;
  // Saturating add; ceiling_ is the trip point.
  level_ = (level_ > ceiling_ - std::min(factor_, ceiling_))
               ? ceiling_
               : level_ + factor_;
  level_ = std::min(level_, ceiling_);
  peak_ = std::max(peak_, level_);
  if (level_ >= ceiling_) exhausted_ = true;
  return exhausted_;
}

void LeakyBucket::record_success() noexcept {
  ++successes_;
  if (level_ > 0) --level_;
}

void LeakyBucket::record_successes(std::uint64_t n) noexcept {
  successes_ += n;
  level_ = n >= level_ ? 0 : level_ - static_cast<std::uint32_t>(n);
}

void LeakyBucket::reset() noexcept {
  level_ = 0;
  peak_ = 0;
  errors_ = 0;
  successes_ = 0;
  exhausted_ = false;
}

}  // namespace hybridcnn::reliable
