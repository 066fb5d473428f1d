#include "util/rng.hpp"

#include <cmath>

namespace hybridcnn::util {

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : state_(0), inc_((stream << 1u) | 1u) {
  // Standard PCG32 seeding sequence.
  (*this)();
  std::uint64_t mix = seed;
  state_ += splitmix64(mix);
  (*this)();
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection-free modulo is fine here: span << 2^64 for all our uses.
  const std::uint64_t r =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 1e-300);
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  constexpr double two_pi = 6.283185307179586476925286766559;
  spare_normal_ = mag * std::sin(two_pi * u2);
  has_spare_normal_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

bool Rng::try_take_bernoulli_misses(double p, std::uint64_t n) noexcept {
  if (p <= 0.0) return true;
  if (p >= 1.0) return n == 0;
  // uniform() < p  <=>  bits53 < p * 2^53  <=>  bits53 < T with
  // T = ceil(p * 2^53): ldexp is exact and bits53 is an integer. A NaN p
  // never succeeds in bernoulli() yet draws, which T = 0 reproduces.
  const double t = std::ceil(std::ldexp(p, 53));
  const std::uint64_t threshold = t > 0.0 ? static_cast<std::uint64_t>(t) : 0;
  // bits53 >> 32 == hi >> 11, so a high draw above this bound settles the
  // trial without computing the low draw.
  const std::uint64_t hi_bound = threshold >> 32;
  // Two PCG steps fused: s * A^2 + (A * inc + inc).
  const std::uint64_t mul2 = kMultiplier * kMultiplier;
  const std::uint64_t inc2 = kMultiplier * inc_ + inc_;
  std::uint64_t s = state_;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t hi = output(s);
    if ((hi >> 11) <= hi_bound &&
        bits53(hi, output(s * kMultiplier + inc_)) < threshold) {
      return false;
    }
    s = s * mul2 + inc2;
  }
  state_ = s;
  return true;
}

Rng Rng::fork() noexcept {
  const std::uint64_t seed =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  const std::uint64_t stream =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return Rng(seed, stream);
}

}  // namespace hybridcnn::util
