// Deterministic pseudo-random number generation for reproducible
// experiments. Every stochastic component in the library (fault injection,
// weight initialisation, dataset rendering) draws from an explicitly seeded
// Rng so that a campaign re-run with the same seed is bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "runtime/isa.hpp"

namespace hybridcnn::util {

/// splitmix64: used to expand a single user seed into stream seeds.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

class Rng;

namespace detail {

/// PCG32's LCG multiplier: a draw steps the state as `s * A + inc`.
inline constexpr std::uint64_t kPcgMultiplier = 6364136223846793005ULL;

/// PCG32 XSH-RR output permutation of a pre-step state.
constexpr std::uint32_t pcg_output(std::uint64_t old) noexcept {
  const auto xorshifted =
      static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
}

/// The 53 mantissa bits Rng::uniform() scales: bits 32..52 are `hi >> 11`.
constexpr std::uint64_t bits53(std::uint64_t hi, std::uint64_t lo) noexcept {
  return ((hi << 21) ^ lo) & ((1ULL << 53) - 1);
}

/// Trials one step of the vector scan in Rng::bernoulli_misses() covers:
/// eight independent vectors of 64-bit lanes, so that their multiplies
/// overlap and hide the latency of the 64-bit vector multiply, and one
/// any-lane test serves them all.
inline constexpr std::size_t kScanVecs = 8;
inline constexpr std::size_t kScanLanes = kScanVecs * runtime::isa::kU64Lanes;

/// Rng::bernoulli_misses() computed one trial at a time, without vectors:
/// the reference the tests hold the vector scan to.
[[nodiscard]] std::uint64_t scalar_bernoulli_misses(const Rng& rng, double p,
                                                    std::uint64_t cap) noexcept;

}  // namespace detail

/// PCG32 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
/// Statistically Good Algorithms for Random Number Generation").
/// Small state, fast, and good enough statistical quality for fault
/// sampling and data synthesis. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Constructs a generator from a user seed and a stream id. Distinct
  /// stream ids yield statistically independent sequences for one seed,
  /// which the fault-injection campaigns use to decorrelate fault sites.
  explicit Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL,
               std::uint64_t stream = 0) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next 32 random bits.
  result_type operator()() noexcept {
    const std::uint64_t old = state_;
    state_ = old * detail::kPcgMultiplier + inc_;
    return detail::pcg_output(old);
  }

  /// Uniform double in [0, 1): `bits53 * 2^-53`, where bits53 is built
  /// from two draws (see detail::bits53()).
  double uniform() noexcept {
    const std::uint32_t hi = (*this)();
    const std::uint32_t lo = (*this)();
    return static_cast<double>(detail::bits53(hi, lo)) *
           (1.0 / 9007199254740992.0);
  }

  /// Makes the draws of `k` uniform() calls in O(log k) (LCG jump-ahead).
  void skip_uniforms(std::uint64_t k) noexcept;

  /// Uniform double in [lo, hi). Stays out of line, like normal(): the
  /// library builds some directories with FP contraction off and others
  /// with it on, so an inlined `lo + (hi - lo) * u` could fuse into an FMA
  /// in some callers, changing rendered images and initial weights. The
  /// inline draws above hold no multiply-add and are exact anywhere.
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached spare value).
  double normal() noexcept;

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]). Makes
  /// no draw when p <= 0 or p >= 1, and two (one uniform()) otherwise.
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// How many of the next `cap` bernoulli(p) calls would return false
  /// before the first true one (`cap` if none does), counting from `skip`
  /// uniform() calls ahead. Makes no draws: the caller consumes the
  /// misses with skip_uniforms() (bernoulli draws only when 0 < p < 1 or
  /// p is NaN). Bit-exact with the per-call loop:
  /// a trial hits iff `bits53 < T = ceil(p * 2^53)`, decided on the high
  /// draw alone unless `(hi >> 11) <= (T >> 32)`. Where the target has
  /// vectors, lane i of the scan holds the stream 2i draws ahead and
  /// every step advances all lanes by one multiply-add; O(1) for p <= 0,
  /// p >= 1 and NaN.
  [[nodiscard]] std::uint64_t bernoulli_misses(
      double p, std::uint64_t cap, std::uint64_t skip = 0) const noexcept;

  /// Forks an independent child generator; deterministic function of the
  /// current state. Used to hand each layer / fault site its own stream.
  Rng fork() noexcept;

 private:
  friend std::uint64_t detail::scalar_bernoulli_misses(
      const Rng& rng, double p, std::uint64_t cap) noexcept;

  std::uint64_t state_;
  std::uint64_t inc_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hybridcnn::util
