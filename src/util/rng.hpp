// Deterministic pseudo-random number generation for reproducible
// experiments. Every stochastic component in the library (fault injection,
// weight initialisation, dataset rendering) draws from an explicitly seeded
// Rng so that a campaign re-run with the same seed is bit-identical.
#pragma once

#include <cstdint>
#include <limits>

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
    state_ = old * kMultiplier + inc_;
    return output(old);
  }

  /// Uniform double in [0, 1): `bits53 * 2^-53`, where bits53 is built
  /// from two draws (see bits53()).
  double uniform() noexcept {
    const std::uint32_t hi = (*this)();
    const std::uint32_t lo = (*this)();
    return static_cast<double>(bits53(hi, lo)) * (1.0 / 9007199254740992.0);
  }

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

  /// All-or-nothing run of failed Bernoulli trials: if the next `n`
  /// bernoulli(p) calls would all return false, makes exactly their draws
  /// and returns true; otherwise leaves the generator untouched and
  /// returns false. Bit-exact with the per-call loop, in O(1) for p <= 0
  /// or p >= 1 and one fused state step per trial otherwise.
  [[nodiscard]] bool try_take_bernoulli_misses(double p,
                                               std::uint64_t n) noexcept;

  /// Forks an independent child generator; deterministic function of the
  /// current state. Used to hand each layer / fault site its own stream.
  Rng fork() noexcept;

 private:
  static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

  /// PCG32 XSH-RR output permutation of a pre-step state.
  static std::uint32_t output(std::uint64_t old) noexcept {
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// The 53 mantissa bits uniform() scales: bits 32..52 are `hi >> 11`.
  static std::uint64_t bits53(std::uint64_t hi, std::uint64_t lo) noexcept {
    return ((hi << 21) ^ lo) & ((1ULL << 53) - 1);
  }

  std::uint64_t state_;
  std::uint64_t inc_;
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace hybridcnn::util
