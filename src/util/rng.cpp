#include "util/rng.hpp"

#include <array>
#include <cmath>
#include <cstddef>

#include "runtime/isa.hpp"

namespace hybridcnn::util {

namespace {

using detail::kPcgMultiplier;

/// `k` LCG steps as one affine map of the state: s -> s * mul + add * inc.
struct LcgJump {
  std::uint64_t mul = 1;
  std::uint64_t add = 0;

  [[nodiscard]] constexpr std::uint64_t of(std::uint64_t s,
                                           std::uint64_t inc) const noexcept {
    return s * mul + add * inc;
  }
};

/// The map of `k` steps in O(log k), by repeated squaring (Brown, "Random
/// number generation with arbitrary strides", 1994). The LCG has period
/// 2^64, so `k` may wrap.
constexpr LcgJump lcg_jump(std::uint64_t k) noexcept {
  LcgJump acc;
  LcgJump pow{kPcgMultiplier, 1};  // 2^j steps
  for (; k != 0; k >>= 1) {
    if ((k & 1) != 0) {
      acc.mul *= pow.mul;
      acc.add = acc.add * pow.mul + pow.add;
    }
    pow.add *= pow.mul + 1;
    pow.mul *= pow.mul;
  }
  return acc;
}

/// True if the trial whose first draw comes from state `s` hits:
/// bits53 < threshold. The high draw settles it unless it lands in the
/// boundary bucket `(hi >> 11) <= (threshold >> 32)`.
bool trial_hits(std::uint64_t s, std::uint64_t inc,
                std::uint64_t threshold) noexcept {
  const std::uint32_t hi = detail::pcg_output(s);
  return (hi >> 11) <= (threshold >> 32) &&
         detail::bits53(hi, detail::pcg_output(s * kPcgMultiplier + inc)) <
             threshold;
}

/// Leading misses among the `cap` trials from state `s`, one at a time.
std::uint64_t scan_scalar(std::uint64_t s, std::uint64_t inc,
                          std::uint64_t threshold, std::uint64_t cap) noexcept {
  constexpr LcgJump kTrial = lcg_jump(2);
  for (std::uint64_t i = 0; i < cap; ++i) {
    if (trial_hits(s, inc, threshold)) return i;
    s = kTrial.of(s, inc);
  }
  return cap;
}

#ifdef HYBRIDCNN_ISA_SIMD

using detail::kScanLanes;
using detail::kScanVecs;
using runtime::isa::kU64Lanes;
using runtime::isa::VecU64;

/// Lane i starts 2i draws (i trials) past the scan's origin: the state
/// there is `origin * kLaneMul[i] + kLaneAdd[i] * inc`.
template <typename Field>
constexpr std::array<std::uint64_t, kScanLanes> lane_table(Field field) {
  std::array<std::uint64_t, kScanLanes> table{};
  for (std::size_t i = 0; i < kScanLanes; ++i) {
    table[i] = field(lcg_jump(2 * i));
  }
  return table;
}
constexpr auto kLaneMul = lane_table([](LcgJump j) { return j.mul; });
constexpr auto kLaneAdd = lane_table([](LcgJump j) { return j.add; });
/// One scan step moves every lane kScanLanes trials on.
constexpr LcgJump kLaneStep = lcg_jump(2 * kScanLanes);

VecU64 load_lanes(const std::uint64_t* p) noexcept {
  VecU64 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

/// detail::pcg_output on every lane, in the lane's low dword and zero
/// above it.
VecU64 lane_output(VecU64 old) noexcept {
#ifdef HYBRIDCNN_ISA_ROTR32
  // The xorshift leaves the xorshifted word in the low dword and rot
  // (bits 59-63 of the state) in the high one; swapping the dwords puts
  // rot beside it as the rotate count.
  const VecU64 y = ((old >> 18) ^ old) >> 27;
  return runtime::isa::rotr32(y, (y >> 32) | (y << 32)) & 0xFFFFFFFFu;
#else
  // The 32-bit rotation is one 64-bit shift of the xorshifted word held
  // twice: the high half of `(x:x) << (32 - rot)` is x rotated right by
  // rot.
  const VecU64 x = (((old >> 18) ^ old) >> 27) & 0xFFFFFFFFu;
  return ((x | (x << 32)) << (32 - (old >> 59))) >> 32;
#endif
}

/// scan_scalar() at kScanLanes trials per step: all lanes test their high
/// draw, and a step where some lane lands in the boundary bucket is run
/// again by trial_hits() lane by lane, in trial order. A lane is in the
/// bucket iff `hi < ((threshold >> 32) + 1) << 11`, i.e. iff `hi` minus
/// that bound wraps below zero, so a step ORs the differences of all
/// lanes and tests their sign bits once.
std::uint64_t scan_lanes(std::uint64_t origin, std::uint64_t inc,
                         std::uint64_t threshold, std::uint64_t cap) noexcept {
  const std::uint64_t bucket_end = ((threshold >> 32) + 1) << 11;
  VecU64 lanes[kScanVecs]{};
  for (std::size_t v = 0; v < kScanVecs; ++v) {
    lanes[v] = origin * load_lanes(&kLaneMul[v * kU64Lanes]) +
               inc * load_lanes(&kLaneAdd[v * kU64Lanes]);
  }
  const std::uint64_t step_add = kLaneStep.add * inc;
  for (std::uint64_t base = 0; base < cap; base += kScanLanes) {
    VecU64 below{};
    for (const VecU64& lane : lanes) below |= lane_output(lane) - bucket_end;
    if (runtime::isa::any_sign(below)) [[unlikely]] {
      std::uint64_t states[kScanLanes];
      __builtin_memcpy(states, lanes, sizeof states);
      for (std::size_t i = 0; i < kScanLanes && base + i < cap; ++i) {
        if (trial_hits(states[i], inc, threshold)) return base + i;
      }
    }
    for (VecU64& lane : lanes) lane = lane * kLaneStep.mul + step_add;
  }
  return cap;
}

#endif  // HYBRIDCNN_ISA_SIMD

/// The per-p cases bernoulli() settles without a draw, then `scan` over
/// the threshold T = ceil(p * 2^53): uniform() < p  <=>  bits53 < T,
/// since ldexp is exact and bits53 is an integer.
template <typename Scan>
std::uint64_t count_misses(double p, std::uint64_t cap, Scan&& scan) {
  if (p <= 0.0) return cap;
  if (p >= 1.0) return 0;
  const double t = std::ceil(std::ldexp(p, 53));
  if (!(t > 0.0)) return cap;  // NaN p: every trial draws and misses
  return scan(static_cast<std::uint64_t>(t));
}

}  // namespace

std::uint64_t detail::scalar_bernoulli_misses(const Rng& rng, double p,
                                              std::uint64_t cap) noexcept {
  return count_misses(p, cap, [&](std::uint64_t threshold) {
    return scan_scalar(rng.state_, rng.inc_, threshold, cap);
  });
}

std::uint64_t Rng::bernoulli_misses(double p, std::uint64_t cap,
                                    std::uint64_t skip) const noexcept {
  return count_misses(p, cap, [&](std::uint64_t threshold) {
    const std::uint64_t origin = lcg_jump(2 * skip).of(state_, inc_);
#ifdef HYBRIDCNN_ISA_SIMD
    return scan_lanes(origin, inc_, threshold, cap);
#else
    return scan_scalar(origin, inc_, threshold, cap);
#endif
  });
}

void Rng::skip_uniforms(std::uint64_t k) noexcept {
  state_ = lcg_jump(2 * k).of(state_, inc_);
}

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

Rng Rng::fork() noexcept {
  const std::uint64_t seed =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  const std::uint64_t stream =
      (static_cast<std::uint64_t>((*this)()) << 32) | (*this)();
  return Rng(seed, stream);
}

}  // namespace hybridcnn::util
