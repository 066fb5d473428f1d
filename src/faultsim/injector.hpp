// Operation-level fault injector.
//
// The reliable executors (src/reliable) route every scalar multiply and
// add through an injector; the injector decides, per execution, whether to
// corrupt the value according to the configured fault model. This is the
// library's equivalent of PyTorchFI-style frameworks, but at the
// granularity the paper's Algorithm 3 operates on: a single arithmetic
// operation on a single processing element.
#pragma once

#include <cstdint>
#include <vector>

#include "faultsim/fault_model.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace hybridcnn::faultsim {

/// Statistics accumulated by an injector across a campaign.
struct InjectorStats {
  std::uint64_t executions = 0;  ///< scalar op executions observed
  std::uint64_t faults = 0;      ///< executions that were corrupted
};

// Campaign workers snapshot and diff these counters by value; the
// equivalence tests compare them bit-for-bit against the generic path.
HYBRIDCNN_CONTRACT_TRIVIAL_PAYLOAD(InjectorStats);

/// Decides per scalar-operation execution whether an SEU corrupts it.
///
/// Deterministic for a given (config, seed) pair; the round-robin PE
/// schedule makes permanent and intermittent faults reproducible as well.
class FaultInjector {
 public:
  FaultInjector() : FaultInjector(FaultConfig{}, 0) {}

  FaultInjector(const FaultConfig& config, std::uint64_t seed);

  /// Filters one operand/result value for the next operation execution.
  /// Returns `clean` unchanged when no fault fires, otherwise the value
  /// with one bit flipped per the fault model.
  float filter(float clean) noexcept;

  /// True if the *next* call to filter() will corrupt its value. Only
  /// meaningful for deterministic test scenarios (kPermanent).
  [[nodiscard]] bool next_is_faulty() const noexcept;

  /// Grants the next `n` filter() calls as one clean window, all or
  /// nothing. If none of them would corrupt its value, consumes them
  /// exactly as `n` filter() calls would (RNG draws, stats().executions,
  /// the PE cursor) and returns true; otherwise leaves the injector
  /// untouched and returns false. Clean calls never touch burst state.
  /// The cost does not grow with `n` for kNone, for permanent faults (a
  /// scan of at most num_pes flags) and for stochastic kinds at
  /// probability <= 0 (bernoulli makes no draw there); otherwise it is one
  /// fused RNG step per call. See src/faultsim/README.md for the per-kind
  /// rules.
  [[nodiscard]] bool try_take_clean(std::uint64_t n) noexcept;

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] const InjectorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = InjectorStats{}; }

  /// Index of the PE the next operation will be scheduled on.
  [[nodiscard]] int next_pe() const noexcept { return next_pe_; }

  /// Number of permanently faulty PEs in this compute unit (kPermanent).
  [[nodiscard]] int permanent_faulty_pes() const noexcept;

 private:
  /// True if a flag is set on any PE the next `n` calls land on.
  [[nodiscard]] bool window_hits(const std::vector<std::uint8_t>& pe_flags,
                                 std::uint64_t n) const noexcept;

  FaultConfig config_;
  util::Rng rng_;
  InjectorStats stats_;
  int next_pe_ = 0;
  std::vector<std::uint8_t> pe_permanently_faulty_;
  std::vector<std::uint8_t> pe_burst_active_;
};

}  // namespace hybridcnn::faultsim
