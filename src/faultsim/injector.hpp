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
  /// with one bit flipped per the fault model. A call known to be clean
  /// (the cached run of missing Bernoulli trials is non-empty and its PE
  /// has no active burst) takes the inline branch in O(1): it counts the
  /// trial off the cache, leaving its two draws to one jump of the stream
  /// before the next draw, with no RNG step, uniform() or double compare.
  float filter(float clean) noexcept {
    if (clean_ahead_ != 0 &&
        pe_burst_active_[static_cast<std::size_t>(next_pe_)] == 0) {
      --clean_ahead_;
      ++stats_.executions;
      if (++next_pe_ == static_cast<int>(pe_burst_active_.size())) {
        next_pe_ = 0;
      }
      return clean;
    }
    return filter_drawn(clean);
  }

  /// True if the *next* call to filter() will corrupt its value. Only
  /// meaningful for deterministic test scenarios (kPermanent).
  [[nodiscard]] bool next_is_faulty() const noexcept;

  /// The counting clean-window gate: grants the longest clean prefix of
  /// the next `n` filter() calls that is a whole number of `unit`-call
  /// groups (one group per logical op of a redundant scheme) and returns
  /// its length in calls, min(n, index of the first faulty call) rounded
  /// down to a multiple of `unit`. The granted calls are consumed exactly
  /// as that many filter() calls would consume them (RNG draws,
  /// stats().executions, the PE cursor); nothing after them is touched,
  /// so the call that stopped the grant is left for filter(). Clean calls
  /// never touch burst state. The clean prefix per kind:
  ///   - kNone, and stochastic kinds at probability <= 0 (bernoulli makes
  ///     no draw there): all `n`, in O(1);
  ///   - transient: the leading misses of the cached clean run, which a
  ///     vector scan of the stream (Rng::bernoulli_misses) extends up to
  ///     the first hit when `n` reaches past it;
  ///   - intermittent: the same, capped at the distance to the first PE
  ///     of the round robin with an active burst;
  ///   - permanent: the distance to the first faulty PE (a scan of at
  ///     most num_pes flags).
  /// See src/faultsim/README.md. Precondition: unit >= 1.
  [[nodiscard]] std::uint64_t take_clean(std::uint64_t n,
                                         std::uint64_t unit = 1) noexcept;

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] const InjectorStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = InjectorStats{}; }

  /// Index of the PE the next operation will be scheduled on.
  [[nodiscard]] int next_pe() const noexcept { return next_pe_; }

  /// Number of permanently faulty PEs in this compute unit (kPermanent).
  [[nodiscard]] int permanent_faulty_pes() const noexcept;

 private:
  /// Trials a filter() call with nothing cached scans at least, so that
  /// the scan's per-call setup (the lane states and a jump to the end of
  /// the cached run) spreads over the clean calls after it. take_clean()
  /// scans exactly as far as its ask reaches instead.
  static constexpr std::uint64_t kScanChunk = 1024;

  /// filter() for every call the inline branch does not settle; it makes
  /// the draws itself, so it drops the cache first.
  float filter_drawn(float clean) noexcept;

  /// Scans up to `want` Bernoulli(p) trials past the cached clean run and
  /// extends it by the leading misses; a hit sets fault_after_.
  void scan_ahead(std::uint64_t want) noexcept;

  /// Calls before the first one that lands on a PE with its flag set,
  /// in the round robin from next_pe_; UINT64_MAX when no flag is set.
  [[nodiscard]] std::uint64_t calls_before_flag(
      const std::vector<std::uint8_t>& pe_flags) const noexcept;

  FaultConfig config_;
  util::Rng rng_;
  InjectorStats stats_;
  int next_pe_ = 0;
  std::vector<std::uint8_t> pe_permanently_faulty_;
  std::vector<std::uint8_t> pe_burst_active_;
  /// Transient or intermittent at a probability whose bernoulli() draws.
  bool draws_trials_ = false;
  /// Cache over the stream ahead: the next clean_ahead_ Bernoulli(p)
  /// trials miss, and if fault_after_ the one after them hits. Any draw
  /// other than these trials shifts the stream and drops it. rng_ stays
  /// at the start of the cached run, clean_run_ trials long: the
  /// `clean_run_ - clean_ahead_` trials counted off are skipped in one
  /// jump just before the next draw.
  std::uint64_t clean_ahead_ = 0;
  std::uint64_t clean_run_ = 0;
  bool fault_after_ = false;
};

}  // namespace hybridcnn::faultsim
