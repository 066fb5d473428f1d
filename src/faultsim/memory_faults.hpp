// Memory-resident fault injection: SEUs in stored weights and input data.
// The paper names "data corruption of the weights and input data" as a
// failure source alongside processing-element upsets (Section II); these
// helpers corrupt tensors at rest for the campaign benches, and the
// MemoryFaultModel/MemoryCampaignSummary types carry the memory-fault
// campaign surface (core::MemoryFaultCampaign drives them through the
// hybrid classify path).
#pragma once

#include <cstdint>
#include <string>

#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace hybridcnn::faultsim {

/// Result of a memory corruption pass.
struct MemoryFaultReport {
  std::uint64_t words_visited = 0;
  std::uint64_t bits_flipped = 0;
  /// Uniform variates consumed from the caller's Rng. Geometric skip
  /// sampling makes this O(bits_flipped), not O(32 * words) — the
  /// regression tests lock the >=10x reduction at realistic bit-error
  /// rates.
  std::uint64_t rng_draws = 0;
};

/// Flips each bit of each float in `t` independently with probability
/// `bit_error_rate`. Models DRAM/SRAM upsets accumulated between scrubs.
///
/// Implemented as geometric skip sampling over the flattened bit space
/// [0, 32 * count): the gap to the next flipped bit is Geometric(p), so
/// one uniform draw is consumed per flip instead of one Bernoulli trial
/// per bit. Deterministic for a given Rng state; the flip-site
/// distribution is exactly i.i.d. Bernoulli(p) per bit, as before.
MemoryFaultReport inject_bit_errors(tensor::Tensor& t, double bit_error_rate,
                                    util::Rng& rng);

/// Flips exactly min(count, 32 * t.count()) DISTINCT uniformly chosen
/// (word, bit) sites in `t` — sampling is without replacement (Floyd's
/// algorithm), so "exactly N flips" means exactly N corrupted bits even
/// on small tensors. A `count` at or above the bit capacity flips every
/// bit. Models a bounded SEU burst; used by the targeted
/// weight-corruption experiments.
MemoryFaultReport inject_exact_flips(tensor::Tensor& t, std::uint64_t count,
                                     util::Rng& rng);

// --------------------------------------------------------------------------
// Memory-fault campaign surface (driven by core::MemoryFaultCampaign).

/// Which tensors of an inference a memory-fault campaign corrupts.
enum class MemoryTarget : std::uint8_t {
  kWeights,          ///< stored conv1 (DCNN) parameters
  kInput,            ///< the input image buffer
  kWeightsAndInput,  ///< both
};

/// Per-run corruption model. Exactly one of `bit_error_rate` /
/// `exact_flips` should be non-zero; `exact_flips` takes precedence.
struct MemoryFaultModel {
  MemoryTarget target = MemoryTarget::kWeights;
  /// Per-bit upset probability per exposure epoch (inject_bit_errors).
  double bit_error_rate = 0.0;
  /// Exact distinct flips per exposure epoch (inject_exact_flips).
  std::uint64_t exact_flips = 0;
};

/// Dependability outcome of one memory-fault campaign run.
enum class MemoryOutcome : std::uint8_t {
  kIntact,           ///< result matches golden; no ECC correction needed
  kCorrected,        ///< ECC scrub corrected upsets; result matches golden
  kUncorrectable,    ///< ECC detected an uncorrectable word — fail-stop
  kQualifierCaught,  ///< result differs but the hybrid evidence chain
                     ///< (demotion, fail-stop or qualifier/class
                     ///< inconsistency) flags it — detected
  kSilentCorruption, ///< result differs with no flag — SDC
};

/// Human-readable outcome label ("intact", "corrected", ...).
std::string memory_outcome_name(MemoryOutcome o);

/// Aggregated memory-fault campaign counts. Outcome counters plus the
/// injection/ECC totals (corrected_data vs corrected_check kept separate
/// — see ScrubReport).
struct MemoryCampaignSummary {
  std::uint64_t runs = 0;
  std::uint64_t intact = 0;
  std::uint64_t corrected = 0;
  std::uint64_t uncorrectable = 0;
  std::uint64_t qualifier_caught = 0;
  std::uint64_t silent_corruption = 0;

  std::uint64_t bits_flipped = 0;          ///< injected upsets, all runs
  std::uint64_t ecc_corrected_data = 0;    ///< scrub-corrected payload bits
  std::uint64_t ecc_corrected_check = 0;   ///< scrub-corrected check bits
  std::uint64_t ecc_uncorrectable_words = 0;  ///< double-error words

  /// Records one classified run.
  void add(MemoryOutcome o);

  /// Shard-merge operator: field-wise accumulation of a partial summary
  /// (run_campaign merges each run's one-run summary with it too).
  /// Integer counts only, so merging the shards of a disjoint run-range
  /// cover equals the whole range's summary exactly (the campaign fabric's
  /// bit-identity contract).
  MemoryCampaignSummary& operator+=(const MemoryCampaignSummary& o) noexcept;
  friend MemoryCampaignSummary operator+(
      MemoryCampaignSummary a, const MemoryCampaignSummary& b) noexcept {
    a += b;
    return a;
  }

  /// Fraction of runs that delivered the golden result.
  [[nodiscard]] double availability() const;

  /// Fraction of runs that were correct or detectably flagged; the
  /// complement is the silent-corruption rate.
  [[nodiscard]] double safety() const;

  /// Fraction of runs with silent data corruption.
  [[nodiscard]] double sdc_rate() const;

  friend bool operator==(const MemoryCampaignSummary&,
                         const MemoryCampaignSummary&) noexcept = default;
};

}  // namespace hybridcnn::faultsim
