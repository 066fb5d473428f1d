// Fault-injection campaign bookkeeping.
//
// A campaign repeatedly executes a workload under a fault model and
// classifies every run against a golden (fault-free) reference into the
// standard dependability outcome classes. The benches use this to produce
// the reliability-guarantee evidence: with DMR + operation rollback, runs
// either match the golden output or abort — silent data corruption is the
// failure mode the paper's design eliminates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/compute_context.hpp"

namespace hybridcnn::faultsim {

/// Dependability outcome of a single workload run.
enum class Outcome : std::uint8_t {
  kCorrect,           ///< no fault activated; output matches golden
  kCorrected,         ///< faults activated; rollback recovered; output matches
  kDetectedAbort,     ///< persistent failure detected and reported (leaky
                      ///< bucket ceiling reached) — fail-stop behaviour
  kSilentCorruption,  ///< output differs from golden with no report — SDC
};

/// Classifies a run from its observable facts.
/// `faults_activated`: the injector corrupted at least one execution.
/// `aborted`: the reliable kernel reported an unrecoverable condition.
/// `matches_golden`: outputs are bit-identical to the fault-free run.
Outcome classify(bool faults_activated, bool aborted, bool matches_golden);

/// Human-readable outcome label ("correct", "corrected", ...).
std::string outcome_name(Outcome o);

/// Aggregated campaign counts.
struct CampaignSummary {
  std::uint64_t runs = 0;
  std::uint64_t correct = 0;
  std::uint64_t corrected = 0;
  std::uint64_t detected_abort = 0;
  std::uint64_t silent_corruption = 0;

  /// Records one classified run.
  void add(Outcome o);
  /// add(o) in the form run_campaign merges a run's record with.
  CampaignSummary& operator+=(Outcome o) {
    add(o);
    return *this;
  }

  /// Shard-merge operator: field-wise accumulation of a partial summary.
  /// Because every field is an integer count, merging the per-shard
  /// summaries of any disjoint cover of a run range — in any order —
  /// yields exactly the summary of the whole range; the campaign
  /// fabric still merges in shard-index order by contract.
  CampaignSummary& operator+=(const CampaignSummary& other) noexcept;
  friend CampaignSummary operator+(CampaignSummary a,
                                   const CampaignSummary& b) noexcept {
    a += b;
    return a;
  }

  friend bool operator==(const CampaignSummary&,
                         const CampaignSummary&) noexcept = default;

  /// Fraction of runs that delivered a correct result (fail-operational).
  [[nodiscard]] double availability() const;

  /// Fraction of runs that were either correct or fail-stopped; the
  /// complement is the SDC rate — the quantity a safety case bounds.
  [[nodiscard]] double safety() const;

  /// Fraction of runs with silent data corruption.
  [[nodiscard]] double sdc_rate() const;
};

/// The one per-run campaign loop: executes global runs [begin, end)
/// across the global thread pool and merges their records into a
/// Summary in run-index order (`summary += run_one(i)` for i = begin,
/// begin + 1, ...). Shard and whole-campaign callers alike pass global
/// indices, so the summaries of any disjoint cover of [0, runs) add up
/// to the whole range's summary exactly.
///
/// `run_one(i)` performs run i and returns its record: an Outcome for a
/// CampaignSummary, a one-run MemoryCampaignSummary for a memory
/// campaign. It is called exactly once per index, from worker threads
/// and in any order, so it must be thread-safe and derive every piece of
/// stochastic state (fault-injector seed, executors, RNG streams) from
/// the run index alone — the `seed_base + i` pattern. Under that contract
/// the summary is bit-identical at every thread count. If runs throw,
/// the exception rethrown is the lowest throwing run's. Throws
/// std::invalid_argument if end < begin.
template <class Summary = CampaignSummary, class RunOne>
Summary run_campaign(std::size_t begin, std::size_t end,
                     const RunOne& run_one) {
  if (end < begin) {
    throw std::invalid_argument("faultsim::run_campaign: end < begin");
  }
  using Record = std::invoke_result_t<const RunOne&, std::size_t>;
  std::vector<Record> records(end - begin);
  runtime::ComputeContext::global().pool().parallel_for(
      begin, end, [&](std::size_t i) { records[i - begin] = run_one(i); });
  Summary summary;
  for (const Record& record : records) summary += record;
  return summary;
}

}  // namespace hybridcnn::faultsim
