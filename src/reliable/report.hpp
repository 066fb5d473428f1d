// Execution report for reliably executed kernels.
//
// The paper's Algorithm 3 maintains an error counter and exits with
// failure or success "in this version we do not return diagnostic
// information other than maintain an error counter as a global variable".
// As a library we do better: every reliable kernel returns a structured
// report a safety case can log.
#pragma once

#include <cstdint>
#include <string>

namespace hybridcnn::reliable {

/// How much of the ExecutionReport a reliable kernel assembles.
///
/// kFull is the default: every counter below is maintained per op.
/// kStatsOnly elides the per-op counter updates inside the qualified
/// inner loops — for campaign sweeps that only consume the
/// CampaignSummary (and the executor/injector statistics, which are
/// unaffected), the report bookkeeping is pure overhead. Under
/// kStatsOnly only `ok`, `stage` and `scheme` are meaningful; every
/// numeric counter keeps its default. Output bits, ExecutorStats,
/// InjectorStats and the abort decision itself are bit-identical to
/// kFull. Custom (out-of-library) executors always take the generic
/// full-report path.
enum class ReportMode : std::uint8_t { kFull, kStatsOnly };

/// Observable facts about one reliable kernel execution.
struct ExecutionReport {
  bool ok = true;              ///< kernel completed; result is qualified
  std::string stage;           ///< kernel label, e.g. "conv1"
  std::string scheme;          ///< executor scheme used ("dmr", ...)

  std::uint64_t logical_ops = 0;       ///< multiplies + accumulates requested
  std::uint64_t detected_errors = 0;   ///< ops whose qualifier was false
  std::uint64_t retries = 0;           ///< single-op rollbacks performed
  std::uint64_t corrected_errors = 0;  ///< detected errors recovered by retry
  std::uint64_t commits = 0;           ///< checkpoint commits
  std::uint64_t rollbacks = 0;         ///< checkpoint rollbacks

  std::uint32_t bucket_peak = 0;       ///< highest bucket level observed
  bool bucket_exhausted = false;       ///< persistent-failure latch
  std::int64_t failed_op_index = -1;   ///< flat op index at abort, -1 if none

  /// Field-wise equality — the bit-identity contract's report half; the
  /// static-dispatch equivalence checks compare through this so a new
  /// field can never silently escape coverage.
  friend bool operator==(const ExecutionReport&,
                         const ExecutionReport&) = default;

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const;
};

}  // namespace hybridcnn::reliable
