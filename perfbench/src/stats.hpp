// Order statistics for the benchmark's reported numbers.
//
// Every timing the benchmark reports is a median or a fixed percentile of
// per-op samples, never a mean, so a host stall during one op moves the
// tail but not the centre. The quartile helper mirrors Python's
// statistics.quantiles(values, n=4) (the "exclusive" method), which is how
// run-to-run spread is judged.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Percentile `p` in [0, 100] of `values` by linear interpolation between
/// closest ranks (numpy's default). Throws on an empty sample.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: no samples");
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

/// First and third quartile as statistics.quantiles(values, n=4) gives
/// them: 1-based positions (len + 1) * {1, 3} / 4 on the sorted sample,
/// the lower index clamped to [1, len - 1] and the fraction applied as is
/// (so tiny samples extrapolate, exactly like Python). Needs at least two
/// values.
struct Quartiles {
  double q1 = 0.0;
  double q3 = 0.0;
};

inline Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles: need at least two samples");
  }
  std::sort(values.begin(), values.end());
  const std::size_t len = values.size();
  const auto at = [&](std::size_t i) {
    const std::size_t m = len + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, len - 1);
    const double delta =
        static_cast<double>(i * m) / 4.0 - static_cast<double>(j);
    return values[j - 1] + (values[j] - values[j - 1]) * delta;
  };
  return {at(1), at(3)};
}

/// The percentile ladder a tail latency is chosen from.
inline constexpr double kTailLadder[] = {50.0, 90.0, 99.0, 99.9};
/// Samples a reported percentile must leave beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// The percentile rule: the highest ladder percentile that leaves at
/// least kMinBeyond samples above it in a sample of `n`; 0 when not even
/// the median does. p leaves n * (100 - p) / 100 samples beyond it.
inline double tail_percentile_for(std::size_t n) {
  double best = 0.0;
  for (const double p : kTailLadder) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(kMinBeyond)) best = p;
  }
  return best;
}

/// Median rate over consecutive groups of `group` ops: the throughput of
/// each group is (items in it) / (its wall time); a stall inflates one
/// group instead of the whole run's mean. `op_end_s` holds each op's
/// completion time since the loop started and `op_items` the items it
/// finished. Trailing ops that do not fill a group are ignored unless
/// there is no full group at all.
inline double grouped_rate(const std::vector<double>& op_end_s,
                           const std::vector<double>& op_items,
                           std::size_t group) {
  if (op_end_s.empty() || op_end_s.size() != op_items.size() || group == 0) {
    throw std::invalid_argument("grouped_rate: bad samples");
  }
  std::vector<double> rates;
  double start = 0.0;
  double items = 0.0;
  std::size_t in_group = 0;
  for (std::size_t i = 0; i < op_end_s.size(); ++i) {
    items += op_items[i];
    if (++in_group == group) {
      rates.push_back(items / (op_end_s[i] - start));
      start = op_end_s[i];
      items = 0.0;
      in_group = 0;
    }
  }
  if (rates.empty()) rates.push_back(items / op_end_s.back());
  return median(rates);
}

}  // namespace perfbench
