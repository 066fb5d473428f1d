// Tests of the benchmark's own helpers: the percentile rule, the median
// and quartile helpers, the grouped rate, and the closed-loop generator's
// attempted/failed accounting. Plain asserts, no framework; exits 1 on
// the first failure.
#include <cmath>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <vector>

#include "closed_loop.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

void test_percentile_rule() {
  using perfbench::tail_percentile_for;
  expect(tail_percentile_for(0) == 0.0, "no samples: no percentile");
  expect(tail_percentile_for(19) == 0.0, "19 samples: median leaves 9.5");
  expect(tail_percentile_for(20) == 50.0, "20 samples: p50 leaves 10");
  expect(tail_percentile_for(99) == 50.0, "99 samples: p90 leaves 9.9");
  expect(tail_percentile_for(100) == 90.0, "100 samples: p90 leaves 10");
  expect(tail_percentile_for(999) == 90.0, "999 samples: p99 leaves 9.99");
  expect(tail_percentile_for(1000) == 99.0, "1000 samples: p99");
  expect(tail_percentile_for(10000) == 99.9, "10000 samples: p99.9");
}

void test_median_and_percentile() {
  using perfbench::median;
  using perfbench::percentile;
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "odd median");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even median");
  expect(near(median({7.0}), 7.0), "single-sample median");
  expect(near(percentile({1, 2, 3, 4, 5}, 0.0), 1.0), "p0 is the min");
  expect(near(percentile({1, 2, 3, 4, 5}, 100.0), 5.0), "p100 is the max");
  expect(near(percentile({1, 2, 3, 4, 5}, 90.0), 4.6), "p90 interpolates");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "empty median throws");
}

void test_quartiles() {
  // Reference values from Python: statistics.quantiles(v, n=4).
  using perfbench::quartiles;
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(q.q1, 2.75) && near(q.q3, 8.25), "quartiles of 1..10");
  const auto q4 = quartiles({4, 1, 3, 2});
  expect(near(q4.q1, 1.25) && near(q4.q3, 3.75), "quartiles of 1..4");
  const auto q2 = quartiles({1, 2});
  expect(near(q2.q1, 0.75) && near(q2.q3, 2.25),
         "two samples extrapolate as Python does");
  const auto q5 = quartiles({10, 20, 30, 40, 50});
  expect(near(q5.q1, 15.0) && near(q5.q3, 45.0), "quartiles of 5 values");
}

void test_grouped_rate() {
  using perfbench::grouped_rate;
  // Four ops of 1 item each finishing every 0.5 s: groups of 2 take 1 s.
  expect(near(grouped_rate({0.5, 1.0, 1.5, 2.0}, {1, 1, 1, 1}, 2), 2.0),
         "steady grouped rate");
  // A stalled group does not move the median of three groups.
  expect(near(grouped_rate({1, 2, 12, 13, 14, 15}, {1, 1, 1, 1, 1, 1}, 2),
              1.0),
         "stall is outvoted");
  expect(near(grouped_rate({2.0}, {8}, 4), 4.0), "partial group fallback");
}

std::future<int> ready(int v) {
  std::promise<int> p;
  p.set_value(v);
  return p.get_future();
}

std::future<int> broken() {
  std::promise<int> p;
  p.set_exception(std::make_exception_ptr(std::runtime_error("batch threw")));
  return p.get_future();
}

void test_closed_loop_accounting() {
  // Request k: every 5th submit is rejected, every 7th future throws,
  // every 11th result is wrong; everything else passes.
  std::uint64_t rejected = 0;
  std::uint64_t thrown = 0;
  std::uint64_t wrong = 0;
  const auto result = perfbench::run_closed_loop(
      0.05, 4,
      [&](std::uint64_t k) {
        if (k % 5 == 4) {
          ++rejected;
          throw std::runtime_error("queue full");
        }
        if (k % 7 == 6) {
          ++thrown;
          return broken();
        }
        return ready(static_cast<int>(k));
      },
      [&](std::uint64_t k, int value) {
        const bool ok = k % 11 != 10;
        if (!ok) ++wrong;
        return ok && value == static_cast<int>(k);
      });
  expect(result.attempted > 0, "loop attempted requests");
  expect(result.failed == rejected + thrown + wrong,
         "failed = rejected + exceptions + wrong results");
  expect(result.latency_ms.size() == result.attempted - result.failed,
         "one latency per passing request");
  expect(result.done_s.size() == result.latency_ms.size(),
         "one completion time per passing request");
  expect(rejected > 0 && thrown > 0 && wrong > 0,
         "every failure kind was exercised");
}

void test_closed_loop_window() {
  // The window bounds what is in flight: with window 3 and futures that
  // are never ready before the check, at most 3 submits precede a check.
  std::size_t outstanding = 0;
  std::size_t peak = 0;
  const auto result = perfbench::run_closed_loop(
      0.02, 3,
      [&](std::uint64_t k) {
        peak = std::max(peak, ++outstanding);
        return ready(static_cast<int>(k));
      },
      [&](std::uint64_t, int) {
        --outstanding;
        return true;
      });
  expect(peak == 3, "window of 3 keeps 3 requests in flight");
  expect(outstanding == 0, "loop drains everything in flight");
  expect(result.failed == 0, "no failures on a healthy service");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_median_and_percentile();
  test_quartiles();
  test_grouped_rate();
  test_closed_loop_accounting();
  test_closed_loop_window();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
