// Closed-loop request generator with attempted/failed accounting.
//
// One generator thread keeps a fixed window of requests in flight: it
// submits until `window` futures are outstanding, then waits for the
// oldest, checks it, and submits the next one — so a slower system
// receives proportionally less load and no backlog can build up. Every
// submit counts as attempted. A request counts as failed when submit()
// throws (rejection, stopped service), when its future resolves with an
// exception, or when the checker rejects its result. Only requests that
// completed and passed the check contribute a latency sample.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <vector>

namespace perfbench {

struct ClosedLoopResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency_ms;  ///< one per passing request
  std::vector<double> done_s;      ///< completion time since start
  double elapsed_s = 0.0;
};

/// Runs the loop until `seconds` have passed (then drains what is in
/// flight). `submit(k)` issues request k and returns its future;
/// `check(k, value)` returns whether request k's result is correct.
template <typename Submit, typename Check>
ClosedLoopResult run_closed_loop(double seconds, std::size_t window,
                                 Submit&& submit, Check&& check) {
  using clock = std::chrono::steady_clock;
  using Future = decltype(submit(std::uint64_t{0}));
  struct InFlight {
    std::uint64_t id;
    clock::time_point sent;
    Future future;
  };

  ClosedLoopResult out;
  const clock::time_point start = clock::now();
  const auto since = [&](clock::time_point t) {
    return std::chrono::duration<double>(t - start).count();
  };
  std::deque<InFlight> inflight;
  std::uint64_t next = 0;
  bool open = true;
  while (open || !inflight.empty()) {
    while (open && inflight.size() < window) {
      const std::uint64_t id = next++;
      ++out.attempted;
      const clock::time_point sent = clock::now();
      try {
        inflight.push_back({id, sent, submit(id)});
      } catch (const std::exception&) {
        ++out.failed;
      }
      if (since(clock::now()) >= seconds) open = false;
    }
    if (inflight.empty()) continue;
    InFlight req = std::move(inflight.front());
    inflight.pop_front();
    bool ok = false;
    try {
      ok = check(req.id, req.future.get());
    } catch (const std::exception&) {
      ok = false;
    }
    const clock::time_point done = clock::now();
    if (ok) {
      out.latency_ms.push_back(
          std::chrono::duration<double, std::milli>(done - req.sent).count());
      out.done_s.push_back(since(done));
    } else {
      ++out.failed;
    }
    if (since(done) >= seconds) open = false;
  }
  out.elapsed_s = since(clock::now());
  return out;
}

}  // namespace perfbench
