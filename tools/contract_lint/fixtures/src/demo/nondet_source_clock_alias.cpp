// Fixture: trips `nondet-source` (and only it) through a clock alias —
// the read itself never spells the clock's name.
#include <chrono>

namespace demo {

using Clock = std::chrono::steady_clock;

long long elapsed_ticks(Clock::time_point start) {
  return (Clock::now() - start).count();
}

}  // namespace demo
