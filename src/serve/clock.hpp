// Steady-clock deadline arithmetic for the serve stack.
//
// Every latency and deadline computation in src/serve is pinned to
// std::chrono::steady_clock: enqueue and dispatch stamps, per-request SLO
// budgets, and the stats samples derived from them. Mixing in system_clock
// anywhere would make a wall-clock jump (NTP step, manual date change,
// suspend/resume on some platforms) end timed waits early, expire deadlines
// that have not elapsed, or record negative latencies. The helpers
// here keep that promise where it is easy to lose: enqueue_time + delay
// overflows time_point for pathological delays (e.g. a CLI passing INT64_MAX
// microseconds), wrapping the deadline into the past. saturating_deadline
// clamps instead of wrapping.
//
// next_wait is the pure remaining-time kernel behind the admission path's
// budget, exposed so the tests can drive it with a simulated jumping clock.
#pragma once

#include <chrono>
#include <cstdint>

namespace sesr::serve {

// The one clock the serve stack keys latency and deadlines to.
using ServeClock = std::chrono::steady_clock;
static_assert(ServeClock::is_steady, "serve deadlines require a monotonic clock");

// `from + delay` without overflow: delays that would push past
// time_point::max() clamp to it, and negative delays clamp to `from` (a
// deadline never precedes its anchor).
inline ServeClock::time_point saturating_deadline(ServeClock::time_point from,
                                                  std::chrono::microseconds delay) {
  if (delay <= std::chrono::microseconds(0)) return from;
  const auto headroom = ServeClock::time_point::max() - from;
  if (std::chrono::duration_cast<std::chrono::microseconds>(headroom) <= delay) {
    return ServeClock::time_point::max();
  }
  return from + delay;
}

// How much longer to wait for `deadline` as seen from `now`; zero once the
// deadline has passed (never negative). Pure — the simulated-clock-jump tests
// feed it arbitrary `now` sequences, including ones that step backwards, and
// assert the wait never explodes or goes negative.
inline std::chrono::microseconds next_wait(ServeClock::time_point now,
                                           ServeClock::time_point deadline) {
  if (now >= deadline) return std::chrono::microseconds(0);
  return std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
}

// Remaining budget of a per-request deadline in microseconds; zero once
// expired. Identical arithmetic to next_wait, named for the admission path.
inline std::int64_t remaining_budget_us(ServeClock::time_point now,
                                        ServeClock::time_point deadline) {
  return next_wait(now, deadline).count();
}

}  // namespace sesr::serve
