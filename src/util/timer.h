#ifndef KBOOST_UTIL_TIMER_H_
#define KBOOST_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>
#include <limits>

namespace kboost {

/// Absolute steady-clock time in nanoseconds — the representation request
/// deadlines travel in (steady so a wall-clock step never expires or revives
/// a request; absolute so queue wait and solve time draw down one budget).
inline int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The absolute SteadyNowNanos() deadline `millis` milliseconds from now;
/// 0 (no deadline) for 0. A budget too far out to represent — an untrusted
/// wire value up to 2^64−1 — saturates at INT64_MAX and so never expires.
inline int64_t DeadlineAfterMillis(uint64_t millis) {
  if (millis == 0) return 0;
  constexpr int64_t kNanosPerMilli = 1'000'000;
  constexpr int64_t kNever = std::numeric_limits<int64_t>::max();
  const int64_t now = SteadyNowNanos();  // ≥ 0: the clock counts from boot
  if (millis > static_cast<uint64_t>((kNever - now) / kNanosPerMilli)) {
    return kNever;
  }
  return now + static_cast<int64_t>(millis) * kNanosPerMilli;
}

/// Monotonic wall-clock timer for reporting experiment running times.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Restart().
  double Seconds() const;
  double Millis() const { return Seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kboost

#endif  // KBOOST_UTIL_TIMER_H_
