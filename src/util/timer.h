#ifndef KBOOST_UTIL_TIMER_H_
#define KBOOST_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace kboost {

/// Absolute steady-clock time in nanoseconds — what the server's peer-stall
/// rule stamps a connection's last progress with (steady, so a wall-clock
/// step never reaps a peer early or keeps a stalled one alive).
inline int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Monotonic wall-clock timer for reporting experiment running times.
class WallTimer {
 public:
  WallTimer() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last Restart().
  double Seconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace kboost

#endif  // KBOOST_UTIL_TIMER_H_
