#include "src/serve/admission.h"

#include <chrono>

namespace kboost {

StatusOr<AdmissionController::Ticket> AdmissionController::Admit(
    int64_t deadline_ns) {
  if (unlimited()) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Ticket(this);
  }
  MutexLock lock(mutex_);
  if (in_flight_.load(std::memory_order_relaxed) < options_.max_in_flight) {
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    admitted_.fetch_add(1, std::memory_order_relaxed);
    return Ticket(this);
  }
  if (queued_.load(std::memory_order_relaxed) >= options_.max_queued) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "service overloaded: " +
        std::to_string(in_flight_.load(std::memory_order_relaxed)) +
        " solves in flight, waiting room of " +
        std::to_string(options_.max_queued) + " full");
  }
  queued_.fetch_add(1, std::memory_order_relaxed);
  // Explicit wait loops (not predicate lambdas) so the condition reads are
  // analyzed in the frame that holds mutex_ — see src/util/sync.h.
  bool got_slot = true;
  if (deadline_ns > 0) {
    // The steady time point the nanos refer to (SteadyNowNanos() counts
    // from the same epoch), built without arithmetic so a saturated
    // INT64_MAX deadline cannot overflow.
    const std::chrono::steady_clock::time_point deadline{
        std::chrono::nanoseconds(deadline_ns)};
    while (in_flight_.load(std::memory_order_relaxed) >=
           options_.max_in_flight) {
      if (slot_free_.WaitUntil(mutex_, deadline)) continue;
      // Timed out: one final recheck mirrors wait_until's predicate form —
      // a slot freed exactly at the deadline is still taken.
      got_slot = in_flight_.load(std::memory_order_relaxed) <
                 options_.max_in_flight;
      break;
    }
  } else {
    while (in_flight_.load(std::memory_order_relaxed) >=
           options_.max_in_flight) {
      slot_free_.Wait(mutex_);
    }
  }
  queued_.fetch_sub(1, std::memory_order_relaxed);
  if (!got_slot) {
    queue_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded(
        "deadline passed while waiting for an admission slot");
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  admitted_.fetch_add(1, std::memory_order_relaxed);
  return Ticket(this);
}

void AdmissionController::ReleaseSlot() {
  if (unlimited()) {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  {
    MutexLock lock(mutex_);
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
  }
  slot_free_.NotifyOne();
}

}  // namespace kboost
