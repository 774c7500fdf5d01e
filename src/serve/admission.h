#ifndef KBOOST_SERVE_ADMISSION_H_
#define KBOOST_SERVE_ADMISSION_H_

#include <atomic>
#include <cstdint>

#include "src/util/status.h"
#include "src/util/sync.h"

namespace kboost {

/// Admission budget of a BoostService: at most `max_in_flight` solves run
/// concurrently, at most `max_queued` more wait for a slot, and everything
/// beyond that is shed immediately with a typed error instead of piling onto
/// a saturated machine. Both 0 by default = unlimited (the pre-admission
/// behaviour).
struct AdmissionOptions {
  /// Concurrent solves allowed past admission (0 = unlimited, no queue).
  uint64_t max_in_flight = 0;
  /// Requests allowed to wait for an in-flight slot when all are busy.
  /// 0 = no waiting room: the service sheds as soon as in-flight is full.
  /// Ignored when max_in_flight is 0.
  uint64_t max_queued = 0;
};

/// Counting semaphore with a bounded waiting room and deadline-aware waits —
/// the overload front door of BoostService::Solve.
///
/// Admit() returns a move-only RAII Ticket whose destruction releases the
/// slot, so every exit path of a solve (success, error, exception-free early
/// return) gives the slot back exactly once — admission slots cannot leak.
/// Rejections are typed: ResourceExhausted when the waiting room is full
/// (shed), DeadlineExceeded when a queued request's deadline passed before a
/// slot freed. Both are counted for Stats().
class AdmissionController {
 public:
  /// Releases one admission slot when destroyed. Default-constructed and
  /// moved-from tickets hold nothing.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept : controller_(other.controller_) {
      other.controller_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        other.controller_ = nullptr;
      }
      return *this;
    }
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;
    ~Ticket() { Release(); }

    /// Whether this ticket holds a slot (admitted, not yet released).
    bool held() const { return controller_ != nullptr; }

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}
    void Release() {
      if (controller_ != nullptr) {
        controller_->ReleaseSlot();
        controller_ = nullptr;
      }
    }
    AdmissionController* controller_ = nullptr;
  };

  explicit AdmissionController(const AdmissionOptions& options)
      : options_(options) {}

  /// Tries to take an in-flight slot, waiting in the bounded queue when all
  /// are busy. `deadline_ns` is an absolute SteadyNowNanos() time bounding
  /// the wait (0 = wait indefinitely). Returns the slot's RAII ticket, or:
  /// ResourceExhausted when the waiting room is full (the request is shed,
  /// no waiting), DeadlineExceeded when the deadline passed while queued.
  /// With max_in_flight == 0 every request is admitted immediately (the
  /// in-flight gauge still tracks).
  StatusOr<Ticket> Admit(int64_t deadline_ns) KB_EXCLUDES(mutex_);

  /// Whether no concurrency bound is configured.
  bool unlimited() const { return options_.max_in_flight == 0; }

  // Gauges (point-in-time) and lifetime counters, all lock-free reads.
  uint64_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  uint64_t queued() const { return queued_.load(std::memory_order_relaxed); }
  uint64_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  uint64_t queue_timeouts() const {
    return queue_timeouts_.load(std::memory_order_relaxed);
  }

 private:
  void ReleaseSlot() KB_EXCLUDES(mutex_);

  const AdmissionOptions options_;
  /// Orders slot hand-off: every wait and every in_flight_/queued_ mutation
  /// on the bounded path happens under it (the unlimited path touches only
  /// the gauge and never waits, so it skips the lock).
  Mutex mutex_;
  CondVar slot_free_;
  // Mutated under mutex_ (no lost wakeups) but deliberately atomic, NOT
  // KB_GUARDED_BY: the gauge accessors read them lock-free, and the
  // unlimited path bumps them without the lock.
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<uint64_t> queued_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> queue_timeouts_{0};
};

}  // namespace kboost

#endif  // KBOOST_SERVE_ADMISSION_H_
