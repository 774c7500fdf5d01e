#ifndef KBOOST_UTIL_SYNC_H_
#define KBOOST_UTIL_SYNC_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Compile-time concurrency proofs: Clang Thread Safety Analysis attributes
/// plus annotated wrappers over the std synchronization primitives.
///
/// Every mutex in the library is a kboost::Mutex or kboost::SharedMutex, and
/// every field a mutex protects carries KB_GUARDED_BY(that_mutex). Under
/// Clang, `-Wthread-safety -Werror` then REJECTS any translation unit that
/// touches a guarded field without holding its lock — the locking discipline
/// the TSan job can only spot-check dynamically becomes a compile-time
/// contract (tests/sync_compile_fail asserts the gate actually fires). Under
/// GCC and MSVC the attributes expand to nothing and the wrappers compile to
/// exactly the std primitive underneath: zero size and zero runtime cost.
///
/// Conventions (see docs/CONCURRENCY.md for the lock hierarchy):
///  - Fields written under a mutex and read lock-free elsewhere stay
///    std::atomic and are NOT annotated; the comment on the field names the
///    discipline instead (the analysis has no vocabulary for "atomic gauge
///    published under a lock").
///  - State owned by a single thread (e.g. each KboostServer event loop's
///    connection map) is documented with an ownership comment, not a fake
///    mutex — the analysis cannot see thread identity, and a lock taken only
///    to satisfy it would cost real cycles on the hot path.
///  - Condition-variable waits are written as explicit `while (!cond) Wait()`
///    loops rather than predicate lambdas, so the guarded reads in the
///    condition are analyzed in the frame that visibly holds the lock.

// ---- Attribute macros ------------------------------------------------------

#if defined(__clang__) && (!defined(SWIG))
#define KB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define KB_THREAD_ANNOTATION_(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define KB_CAPABILITY(x) KB_THREAD_ANNOTATION_(capability(x))
/// Marks an RAII type that acquires in its constructor, releases in its
/// destructor (MutexLock and friends).
#define KB_SCOPED_CAPABILITY KB_THREAD_ANNOTATION_(scoped_lockable)
/// Field may only be touched while holding the named capability.
#define KB_GUARDED_BY(x) KB_THREAD_ANNOTATION_(guarded_by(x))
/// Pointee (not the pointer) is protected by the named capability.
#define KB_PT_GUARDED_BY(x) KB_THREAD_ANNOTATION_(pt_guarded_by(x))
/// Function acquires the capability (exclusive / shared).
#define KB_ACQUIRE(...) KB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define KB_ACQUIRE_SHARED(...) \
  KB_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
/// Function releases the capability (exclusive / shared / either).
#define KB_RELEASE(...) KB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define KB_RELEASE_SHARED(...) \
  KB_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define KB_RELEASE_GENERIC(...) \
  KB_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
/// Caller must hold the capability (exclusively / at least shared).
#define KB_REQUIRES(...) \
  KB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define KB_REQUIRES_SHARED(...) \
  KB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
/// Caller must NOT hold the capability (deadlock documentation).
#define KB_EXCLUDES(...) KB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
/// Function returns a reference to the named capability.
#define KB_RETURN_CAPABILITY(x) KB_THREAD_ANNOTATION_(lock_returned(x))
/// Function acquires the capability only when returning the given value.
#define KB_TRY_ACQUIRE(...) \
  KB_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
/// Escape hatch — every use must carry a justification comment.
#define KB_NO_THREAD_SAFETY_ANALYSIS \
  KB_THREAD_ANNOTATION_(no_thread_safety_analysis)
/// Runtime assertion that the capability is held (trusted by the analysis).
#define KB_ASSERT_CAPABILITY(x) KB_THREAD_ANNOTATION_(assert_capability(x))

namespace kboost {

// ---- Annotated primitives --------------------------------------------------

/// std::mutex with capability annotations. Same size, same codegen; the
/// Lock/Unlock spelling (vs lock/unlock) marks call sites the analysis
/// tracks and keeps raw std::lock_guard from silently bypassing it.
class KB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KB_ACQUIRE() { mu_.lock(); }
  void Unlock() KB_RELEASE() { mu_.unlock(); }
  bool TryLock() KB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// std::shared_mutex with capability annotations: exclusive (writer) and
/// shared (reader) modes.
class KB_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() KB_ACQUIRE() { mu_.lock(); }
  void Unlock() KB_RELEASE() { mu_.unlock(); }
  void LockShared() KB_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void UnlockShared() KB_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive hold of a Mutex — the std::lock_guard shape, visible to
/// the analysis.
class KB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() KB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) hold of a SharedMutex.
class KB_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex& mu) KB_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderLock() KB_RELEASE() { mu_.UnlockShared(); }

  ReaderLock(const ReaderLock&) = delete;
  ReaderLock& operator=(const ReaderLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) hold of a SharedMutex.
class KB_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex& mu) KB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~WriterLock() KB_RELEASE() { mu_.Unlock(); }

  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Condition variable bound to kboost::Mutex. Wait() atomically releases and
/// reacquires the caller's held Mutex via the std adopt/release dance, so it
/// costs exactly a std::condition_variable wait — no condition_variable_any
/// indirection. The KB_REQUIRES(mu) contract makes "you must hold the lock
/// you wait on" a compile-time error instead of UB.
///
/// Waits are deliberately predicate-free: call sites spell the standard
///   while (!condition) cv.Wait(mu);
/// loop so the guarded reads in `condition` are visible to the analysis.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). `mu` must be held.
  void Wait(Mutex& mu) KB_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // the caller (or its scoped lock) still owns mu
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace kboost

#endif  // KBOOST_UTIL_SYNC_H_
