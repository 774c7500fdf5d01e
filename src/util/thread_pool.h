#ifndef KBOOST_UTIL_THREAD_POOL_H_
#define KBOOST_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/sync.h"

namespace kboost {

/// Returns a sensible default worker count: the CPUs in the calling thread's
/// affinity mask (hardware concurrency if it cannot be read), clamped to
/// [1, ThreadPool::kMaxWorkers].
int DefaultThreadCount();

/// A persistent worker pool with a condition-variable work queue. Threads are
/// started once and reused across calls, so the per-batch cost of
/// RunOnThreads/ParallelFor is a queue push instead of a pthread_create.
///
/// The pool grows lazily: a Run() asking for more workers than currently
/// exist starts the missing threads (capped at kMaxWorkers), so explicit
/// --threads=N requests are honoured even beyond hardware concurrency.
/// Calls from inside a pool worker run inline on the caller — nested
/// parallelism never deadlocks and never oversubscribes.
class ThreadPool {
 public:
  /// Hard cap on pool workers — the one place the valid --threads /
  /// BoostOptions::num_threads range [1, kMaxWorkers] is defined
  /// (BoostOptions::Validate enforces it).
  static constexpr int kMaxWorkers = 256;

  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool used by RunOnThreads/ParallelFor.
  static ThreadPool& Global();

  /// Runs `body(worker_index)` for worker_index in [0, num_workers).
  /// Index 0 runs on the calling thread; the rest are dispatched to pool
  /// workers, and any no worker has claimed by the time index 0 returns run
  /// on the calling thread too. Blocks until every invocation has returned.
  void Run(int num_workers, const std::function<void(int)>& body);

  /// True when called from inside a pool worker (useful for tests).
  static bool InWorker();

  /// Workers currently started (grows on demand).
  int num_started() const;

 private:
  struct Job {
    const std::function<void(int)>* body = nullptr;
    std::atomic<int> next_index{0};
    int num_workers = 0;         // total including the caller
    /// Helper invocations still running. Decremented under done_mutex (so
    /// the caller cannot miss the final notify), but read atomically in the
    /// caller's wait condition — hence atomic rather than KB_GUARDED_BY.
    std::atomic<int> remaining{0};
    Mutex done_mutex;
    CondVar done_cv;
  };

  void EnsureWorkers(int count) KB_EXCLUDES(mutex_);
  void WorkerLoop() KB_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  CondVar work_cv_;
  /// Jobs with unclaimed helper slots.
  std::deque<Job*> queue_ KB_GUARDED_BY(mutex_);
  /// Started worker threads. Grown only under mutex_; the destructor swaps
  /// the vector out under the lock before joining so a racing EnsureWorkers
  /// can never append to a vector being iterated.
  std::vector<std::thread> workers_ KB_GUARDED_BY(mutex_);
  bool shutdown_ KB_GUARDED_BY(mutex_) = false;
};

/// Runs `body(thread_index)` on `num_threads` workers and waits for them.
/// Index 0 is the calling thread, so `num_threads == 1` runs inline.
/// Backed by the global persistent pool.
void RunOnThreads(int num_threads, const std::function<void(int)>& body);

/// Parallel for over [0, count): dynamic chunked scheduling via a shared
/// atomic cursor. `body(index, thread_index)` must be thread-safe across
/// distinct indices. Blocks until all work is done. Backed by the global
/// persistent pool; nested calls degrade to inline execution.
void ParallelFor(size_t count, int num_threads,
                 const std::function<void(size_t, int)>& body,
                 size_t chunk = 64);

}  // namespace kboost

#endif  // KBOOST_UTIL_THREAD_POOL_H_
