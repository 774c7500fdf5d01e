#include "src/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace kboost {

namespace {
thread_local bool tls_in_pool_worker = false;
}  // namespace

int DefaultThreadCount() {
  // The CPUs this process may run on (taskset, a cpuset-limited container),
  // not every CPU of the host; hardware_concurrency() is the fallback.
  int count = static_cast<int>(std::thread::hardware_concurrency());
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) count = CPU_COUNT(&mask);
  // Clamp to the pool cap so default-built BoostOptions always validate.
  return std::clamp(count, 1, ThreadPool::kMaxWorkers);
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: workers block in a condition-variable wait and are
  // reclaimed by process teardown; destroying the pool during static
  // destruction would race with any late ParallelFor.
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

bool ThreadPool::InWorker() { return tls_in_pool_worker; }

int ThreadPool::num_started() const {
  MutexLock lock(mutex_);
  return static_cast<int>(workers_.size());
}

ThreadPool::~ThreadPool() {
  // Swap the worker vector out under the lock: after shutdown_ is set no new
  // worker is started, and joining a local copy means a stray EnsureWorkers
  // racing destruction can never append to the vector being iterated.
  std::vector<std::thread> workers;
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers) w.join();
}

void ThreadPool::EnsureWorkers(int count) {
  MutexLock lock(mutex_);
  count = std::min(count, kMaxWorkers);
  while (static_cast<int>(workers_.size()) < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  mutex_.Lock();
  for (;;) {
    while (!shutdown_ && queue_.empty()) work_cv_.Wait(mutex_);
    if (shutdown_) {
      mutex_.Unlock();
      return;
    }
    Job* job = queue_.front();
    const int idx = job->next_index.fetch_add(1, std::memory_order_relaxed);
    if (idx + 1 >= job->num_workers) queue_.pop_front();  // last helper slot
    mutex_.Unlock();
    (*job->body)(idx);
    {
      // Decrement and notify under the job's mutex: the moment the caller
      // observes remaining == 0 it may return and destroy the stack-
      // allocated Job, so nothing may touch it after this lock releases.
      MutexLock done_lock(job->done_mutex);
      job->remaining.fetch_sub(1, std::memory_order_relaxed);
      job->done_cv.NotifyOne();
    }
    mutex_.Lock();
  }
}

void ThreadPool::Run(int num_workers, const std::function<void(int)>& body) {
  KB_CHECK(num_workers >= 1) << "num_workers=" << num_workers;
  if (num_workers == 1 || tls_in_pool_worker) {
    // Nested parallel regions run inline: every index is still invoked
    // exactly once, on the calling worker.
    for (int t = 0; t < num_workers; ++t) body(t);
    return;
  }
  EnsureWorkers(num_workers - 1);

  Job job;
  job.body = &body;
  job.num_workers = num_workers;
  job.next_index.store(1, std::memory_order_relaxed);  // 0 is the caller
  job.remaining.store(num_workers - 1, std::memory_order_relaxed);
  {
    MutexLock lock(mutex_);
    queue_.push_back(&job);
  }
  work_cv_.NotifyAll();

  body(0);

  // Helper slots no worker has claimed yet (every worker may be busy with
  // other jobs) are taken back and run here, as the nested path does, so
  // the caller never waits for a worker to pick up a slot. Workers claim
  // slots only under mutex_, and a job leaves queue_ with its last slot.
  int unclaimed = num_workers;
  {
    MutexLock lock(mutex_);
    const auto it = std::find(queue_.begin(), queue_.end(), &job);
    if (it != queue_.end()) {
      queue_.erase(it);
      unclaimed =
          job.next_index.exchange(num_workers, std::memory_order_relaxed);
    }
  }
  for (int t = unclaimed; t < num_workers; ++t) body(t);

  MutexLock done_lock(job.done_mutex);
  job.remaining.fetch_sub(num_workers - unclaimed, std::memory_order_relaxed);
  while (job.remaining.load(std::memory_order_relaxed) != 0) {
    job.done_cv.Wait(job.done_mutex);
  }
}

void RunOnThreads(int num_threads, const std::function<void(int)>& body) {
  ThreadPool::Global().Run(num_threads, body);
}

void ParallelFor(size_t count, int num_threads,
                 const std::function<void(size_t, int)>& body, size_t chunk) {
  if (count == 0) return;
  KB_CHECK(chunk >= 1);
  num_threads = std::max(1, std::min<int>(num_threads,
                                          static_cast<int>((count + chunk - 1) / chunk)));
  if (num_threads == 1) {
    for (size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  std::atomic<size_t> cursor{0};
  RunOnThreads(num_threads, [&](int thread_index) {
    for (;;) {
      size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      size_t end = std::min(count, begin + chunk);
      for (size_t i = begin; i < end; ++i) body(i, thread_index);
    }
  });
}

}  // namespace kboost
