#ifndef KBOOST_TESTS_JOIN_GUARD_H_
#define KBOOST_TESTS_JOIN_GUARD_H_

// JoinGuard joins a test's threads on every way out of the test body.
//
// A failed ASSERT_* returns from the test function at once. A std::thread
// that is still joinable when it is destroyed calls std::terminate, which
// kills the whole test binary: the failed test is never reported and every
// later test is skipped. Declare a JoinGuard right after the threads it
// covers (and after everything they use). If the test leaves early, the
// guard first runs `stop` — set the threads' stop flag, shut their socket
// down, drain the server — so that a blocked thread returns, and then joins
// every thread that is still joinable. On the normal path the test joins
// its threads itself, and the guard does nothing.

#include <functional>
#include <thread>
#include <utility>
#include <vector>

namespace kboost {

class JoinGuard {
 public:
  /// Guards every thread in `threads`, including ones added later.
  explicit JoinGuard(std::vector<std::thread>& threads,
                     std::function<void()> stop = {})
      : threads_(&threads), stop_(std::move(stop)) {}
  /// Guards one thread.
  explicit JoinGuard(std::thread& thread, std::function<void()> stop = {})
      : thread_(&thread), stop_(std::move(stop)) {}

  JoinGuard(const JoinGuard&) = delete;
  JoinGuard& operator=(const JoinGuard&) = delete;

  ~JoinGuard() {
    std::vector<std::thread*> running;
    if (thread_ != nullptr && thread_->joinable()) running.push_back(thread_);
    if (threads_ != nullptr) {
      for (std::thread& thread : *threads_) {
        if (thread.joinable()) running.push_back(&thread);
      }
    }
    if (running.empty()) return;
    if (stop_) stop_();
    for (std::thread* thread : running) thread->join();
  }

 private:
  std::vector<std::thread>* threads_ = nullptr;
  std::thread* thread_ = nullptr;
  std::function<void()> stop_;
};

}  // namespace kboost

#endif  // KBOOST_TESTS_JOIN_GUARD_H_
