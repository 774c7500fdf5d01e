#include "src/util/fault.h"

#include <chrono>
#include <thread>

#include "src/util/rng.h"

namespace kboost {

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kSnapshotOpen:
      return "snapshot_open";
    case FaultSite::kSnapshotRead:
      return "snapshot_read";
    case FaultSite::kSnapshotShortRead:
      return "snapshot_short_read";
    case FaultSite::kSnapshotMmap:
      return "snapshot_mmap";
    case FaultSite::kSnapshotWrite:
      return "snapshot_write";
    case FaultSite::kAllocPressure:
      return "alloc_pressure";
    case FaultSite::kSolveStart:
      return "solve_start";
    case FaultSite::kNumSites:
      break;
  }
  return "unknown";
}

FaultInjector& FaultInjector::Global() {
  static FaultInjector* instance = new FaultInjector();
  return *instance;
}

void FaultInjector::Arm(FaultSite s, const Plan& plan) {
  Site& st = site(s);
  st.fail_first.store(plan.fail_first, std::memory_order_relaxed);
  st.probability.store(plan.probability, std::memory_order_relaxed);
  st.delay_micros.store(plan.delay_micros, std::memory_order_relaxed);
  st.hits.store(0, std::memory_order_relaxed);
  st.failures.store(0, std::memory_order_relaxed);
  // Publish the plan before the armed flag so a concurrent hit that sees
  // armed==true reads a complete plan.
  if (!st.armed.exchange(true, std::memory_order_release)) {
    any_armed_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FaultInjector::Disarm(FaultSite s) {
  Site& st = site(s);
  if (st.armed.exchange(false, std::memory_order_relaxed)) {
    any_armed_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::DisarmAll() {
  for (int i = 0; i < static_cast<int>(FaultSite::kNumSites); ++i) {
    Site& st = sites_[i];
    if (st.armed.exchange(false, std::memory_order_relaxed)) {
      any_armed_.fetch_sub(1, std::memory_order_relaxed);
    }
    st.hits.store(0, std::memory_order_relaxed);
    st.failures.store(0, std::memory_order_relaxed);
  }
}

bool FaultInjector::ShouldFail(FaultSite s) {
  Site& st = site(s);
  if (!st.armed.load(std::memory_order_acquire)) return false;
  const uint64_t hit = st.hits.fetch_add(1, std::memory_order_relaxed);
  const int64_t delay = st.delay_micros.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
  bool fail = hit < st.fail_first.load(std::memory_order_relaxed);
  if (!fail) {
    const double p = st.probability.load(std::memory_order_relaxed);
    if (p > 0.0) {
      // Decision is a pure function of (seed, site, hit index): the failure
      // set is identical across runs and thread interleavings.
      uint64_t state = seed_.load(std::memory_order_relaxed) ^
                       (static_cast<uint64_t>(static_cast<int>(s)) << 56) ^
                       hit;
      const uint64_t draw = SplitMix64(state);
      fail = static_cast<double>(draw >> 11) * 0x1.0p-53 < p;
    }
  }
  if (fail) st.failures.fetch_add(1, std::memory_order_relaxed);
  return fail;
}

void FaultInjector::MaybeDelay(FaultSite s) {
  Site& st = site(s);
  if (!st.armed.load(std::memory_order_acquire)) return;
  st.hits.fetch_add(1, std::memory_order_relaxed);
  const int64_t delay = st.delay_micros.load(std::memory_order_relaxed);
  if (delay > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay));
  }
}

uint64_t FaultInjector::hits(FaultSite s) const {
  return site(s).hits.load(std::memory_order_relaxed);
}

uint64_t FaultInjector::failures(FaultSite s) const {
  return site(s).failures.load(std::memory_order_relaxed);
}

}  // namespace kboost
