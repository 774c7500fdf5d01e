#ifndef KBOOST_UTIL_FAULT_H_
#define KBOOST_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>

namespace kboost {

/// Named fault-injection points compiled into the library. Each site is a
/// place where production code asks the global injector "fail here?" or
/// "stall here?" before doing the real work. Sites cost one relaxed atomic
/// load when nothing is armed, so they stay in release builds and the chaos
/// suite exercises the exact binaries that serve traffic.
enum class FaultSite : int {
  kSnapshotOpen = 0,  ///< opening a snapshot file (load / refresh)
  kSnapshotRead,      ///< reading an open snapshot's bytes
  kSnapshotMmap,      ///< mmap()ing a snapshot for zero-copy serving
  kSnapshotWrite,     ///< a saved snapshot, written but not yet renamed
  kSolveStart,        ///< entry of a prepared solve (delay site)
  kNumSites,          ///< sentinel — keep last
};

/// Returns a short stable name for a site ("snapshot_open", ...).
const char* FaultSiteName(FaultSite site);

/// Process-global deterministic fault injector.
///
/// Tests arm a site with a Plan; production call sites consult ShouldFail /
/// MaybeDelay. Decisions are a pure function of (seed, site, per-site hit
/// index), so a plan that says "fail the first 2 hits, then 10% of the rest"
/// produces the same failure *count* under any thread interleaving — which is
/// what chaos assertions need (exact hit→thread assignment still varies).
///
/// Disarmed cost: one relaxed load of `any_armed_` per site visit. Never arm
/// faults in production processes; this is a test/bench seam.
class FaultInjector {
 public:
  /// What an armed site should do on each hit.
  struct Plan {
    /// Fail the first `fail_first` hits unconditionally, then heal: the
    /// deterministic shape that shows one call failing typed and the next
    /// call on the same input succeeding.
    uint64_t fail_first = 0;
    /// After fail_first, fail each hit independently with this probability
    /// (seeded, reproducible). 0 = never, 1 = always.
    double probability = 0.0;
    /// Sleep this long on every hit (delay sites; 0 = no delay). Failure
    /// sites may also set it to model slow-then-failing I/O.
    int64_t delay_micros = 0;
  };

  /// The process-wide injector used by all production sites.
  static FaultInjector& Global();

  /// Arms `site` with `plan`, resetting its hit/failure counters.
  void Arm(FaultSite site, const Plan& plan);
  /// Disarms every site and zeroes all counters — test teardown.
  void DisarmAll();
  /// Reseeds the probability stream (applies to subsequent hits).
  void set_seed(uint64_t seed) {
    seed_.store(seed, std::memory_order_relaxed);
  }

  /// Records a hit at `site` and returns true when the plan says to fail.
  /// Also applies the plan's delay (slow-then-fail modelling).
  bool ShouldFail(FaultSite site);
  /// Records a hit and applies only the plan's delay (delay-only sites).
  void MaybeDelay(FaultSite site);

  /// True when any site is armed — the fast gate call sites check first.
  bool any_armed() const {
    return any_armed_.load(std::memory_order_relaxed) != 0;
  }

  /// Total hits / injected failures at `site` since it was last armed.
  uint64_t hits(FaultSite site) const;
  uint64_t failures(FaultSite site) const;

 private:
  FaultInjector() = default;

  /// Lock-free by design, not by accident: every field is an independent
  /// std::atomic and no invariant spans two of them, so there is nothing for
  /// a mutex (or a KB_GUARDED_BY contract) to protect. The one cross-field
  /// ordering that matters — a plan must be fully published before a hit can
  /// observe armed == true — is carried by the release exchange in Arm()
  /// pairing with the acquire load in ShouldFail()/MaybeDelay().
  struct Site {
    std::atomic<bool> armed{false};
    std::atomic<uint64_t> fail_first{0};
    std::atomic<double> probability{0.0};
    std::atomic<int64_t> delay_micros{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> failures{0};
  };

  Site& site(FaultSite s) { return sites_[static_cast<int>(s)]; }
  const Site& site(FaultSite s) const { return sites_[static_cast<int>(s)]; }

  Site sites_[static_cast<int>(FaultSite::kNumSites)];
  std::atomic<int> any_armed_{0};  // count of armed sites
  std::atomic<uint64_t> seed_{0x9E3779B97F4A7C15ULL};
};

/// Call-site helper: true when the armed plan for `site` injects a failure
/// on this hit. One relaxed load when nothing is armed.
inline bool MaybeInjectFault(FaultSite site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.any_armed()) return false;
  return injector.ShouldFail(site);
}

/// Call-site helper for delay-only sites (kSolveStart).
inline void MaybeInjectFaultDelay(FaultSite site) {
  FaultInjector& injector = FaultInjector::Global();
  if (!injector.any_armed()) return;
  injector.MaybeDelay(site);
}

}  // namespace kboost

#endif  // KBOOST_UTIL_FAULT_H_
