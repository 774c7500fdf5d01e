#ifndef KBOOST_SERVE_SERVICE_STATS_H_
#define KBOOST_SERVE_SERVICE_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/stats.h"
#include "src/util/sync.h"

namespace kboost {

/// Point-in-time metrics of one named pool of a BoostService — what an
/// operator watches to know whether a pool is healthy and when it was last
/// hot-swapped. Counters are lifetime totals for the NAME (they survive
/// RefreshPool; a pool's traffic history does not reset because its data
/// was rebuilt); the latency quantiles are computed over the most recent
/// `PoolStatsCollector::kWindow` solves so they track current behaviour,
/// not the all-time distribution.
struct PoolStatsSnapshot {
  std::string pool;           ///< registered name
  uint64_t version = 0;       ///< current pool version (see BoostService)
  uint64_t refreshes = 0;     ///< completed RefreshPool swaps
  uint64_t queries = 0;       ///< successfully answered solves
  uint64_t errors = 0;        ///< solves that returned a non-OK status
  /// Requests shed at admission with ResourceExhausted (waiting room full).
  /// Shed requests never reach the solve path: counted neither as queries
  /// nor as errors — the overload contract keeps them a separate budget.
  uint64_t shed = 0;
  /// Requests whose deadline passed — waiting for an admission slot or
  /// mid-solve (the latter also count as errors; the former do not).
  uint64_t deadline_misses = 0;
  /// Transient snapshot-load faults absorbed by the retry-with-backoff loop
  /// while loading or refreshing this pool (retries that led to an eventual
  /// success or gave up; either way each retry counts once).
  uint64_t load_retries = 0;
  double latency_mean_ms = 0.0;  ///< lifetime mean solve latency
  double latency_p50_ms = 0.0;   ///< median over the recent window
  double latency_p95_ms = 0.0;   ///< 95th percentile over the recent window
  /// Exponentially weighted moving average of solve latency (α = 1/32, ~32
  /// queries of memory) — a load signal that, unlike the window quantiles,
  /// forgets a burst within a few dozen queries.
  double latency_ewma_ms = 0.0;
  double registered_at = 0.0;    ///< seconds since epoch, AddPool/LoadPool
  double refreshed_at = 0.0;     ///< seconds since epoch, last swap (0 = never)
  /// Wall milliseconds the most recent rebuild of this pool spent in
  /// Prepare() — sampling, index warm-up and caching both greedy orders —
  /// i.e. the cost of the last AddPool/LoadPool or RefreshPool, measured
  /// outside the registry lock. What an operator watches to size refresh
  /// cadence.
  double last_rebuild_ms = 0.0;
};

/// Everything BoostService::Stats() reports: one snapshot per registered
/// pool (sorted by name) plus the service-level count of requests that
/// named no registered pool.
struct ServiceStatsSnapshot {
  std::vector<PoolStatsSnapshot> pools;
  uint64_t not_found = 0;  ///< Solve() calls rejected with NotFound
  // Admission-control state (service-wide; zeros when admission is
  // unlimited). in_flight/queued are point-in-time gauges, the rest are
  // lifetime totals.
  uint64_t in_flight = 0;       ///< solves currently admitted
  uint64_t queued = 0;          ///< requests currently waiting for a slot
  uint64_t admitted = 0;        ///< total requests granted a slot
  uint64_t shed = 0;            ///< total requests shed (waiting room full)
  uint64_t queue_timeouts = 0;  ///< total deadline expiries while queued
};

/// Thread-safe latency/outcome accumulator for one pool name. Any number of
/// query threads record concurrently; recording takes one short mutex hold
/// (a Welford update plus a ring-buffer store), which is noise next to a
/// solve. The collector is owned by shared_ptr so a query that loses a race
/// with RemovePool can still record into it safely.
class PoolStatsCollector {
 public:
  /// Latency quantile window: p50/p95 are computed over the last kWindow
  /// solves. Bounded so a long-lived service never grows its metrics.
  static constexpr size_t kWindow = 4096;

  /// EWMA smoothing factor: each solve moves the average 1/32 of the way to
  /// its latency, so the signal remembers roughly the last 32 queries.
  static constexpr double kEwmaAlpha = 1.0 / 32.0;

  /// Records one successfully answered query and its solve latency.
  void RecordQuery(double latency_seconds);
  /// Records one query that failed against this pool (bad request,
  /// cancellation, deadline mid-solve, ...). NotFound is service-level,
  /// not per-pool.
  void RecordError();
  /// Records one request shed at admission (not a query, not an error).
  void RecordShed();
  /// Records one deadline miss — while queued for admission or mid-solve.
  void RecordDeadlineMiss();
  /// Records transient snapshot-load faults retried while (re)loading this
  /// pool's snapshot.
  void RecordLoadRetries(uint64_t retries);

  /// Fills the count and latency fields of `out` (the identity fields —
  /// name, version, timestamps — belong to the registry entry).
  void FillSnapshot(PoolStatsSnapshot* out) const;

 private:
  mutable Mutex mutex_;
  RunningStat latency_ms_ KB_GUARDED_BY(mutex_);
  uint64_t errors_ KB_GUARDED_BY(mutex_) = 0;
  double ewma_ms_ KB_GUARDED_BY(mutex_) = 0.0;  ///< 0 until the first query
  /// Ring buffer of the last kWindow solves.
  std::vector<double> window_ms_ KB_GUARDED_BY(mutex_);
  size_t window_next_ KB_GUARDED_BY(mutex_) = 0;
  // Outside the mutex: bumped on paths that must not contend with solvers
  // (shed happens exactly when the service is saturated).
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_misses_{0};
  std::atomic<uint64_t> load_retries_{0};
};

}  // namespace kboost

#endif  // KBOOST_SERVE_SERVICE_STATS_H_
