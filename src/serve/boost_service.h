#ifndef KBOOST_SERVE_BOOST_SERVICE_H_
#define KBOOST_SERVE_BOOST_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/core/solve_context.h"
#include "src/serve/service_stats.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace kboost {

/// One boost query against a named pool of a BoostService — the typed
/// request of the serving API. Everything a client may vary per query lives
/// here; everything else (the graph, the seed set, ε/ℓ, the sampled pool)
/// is fixed per pool at registration time, which is what makes the answer
/// path read-only and therefore concurrent. A request has no thread knob: its
/// solve runs on the calling thread, so concurrency comes from concurrent
/// requests.
struct BoostRequest {
  std::string pool;  ///< registered pool name
  size_t k = 0;      ///< budget; must be in [1, pool budget]
  /// kAuto answers with the pool's native pipeline; kLbOnly answers a full
  /// pool from its LB order alone; kFull is rejected against LB-only pools.
  /// (SolveMode/SolveSpec are defined in src/core.)
  SolveMode mode = SolveMode::kAuto;
};

/// A solved request: the full BoostResult (best set, estimates, pool
/// provenance and sampling statistics) plus which pool (and which version
/// of it) answered and how long the solve took.
struct BoostResponse {
  std::string pool;
  /// The version of the pool that answered — provenance for hot-swapped
  /// pools. Versions are service-wide monotonic: every registration and
  /// every RefreshPool swap stamps a strictly larger value, so a client
  /// comparing two responses can tell which pool build answered each.
  uint64_t pool_version = 0;
  BoostResult result;
  double solve_seconds = 0.0;
};

/// A thread-safe registry of named, immutable prepared pools answering
/// typed BoostRequest → StatusOr<BoostResponse> queries concurrently.
///
/// The service exploits the paper's core asymmetry: sampling a PRR-graph
/// pool is expensive, answering a budget query against it is cheap — a
/// read-mostly serving workload. Pools are prepared (sampled + indexes
/// warmed + both greedy orders cached) BEFORE registration and held as
/// shared_ptr<const BoostSession>, so the query path holds the registry
/// lock only for the name lookup; the solve itself is a lock-free slice of
/// the shared pool's cached orders. N clients solving mixed budgets/modes
/// against one pool get results bit-identical to the same queries issued
/// serially.
///
/// Registry mutations (LoadPool/AddPool/RefreshPool/RemovePool) take the
/// writer lock only around the map update; preparing a pool happens outside
/// any lock. Removing or refreshing a pool never invalidates in-flight
/// queries — they hold the shared_ptr until they finish.
///
/// Pool lifecycle: a registered name carries a monotonically increasing
/// `version` plus registration/refresh timestamps, and RefreshPool
/// hot-swaps the session behind a live name (see below) — the building
/// block for serving over graph data or a boosting parameter β that
/// changes while queries are in flight. Per-pool traffic metrics (query
/// and error counts, solve-latency p50/p95) are collected on the query
/// path and exposed by Stats().
class BoostService {
 public:
  /// A snapshot to load at construction (warm start).
  struct PoolSpec {
    std::string name;
    std::string snapshot_path;  ///< a SavePoolSnapshot file (src/io/pool_io)
  };
  struct Options {
    /// Pools registered before Create() returns; any load failure fails
    /// construction with that pool's error.
    std::vector<PoolSpec> warm_pools;
    /// Serve snapshot-loaded pools zero-copy from an mmap of the file
    /// (LoadPool, RefreshPoolFromSnapshot and warm_pools all route through
    /// it). The mapping is pinned by the session
    /// (BoostSession::RetainResource), so hot-swaps and removals stay safe:
    /// the bytes outlive every in-flight query. Replace a served snapshot
    /// only by rename (SavePoolSnapshot does).
    bool mmap_pools = false;
  };

  /// Builds a service over `graph` (which must outlive it) and warm-starts
  /// every pool in `options.warm_pools` from its snapshot.
  static StatusOr<std::unique_ptr<BoostService>> Create(
      const DirectedGraph& graph, const Options& options);
  static StatusOr<std::unique_ptr<BoostService>> Create(
      const DirectedGraph& graph) {
    return Create(graph, Options());
  }

  /// Loads a pool snapshot, prepares it for serving and registers it under
  /// `name`. One load attempt: its typed Status is returned as is (IoError
  /// for a missing, unreadable or truncated file, InvalidArgument on a
  /// duplicate name or corrupt snapshot).
  Status LoadPool(const std::string& name, const std::string& snapshot_path);

  /// Prepares `session` for serving (sampling now if it never ran) and
  /// registers it under `name`. The service takes ownership; after
  /// registration the pool is immutable.
  Status AddPool(const std::string& name,
                 std::unique_ptr<BoostSession> session);

  /// Hot-swaps the pool behind a live name: prepares `session` (sampling,
  /// index warm-up — the expensive part) entirely OUTSIDE the registry
  /// lock, then atomically replaces the published shared_ptr. The name
  /// stays registered throughout, so concurrent Solve() calls never observe
  /// NotFound during a refresh: queries that looked the pool up before the
  /// swap finish on the old session (their shared_ptr keeps it alive),
  /// queries that look up after the swap answer from the new one — there is
  /// no in-between. The entry's version is bumped (strictly increasing) and
  /// refreshed_at is stamped; traffic metrics for the name are kept.
  /// NotFound when `name` is not registered (also when it was removed while
  /// the replacement was being prepared); InvalidArgument for a null
  /// session or a graph-size mismatch.
  Status RefreshPool(const std::string& name,
                     std::unique_ptr<BoostSession> session);

  /// RefreshPool from a snapshot file, mirroring LoadPool: a failed load
  /// leaves the live pool, its version and its answers unchanged.
  Status RefreshPoolFromSnapshot(const std::string& name,
                                 const std::string& snapshot_path);

  /// Unregisters a pool. In-flight queries against it finish normally.
  Status RemovePool(const std::string& name);

  /// Registered pool names, sorted.
  std::vector<std::string> PoolNames() const;
  size_t num_pools() const;

  /// The named pool, or null when absent — for estimator access and tests.
  std::shared_ptr<const BoostSession> GetPool(const std::string& name) const;

  /// The named pool's current version, or 0 when absent.
  uint64_t PoolVersion(const std::string& name) const;

  /// Point-in-time service metrics: per-pool query/error counts and
  /// solve-latency p50/p95 (collected on the query path), version and
  /// lifecycle timestamps, plus the NotFound count. Thread-safe; cheap
  /// enough to poll.
  ServiceStatsSnapshot Stats() const;

  /// Answers one request. Thread-safe; any number of concurrent callers.
  /// Three steps: look the pool up (NotFound for an unknown name), solve on
  /// the calling thread (exactly the statuses of BoostSession::Solve), and
  /// record the outcome against the pool. A prepared solve is an O(k)
  /// slice, so there is nothing to queue, shed or time out. `context` is
  /// unused; delete it with the next benchmark change.
  StatusOr<BoostResponse> Solve(const BoostRequest& request,
                                SolveContext* context = nullptr) const;

 private:
  /// What the registry maps a name to: the published session plus the
  /// lifecycle/metrics state that belongs to the NAME and survives
  /// hot-swaps of the session behind it.
  struct PoolEntry {
    std::shared_ptr<const BoostSession> session;
    uint64_t version = 0;
    uint64_t refreshes = 0;
    double registered_at = 0.0;  ///< seconds since epoch
    double refreshed_at = 0.0;   ///< seconds since epoch; 0 = never swapped
    double last_rebuild_ms = 0.0;  ///< Prepare() wall ms of the live session
    /// shared_ptr so a query that loses a race with RemovePool can still
    /// record its outcome after the entry is gone.
    std::shared_ptr<PoolStatsCollector> stats;
  };

  BoostService(const DirectedGraph& graph, const Options& options)
      : graph_(graph), options_(options) {}

  /// Shared validation for every registration path (AddPool and
  /// RefreshPool).
  Status CheckSession(const std::string& name,
                      const BoostSession* session) const;

  const DirectedGraph& graph_;
  const Options options_;  // warm_pools unused after Create()
  /// Source of pool versions: every registration/refresh stamps
  /// ++next_version_, so versions are unique and strictly increasing across
  /// the whole service lifetime (re-registering a removed name never reuses
  /// an old version).
  std::atomic<uint64_t> next_version_{0};
  mutable std::atomic<uint64_t> not_found_{0};
  /// Guards pools_ — the map only. Sessions and collectors are published as
  /// shared_ptr copies, so everything heavy (Prepare, Solve, FillSnapshot)
  /// runs outside it; no other lock is ever taken while it is held.
  mutable SharedMutex mutex_;
  std::map<std::string, PoolEntry> pools_ KB_GUARDED_BY(mutex_);
};

}  // namespace kboost

#endif  // KBOOST_SERVE_BOOST_SERVICE_H_
