#include "src/serve/boost_service.h"

#include <chrono>
#include <utility>

#include "src/io/pool_io.h"
#include "src/util/timer.h"

namespace kboost {

namespace {

/// Wall-clock seconds since the Unix epoch — the lifecycle timestamps
/// reported by Stats(). steady_clock would survive clock steps but is
/// meaningless to an operator reading a dashboard.
double NowEpochSeconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StatusOr<std::unique_ptr<BoostService>> BoostService::Create(
    const DirectedGraph& graph, const Options& options) {
  if (options.snapshot_retry.max_attempts < 1) {
    return Status::InvalidArgument(
        "snapshot_retry.max_attempts must be >= 1, got " +
        std::to_string(options.snapshot_retry.max_attempts));
  }
  std::unique_ptr<BoostService> service(new BoostService(graph, options));
  for (const PoolSpec& spec : options.warm_pools) {
    if (Status s = service->LoadPool(spec.name, spec.snapshot_path); !s.ok()) {
      return Status::InvalidArgument("warm-start pool '" + spec.name + "': " +
                                     s.ToString());
    }
  }
  return service;
}

StatusOr<std::unique_ptr<BoostSession>> BoostService::LoadSnapshotWithRetry(
    const std::string& snapshot_path, uint64_t* retries) const {
  PoolLoadOptions load_options;
  load_options.use_mmap = options_.mmap_pools;
  // Jitter stream seeded per path so concurrent loads of different
  // snapshots decorrelate, deterministically for a given path.
  JitteredBackoff backoff(options_.snapshot_retry,
                          std::hash<std::string>{}(snapshot_path) ^
                              0x9E3779B97F4A7C15ULL);
  for (;;) {
    StatusOr<std::unique_ptr<BoostSession>> loaded =
        LoadPoolSnapshot(graph_, snapshot_path, load_options);
    if (loaded.ok() || !IsTransientStatus(loaded.status()) ||
        !backoff.SleepAndRetry()) {
      *retries = static_cast<uint64_t>(backoff.retries());
      return loaded;
    }
  }
}

void BoostService::NoteLoadRetries(const std::string& name,
                                   uint64_t retries) const {
  if (retries == 0) return;
  std::shared_ptr<PoolStatsCollector> stats;
  {
    ReaderLock lock(mutex_);
    auto it = pools_.find(name);
    if (it != pools_.end()) stats = it->second.stats;
  }
  if (stats != nullptr) stats->RecordLoadRetries(retries);
}

Status BoostService::LoadPool(const std::string& name,
                              const std::string& snapshot_path) {
  uint64_t retries = 0;
  StatusOr<std::unique_ptr<BoostSession>> loaded =
      LoadSnapshotWithRetry(snapshot_path, &retries);
  if (!loaded.ok()) return loaded.status();
  Status added = AddPool(name, std::move(loaded).value());
  // The entry exists only after AddPool; retries absorbed on the way in are
  // attributed to it now (a failed registration has no entry to charge).
  if (added.ok()) NoteLoadRetries(name, retries);
  return added;
}

Status BoostService::CheckSession(const std::string& name,
                                  const BoostSession* session) const {
  if (name.empty()) {
    return Status::InvalidArgument("pool name must be non-empty");
  }
  if (session == nullptr) {
    return Status::InvalidArgument("pool session must be non-null");
  }
  if (session->graph().num_nodes() != graph_.num_nodes()) {
    return Status::InvalidArgument(
        "pool '" + name + "' was built against a graph with " +
        std::to_string(session->graph().num_nodes()) + " nodes, not " +
        std::to_string(graph_.num_nodes()));
  }
  return Status::Ok();
}

Status BoostService::AddPool(const std::string& name,
                             std::unique_ptr<BoostSession> session) {
  if (Status s = CheckSession(name, session.get()); !s.ok()) return s;
  {
    // Fail fast on a duplicate before doing the expensive preparation.
    ReaderLock lock(mutex_);
    if (pools_.count(name) != 0) {
      return Status::InvalidArgument("pool '" + name +
                                     "' is already registered");
    }
  }
  // Sampling + index warm-up runs outside any lock: queries against other
  // pools are never blocked behind a registration.
  WallTimer rebuild_timer;
  session->Prepare();
  PoolEntry entry;
  entry.last_rebuild_ms = rebuild_timer.Seconds() * 1e3;
  entry.session = std::move(session);
  entry.version = next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
  entry.registered_at = NowEpochSeconds();
  entry.stats = std::make_shared<PoolStatsCollector>();
  WriterLock lock(mutex_);
  if (!pools_.emplace(name, std::move(entry)).second) {
    return Status::InvalidArgument("pool '" + name + "' is already registered");
  }
  return Status::Ok();
}

Status BoostService::RefreshPool(const std::string& name,
                                 std::unique_ptr<BoostSession> session) {
  if (Status s = CheckSession(name, session.get()); !s.ok()) return s;
  {
    // Fail fast when the name is not registered — a refresh replaces, it
    // never creates. A removal racing the preparation below is re-checked
    // under the writer lock at swap time.
    ReaderLock lock(mutex_);
    if (pools_.count(name) == 0) {
      return Status::NotFound("cannot refresh: no pool named '" + name + "'");
    }
  }
  // The rebuild — sampling, index warm-up, LB-order caching — runs entirely
  // outside the registry lock, so live queries (against this pool and every
  // other) proceed untouched while the replacement is prepared.
  WallTimer rebuild_timer;
  session->Prepare();
  const double rebuild_ms = rebuild_timer.Seconds() * 1e3;
  std::shared_ptr<const BoostSession> fresh = std::move(session);
  // Keeps the retired session alive past the lock scope: if this was its
  // last reference, the (potentially huge) pool arena is torn down AFTER
  // the writer lock is released, not while every Solve() lookup is blocked.
  std::shared_ptr<const BoostSession> retired;
  {
    WriterLock lock(mutex_);
    auto it = pools_.find(name);
    if (it == pools_.end()) {
      return Status::NotFound("pool '" + name +
                              "' was removed while its refresh was prepared");
    }
    // The atomic hot-swap: one pointer assignment under the writer lock. The
    // name never leaves the map, so a concurrent Solve() either looked up
    // before (and finishes on the old session, kept alive by its shared_ptr)
    // or after (and answers from the fresh one) — NotFound is impossible
    // during a refresh. Versions are stamped from the service-wide counter,
    // so they increase strictly across swaps.
    retired = std::exchange(it->second.session, std::move(fresh));
    it->second.version =
        next_version_.fetch_add(1, std::memory_order_relaxed) + 1;
    it->second.refreshes += 1;
    it->second.refreshed_at = NowEpochSeconds();
    it->second.last_rebuild_ms = rebuild_ms;
  }
  return Status::Ok();
}

Status BoostService::RefreshPoolFromSnapshot(const std::string& name,
                                             const std::string& snapshot_path) {
  uint64_t retries = 0;
  StatusOr<std::unique_ptr<BoostSession>> loaded =
      LoadSnapshotWithRetry(snapshot_path, &retries);
  // A refresh targets a live entry, so retries are recorded even when the
  // load ultimately failed — the operator sees the flakiness either way.
  NoteLoadRetries(name, retries);
  if (!loaded.ok()) return loaded.status();
  return RefreshPool(name, std::move(loaded).value());
}

Status BoostService::RemovePool(const std::string& name) {
  // Moved out under the lock, destroyed after it: dropping the last
  // reference to a removed pool frees its arena, which must not happen
  // while the registry lock blocks every concurrent lookup.
  PoolEntry removed;
  {
    WriterLock lock(mutex_);
    auto it = pools_.find(name);
    if (it == pools_.end()) {
      return Status::NotFound("no pool named '" + name + "'");
    }
    removed = std::move(it->second);
    pools_.erase(it);
  }
  return Status::Ok();
}

std::vector<std::string> BoostService::PoolNames() const {
  ReaderLock lock(mutex_);
  std::vector<std::string> names;
  names.reserve(pools_.size());
  for (const auto& [name, entry] : pools_) names.push_back(name);
  return names;
}

size_t BoostService::num_pools() const {
  ReaderLock lock(mutex_);
  return pools_.size();
}

std::shared_ptr<const BoostSession> BoostService::GetPool(
    const std::string& name) const {
  ReaderLock lock(mutex_);
  auto it = pools_.find(name);
  return it == pools_.end() ? nullptr : it->second.session;
}

uint64_t BoostService::PoolVersion(const std::string& name) const {
  ReaderLock lock(mutex_);
  auto it = pools_.find(name);
  return it == pools_.end() ? 0 : it->second.version;
}

ServiceStatsSnapshot BoostService::Stats() const {
  // Copy the identity fields and collector handles under the reader lock,
  // then let each collector fill its counters outside it (FillSnapshot
  // takes the collector's own mutex and sorts a quantile window — no reason
  // to hold the registry lock for that).
  struct Pending {
    PoolStatsSnapshot snapshot;
    std::shared_ptr<PoolStatsCollector> stats;
  };
  std::vector<Pending> pending;
  {
    ReaderLock lock(mutex_);
    pending.reserve(pools_.size());
    for (const auto& [name, entry] : pools_) {
      Pending p;
      p.snapshot.pool = name;
      p.snapshot.version = entry.version;
      p.snapshot.refreshes = entry.refreshes;
      p.snapshot.registered_at = entry.registered_at;
      p.snapshot.refreshed_at = entry.refreshed_at;
      p.snapshot.last_rebuild_ms = entry.last_rebuild_ms;
      p.stats = entry.stats;
      pending.push_back(std::move(p));
    }
  }
  ServiceStatsSnapshot result;
  result.not_found = not_found_.load(std::memory_order_relaxed);
  result.in_flight = admission_.in_flight();
  result.queued = admission_.queued();
  result.admitted = admission_.admitted();
  result.shed = admission_.shed();
  result.queue_timeouts = admission_.queue_timeouts();
  result.pools.reserve(pending.size());
  for (Pending& p : pending) {
    p.stats->FillSnapshot(&p.snapshot);
    result.pools.push_back(std::move(p.snapshot));
  }
  return result;  // std::map iteration already sorted by name
}

StatusOr<BoostResponse> BoostService::Solve(
    const BoostRequest& request, SolveContext* /*context*/) const {
  // One lookup pins everything the query needs — the session, the version
  // it will be attributed to and the metrics collector — so a refresh or
  // removal racing this call cannot tear them apart.
  std::shared_ptr<const BoostSession> pool;
  std::shared_ptr<PoolStatsCollector> stats;
  uint64_t version = 0;
  {
    ReaderLock lock(mutex_);
    auto it = pools_.find(request.pool);
    if (it != pools_.end()) {
      pool = it->second.session;
      stats = it->second.stats;
      version = it->second.version;
    }
  }
  if (pool == nullptr) {
    not_found_.fetch_add(1, std::memory_order_relaxed);
    return Status::NotFound("no pool named '" + request.pool + "' (" +
                            std::to_string(num_pools()) + " registered)");
  }

  // One latency budget from here on: admission wait and solve time draw
  // down the same absolute deadline.
  const int64_t deadline_ns = DeadlineAfterMillis(
      request.deadline_ms != 0 ? request.deadline_ms
                               : options_.default_deadline_ms);

  // Admission: the ticket's destructor returns the slot on every exit path
  // below, so slots cannot leak. Shed requests never ran and never waited —
  // they are neither queries nor errors, just shed.
  StatusOr<AdmissionController::Ticket> ticket = admission_.Admit(deadline_ns);
  if (!ticket.ok()) {
    if (ticket.status().code() == StatusCode::kResourceExhausted) {
      stats->RecordShed();
    } else {
      stats->RecordDeadlineMiss();
    }
    return ticket.status();
  }

  SolveSpec spec;
  spec.k = request.k;
  spec.mode = request.mode;
  spec.cancel = request.cancel;
  spec.deadline_ns = deadline_ns;

  WallTimer timer;
  StatusOr<BoostResult> solved = pool->Solve(spec);
  if (!solved.ok()) {
    stats->RecordError();
    if (solved.status().code() == StatusCode::kDeadlineExceeded) {
      stats->RecordDeadlineMiss();
    }
    return solved.status();
  }
  const double solve_seconds = timer.Seconds();
  stats->RecordQuery(solve_seconds);

  BoostResponse response;
  response.pool = request.pool;
  response.pool_version = version;
  response.result = std::move(solved).value();
  response.solve_seconds = solve_seconds;
  return response;
}

}  // namespace kboost
