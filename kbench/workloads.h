#ifndef KBENCH_WORKLOADS_H_
#define KBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/serve/boost_service.h"
#include "src/util/status.h"
#include "stream.h"
#include "trace.h"

namespace kbench {

/// A workload, fixed by name. Why each exists and what it bypasses:
///
/// serve_full — digg stand-in, full pool at k_max = 100, kAuto queries over
///   the wire. A solve is 1–5 ms of Δ̂ greedy plus EstimateDelta fanned out
///   over the ThreadPool while the wire costs ~30 µs, so `select`, `core`
///   and `util` do most of the work and `net` little.
/// serve_lb — the same pool and server, every query kLbOnly. An LB answer is
///   an O(k) slice of the cached order (< 1 µs), so the time goes to `net`
///   (framing, epoll loop, dispatch queue, worker handoff) and `serve`
///   (registry lookup, admission ticket, stats). It bypasses `select` and
///   the ThreadPool fan-out: a selection change should predict no change
///   here.
/// build — twitter stand-in (average p = 0.608, so PRR-graphs of another
///   shape than digg's). Each cycle is one-shot PRR-Boost (Create, Prepare,
///   Solve(k = 100, kFull): the running time of the paper's Fig. 6), a nop v3
///   snapshot save, and two LoadPools (owned, then mmap). It is the write
///   side of the `core` structures the serve workloads only read — sampler
///   into shard arenas, index builds, IMM coverage greedy — plus the `io`
///   save and load paths, and it bypasses `net` and the per-query path.
struct WorkloadSpec {
  std::string name;
  std::string dataset;
  double scale = 0.0;
  size_t num_seeds = 0;
  kboost::SolveMode mode = kboost::SolveMode::kAuto;
  /// Stream length is per_budget × |kStreamBudgets|; sized so one replay
  /// (one pass) takes under a second.
  size_t per_budget = 0;
  bool serve = false;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies the workload's dataset scale; < 1 only in the smoke tests.
  double scale_factor = 1.0;
  /// Where snapshots, span logs and the result record are written.
  std::string out_dir = ".bench_out";
  std::string source_id;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< how it was taken, e.g. "p99 of n=19873"
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run):
  /// what the final JSON line carries.
  std::vector<Metric> metrics;
  /// Printed only: error rate, pool identity counts, sample counts.
  std::vector<Metric> info;
  /// The first few failures, described.
  std::vector<std::string> failures;
  std::vector<SpanSummary> spans;
  /// The spans of 1 request in this many were kept (trace.h).
  uint64_t trace_sample_every = 1;
  std::string trace_path;
  /// Hypervisor steal over the run, in percent of all CPU time.
  double steal_pct = 0.0;

  void Fail(const std::string& what);
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void Info(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");
};

/// Runs one workload end to end: set-up, the timed phase, the correctness
/// checks and (when options.trace) the per-layer probes. A non-OK status
/// means set-up itself failed and no result should be printed.
kboost::StatusOr<RunReport> RunBenchmark(const RunOptions& options);

// ---- Pieces shared with probes.cc and the tests ---------------------------

/// A dataset stand-in plus its influential seed set.
struct Instance {
  kboost::Dataset dataset;
  std::vector<kboost::NodeId> seeds;
  std::vector<uint8_t> excluded;  ///< seeds as an n-sized bitmap
  double generate_s = 0.0;
  double seeds_s = 0.0;
};

/// One pool built, saved and loaded back both ways. The built session and
/// the two services all answer from the same bits.
struct PoolCycle {
  std::unique_ptr<kboost::BoostSession> built;
  kboost::BoostResult built_answer;  ///< Solve(k_max, kFull) on `built`
  std::unique_ptr<kboost::BoostService> owned;
  std::unique_ptr<kboost::BoostService> mapped;
  uint64_t snapshot_bytes = 0;
  double boost_s = 0.0;
  double save_s = 0.0;
  double load_s = 0.0;
  double mmap_load_s = 0.0;

  /// Build, save and both loads.
  double CycleSeconds() const { return boost_s + save_s + load_s + mmap_load_s; }
};

/// The step timings of every pool cycle a run made: one per set-up on the
/// serve workloads, one per cycle on build.
struct StepTimes {
  std::vector<double> boost_s, save_s, load_s, mmap_load_s;

  void Add(const PoolCycle& cycle);
};

using AnswerKey = std::pair<size_t, kboost::SolveMode>;

/// Everything a timed phase or a probe runs against. Heap-allocated and
/// never moved once filled: the services and sessions hold references to
/// instance.dataset.graph.
struct Fixture {
  const WorkloadSpec* spec = nullptr;
  Instance instance;
  PoolCycle pool;
  std::vector<StreamQuery> stream;
  /// Serial (one-thread) in-process answers of the built pool per distinct
  /// (k, mode) — the bit-identity reference for every tier.
  std::map<AnswerKey, kboost::BoostResult> reference;
  std::unique_ptr<kboost::KboostServer> server;
  /// Declared last so they close first, then the server drains, then the
  /// pools it served go.
  std::vector<std::unique_ptr<kboost::KboostClient>> clients;
};

inline constexpr const char* kPoolName = "pool";
inline constexpr int kClients = 4;
/// Above this much hypervisor steal a run's timings are marked not
/// comparable: a quiet host reads about 1% or less.
inline constexpr double kMaxComparableStealPct = 2.0;

/// Exact comparison on the fields a reply carries (doubles by value, so
/// any bit difference in a finite estimate fails).
bool SameAnswer(const kboost::BoostResult& got, const kboost::BoostResult& want);
bool SameAnswer(const kboost::WireQueryReply& got,
                const kboost::BoostResult& want);

/// Per-thread failure bookkeeping, merged into the report after join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  /// Counts one attempt; a non-empty `problem` is a failure.
  void Record(const std::string& problem);
  void MergeInto(RunReport* report) const;
};

/// Why a wire reply to `query` is not the serial reference answer, or ""
/// when it is.
std::string CheckReply(const kboost::StatusOr<kboost::WireQueryReply>& reply,
                       const Fixture& fixture, const StreamQuery& query);

/// Starts a KboostServer with default ServerOptions over fixture.pool.owned
/// and connects `clients` clients.
kboost::Status StartServer(Fixture* fixture, int clients);

/// Fills fixture->reference for every (k, mode) the probes and the stream
/// ask about.
void ComputeReference(Fixture* fixture);

/// Runs the per-layer probes for `seconds` in total and appends their
/// metrics to `report` (probes.cc).
void RunProbes(Fixture* fixture, const RunOptions& options, double seconds,
               Tracer* tracer, RunReport* report);

}  // namespace kbench

#endif  // KBENCH_WORKLOADS_H_
