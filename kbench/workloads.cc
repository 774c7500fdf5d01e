#include "workloads.h"

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <set>
#include <thread>

#include "src/expt/seed_selection.h"
#include "src/io/pool_io.h"
#include "src/sim/boost_model.h"
#include "src/util/thread_pool.h"
#include "host.h"
#include "stats.h"

namespace kbench {

using kboost::BoostRequest;
using kboost::BoostResponse;
using kboost::BoostResult;
using kboost::BoostService;
using kboost::BoostSession;
using kboost::SolveMode;
using kboost::SolveSpec;
using kboost::Status;
using kboost::StatusOr;

namespace {

/// The seed set is part of the instance, not of the run. Together with the
/// pool's sampling seed (BoostOptions' default) this makes every run serve
/// the same pool bits: the workload seed drives the query stream, so runs
/// differ in what is asked and in what order, never in the pool's size.
constexpr uint64_t kInstanceSeed = 2017;
constexpr size_t kMaxFailureNotes = 20;
/// Set-ups per untraced run; setup_s and the serve workloads' pool-cycle
/// timings are medians over them.
constexpr int kSetupReps = 3;
/// The smallest latency window, in queries (see PhaseResult).
constexpr size_t kWindowQueries = 1000;

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"serve_full", "digg", 0.05, 50, SolveMode::kAuto, 100, true},
      {"serve_lb", "digg", 0.05, 50, SolveMode::kLbOnly, 5000, true},
      {"build", "twitter", 0.01, 10, SolveMode::kFull, 1, false},
  };
  return specs;
}

double Since(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e9;
}

std::string KeyName(const AnswerKey& key) {
  return "k=" + std::to_string(key.first) + " mode=" + ModeName(key.second);
}

Instance MakeInstance(const WorkloadSpec& spec, double scale_factor,
                      SpanLog* log, uint64_t parent) {
  Instance instance;
  {
    ScopedSpan span(log, "graph.generate", parent);
    const int64_t start = NowNanos();
    instance.dataset = kboost::MakeDataset(
        kboost::SpecByName(spec.dataset, spec.scale * scale_factor));
    instance.generate_s = Since(start);
  }
  const kboost::DirectedGraph& graph = instance.dataset.graph;
  const size_t count = std::min(spec.num_seeds, graph.num_nodes() / 4);
  {
    ScopedSpan span(log, "expt.seeds", parent);
    const int64_t start = NowNanos();
    instance.seeds = kboost::SelectInfluentialSeeds(
        graph, count, kInstanceSeed, kboost::DefaultThreadCount());
    instance.seeds_s = Since(start);
  }
  instance.excluded = kboost::MakeNodeBitmap(graph.num_nodes(), instance.seeds);
  return instance;
}

/// Builds a pool at k_max with default BoostOptions (threads = shards =
/// nproc, default sampling seed), answers k_max once in kFull, saves it as a nop
/// v3 snapshot and loads it back into two default services — owned, then
/// mmap — exactly as kboostd and kboostd --mmap-pool would. The snapshot
/// file is unlinked afterwards; the mmap'd pool keeps its inode alive.
StatusOr<PoolCycle> RunPoolCycle(const Instance& instance,
                                 const std::string& path, SpanLog* log,
                                 uint64_t parent, uint64_t request_id) {
  const kboost::DirectedGraph& graph = instance.dataset.graph;
  PoolCycle cycle;
  {
    ScopedSpan boost(log, "core.boost", parent, request_id);
    const int64_t start = NowNanos();
    kboost::BoostOptions options;
    options.k = kMaxBudget;
    auto session = [&] {
      ScopedSpan span(log, "core.create", boost.id(), request_id);
      return BoostSession::Create(graph, instance.seeds, options);
    }();
    if (!session.ok()) return session.status();
    cycle.built = std::move(session).value();
    {
      ScopedSpan span(log, "core.prepare", boost.id(), request_id);
      cycle.built->Prepare();
    }
    SolveSpec spec;
    spec.k = kMaxBudget;
    spec.mode = SolveMode::kFull;
    auto answer = [&] {
      ScopedSpan span(log, "core.solve", boost.id(), request_id);
      return cycle.built->Solve(spec);
    }();
    if (!answer.ok()) return answer.status();
    cycle.built_answer = std::move(answer).value();
    cycle.boost_s = Since(start);
  }
  {
    ScopedSpan span(log, "io.save", parent, request_id);
    const int64_t start = NowNanos();
    auto saved = kboost::SavePoolSnapshot(*cycle.built, path,
                                          kboost::PoolSaveOptions{});
    if (!saved.ok()) return saved.status();
    cycle.snapshot_bytes = saved->file_bytes;
    cycle.save_s = Since(start);
  }
  for (bool mmap : {false, true}) {
    ScopedSpan span(log, mmap ? "serve.load_pool_mmap" : "serve.load_pool",
                    parent, request_id);
    const int64_t start = NowNanos();
    BoostService::Options options;
    options.mmap_pools = mmap;
    auto service = BoostService::Create(graph, options);
    if (!service.ok()) return service.status();
    const Status loaded = (*service)->LoadPool(kPoolName, path);
    if (!loaded.ok()) return loaded;
    (mmap ? cycle.mmap_load_s : cycle.load_s) = Since(start);
    (mmap ? cycle.mapped : cycle.owned) = std::move(service).value();
  }
  std::remove(path.c_str());
  return cycle;
}

/// The two loaded pools must answer k_max bit-identically to the built one.
void VerifyLoadedPools(const PoolCycle& cycle, RunReport* report) {
  for (const BoostService* service : {cycle.owned.get(), cycle.mapped.get()}) {
    const char* which = service == cycle.owned.get() ? "owned" : "mmap";
    BoostRequest request;
    request.pool = kPoolName;
    request.k = kMaxBudget;
    request.mode = SolveMode::kFull;
    StatusOr<BoostResponse> response = service->Solve(request);
    ++report->attempted;
    if (!response.ok()) {
      report->Fail(std::string(which) + " LoadPool answer: " +
                   response.status().ToString());
    } else if (!SameAnswer(response->result, cycle.built_answer)) {
      report->Fail(std::string(which) +
                   " LoadPool answer differs from the built pool at k_max");
    }
  }
}

std::string SnapshotPath(const RunOptions& options, uint64_t n) {
  return options.out_dir + "/" + options.workload + "-" +
         std::to_string(getpid()) + "-" + std::to_string(n) + ".snap";
}

/// One set-up: instance, and for serve workloads the pool cycle, the serial
/// reference answers, the server and its clients.
StatusOr<std::unique_ptr<Fixture>> SetUp(const WorkloadSpec& spec,
                                         const RunOptions& options,
                                         uint64_t rep, SpanLog* log,
                                         uint64_t parent, RunReport* report) {
  auto fixture = std::make_unique<Fixture>();
  fixture->spec = &spec;
  fixture->instance = MakeInstance(spec, options.scale_factor, log, parent);
  fixture->stream = MakeQueryStream(options.seed, spec.mode, spec.per_budget);
  if (!spec.serve) return fixture;

  StatusOr<PoolCycle> cycle =
      RunPoolCycle(fixture->instance, SnapshotPath(options, rep), log, parent,
                   rep);
  if (!cycle.ok()) return cycle.status();
  fixture->pool = std::move(cycle).value();
  {
    ScopedSpan span(log, "bench.reference", parent, rep);
    ComputeReference(fixture.get());
  }
  VerifyLoadedPools(fixture->pool, report);
  const Status started = StartServer(fixture.get(), kClients);
  if (!started.ok()) return started;
  return fixture;
}

/// What one timed phase measured. A pass is one full replay of the stream
/// (serve) or one build cycle (build); its rate is work per second.
/// Latency percentiles are taken per window — consecutive serve passes
/// holding at least kWindowQueries queries, so a window's p99 has at least
/// ten samples beyond it; all cycles of a build phase — and reported as the
/// median over windows, so a host hiccup spoils one window, not the run.
///
/// With tracing on, a phase alternates untraced and traced passes, starting
/// untraced, and keeps each pass's p50 (build: its cycle time) for
/// MeasureTraceCost.
struct PhaseResult {
  std::vector<double> pass_rates;
  std::vector<double> p50_ms, tail_ms;
  std::string tail_label;
  uint64_t latency_seen = 0;
  std::vector<double> pass_p50_ms;
  std::vector<bool> pass_traced;
  /// Peak RSS when the phase ended.
  double rss_mb = 0.0;

  void CloseWindow(const std::vector<double>& window_ms) {
    p50_ms.push_back(Quantile(window_ms, 0.5));
    const Tail tail = TailPercentile(window_ms, 99.0);
    tail_ms.push_back(tail.value);
    tail_label = tail.label;
  }
};

/// Closed loop over the wire: kClients connections take the next query
/// from one shared cursor (never striped by client), replaying the whole
/// stream per pass, until `seconds` have passed. Every reply is checked
/// against the serial reference.
PhaseResult ReplayOverWire(Fixture* fixture, double seconds, Tracer* tracer,
                           RunReport* report) {
  const std::vector<StreamQuery>& stream = fixture->stream;
  const size_t n = stream.size();
  std::vector<SpanLog*> logs;
  for (int c = 0; c < kClients; ++c) logs.push_back(tracer->NewLog());
  const bool alternate = logs[0] != nullptr;

  std::vector<Tally> tallies(kClients);
  PhaseResult result;
  // Both buffers are sized up front, so the benchmark's own memory does not
  // grow with how many queries a run answers.
  std::vector<double> pass_ms(n);
  const size_t passes_per_window = (kWindowQueries + n - 1) / n;
  std::vector<double> window_ms(passes_per_window * n);
  window_ms.clear();

  // The clients live for the whole phase and meet the coordinator at the
  // barrier twice per pass: once to start it, once when the stream is
  // drained. `pass`, `traced` and `cursor` are only written while the
  // clients wait.
  std::atomic<size_t> cursor{0};
  std::atomic<bool> done{false};
  uint64_t pass = 0;
  bool traced = false;
  std::barrier sync(kClients + 1);
  auto client_body = [&](int c) {
    kboost::KboostClient& client = *fixture->clients[c];
    for (;;) {
      sync.arrive_and_wait();
      if (done.load()) return;
      SpanLog* log = traced ? logs[c] : nullptr;
      const uint64_t base = pass * n;
      for (;;) {
        const size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        const StreamQuery& q = stream[i];
        kboost::WireQuery query;
        query.pool = kPoolName;
        query.k = q.k;
        query.mode = q.mode;
        const int64_t start = NowNanos();
        StatusOr<kboost::WireQueryReply> reply = [&] {
          ScopedSpan span(log, "net.query", 0, base + i);
          return client.Query(query);
        }();
        pass_ms[i] = static_cast<double>(NowNanos() - start) / 1e6;
        tallies[c].Record(CheckReply(reply, *fixture, q));
      }
      sync.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client_body, c);
  const int64_t phase_start = NowNanos();
  do {
    cursor.store(0);
    traced = alternate && pass % 2 == 1;
    const int64_t pass_start = NowNanos();
    sync.arrive_and_wait();
    sync.arrive_and_wait();
    result.pass_rates.push_back(static_cast<double>(n) / Since(pass_start));
    ++pass;
    if (alternate) {
      result.pass_p50_ms.push_back(Quantile(pass_ms, 0.5));
      result.pass_traced.push_back(traced);
    }
    window_ms.insert(window_ms.end(), pass_ms.begin(), pass_ms.end());
    if (window_ms.size() >= kWindowQueries) {
      result.CloseWindow(window_ms);
      window_ms.clear();
    }
  } while (Since(phase_start) < seconds || (alternate && pass < 2));
  done.store(true);
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  // A short phase may not fill one window; then its queries are the window.
  if (result.p50_ms.empty()) result.CloseWindow(window_ms);
  result.latency_seen = pass * n;
  result.rss_mb = PeakRssMiB();
  for (const Tally& tally : tallies) tally.MergeInto(report);
  return result;
}

/// Build cycles back to back until `seconds` have passed (at least one;
/// two when tracing, so one is traced). Only the four steps are timed; the
/// checks run between cycles.
PhaseResult RunBuildCycles(Fixture* fixture, const RunOptions& options,
                           double seconds, Tracer* tracer, uint64_t* cycle_no,
                           StepTimes* steps, RunReport* report) {
  SpanLog* const log = tracer->NewLog();
  const bool alternate = log != nullptr;
  PhaseResult result;
  std::vector<double> cycle_ms;
  const AnswerKey key{kMaxBudget, SolveMode::kFull};
  const int64_t phase_start = NowNanos();
  do {
    const uint64_t id = ++*cycle_no;
    const bool traced = alternate && cycle_ms.size() % 2 == 1;
    SpanLog* cycle_log = traced ? log : nullptr;
    fixture->pool = PoolCycle{};  // release the previous pool first
    StatusOr<PoolCycle> cycle = [&] {
      ScopedSpan span(cycle_log, "build.cycle", 0, id);
      return RunPoolCycle(fixture->instance, SnapshotPath(options, id),
                          cycle_log, span.id(), id);
    }();
    if (!cycle.ok()) {
      report->Fail("build cycle: " + cycle.status().ToString());
      break;
    }
    fixture->pool = std::move(cycle).value();
    const PoolCycle& pool = fixture->pool;
    const double total = pool.CycleSeconds();
    result.pass_rates.push_back(1.0 / total);
    cycle_ms.push_back(total * 1e3);
    if (alternate) {
      result.pass_p50_ms.push_back(total * 1e3);
      result.pass_traced.push_back(traced);
    }
    steps->Add(pool);

    if (fixture->reference.count(key) == 0) {
      SolveSpec serial;
      serial.k = kMaxBudget;
      serial.mode = SolveMode::kFull;
      serial.num_threads = 1;
      StatusOr<BoostResult> reference = pool.built->Solve(serial);
      if (reference.ok()) fixture->reference[key] = std::move(*reference);
    }
    ++report->attempted;
    auto it = fixture->reference.find(key);
    if (it == fixture->reference.end() ||
        !SameAnswer(pool.built_answer, it->second)) {
      report->Fail("built pool's k_max answer differs from the serial "
                   "reference");
    }
    VerifyLoadedPools(pool, report);
  } while (Since(phase_start) < seconds || (alternate && cycle_ms.size() < 2));
  result.CloseWindow(cycle_ms);
  result.latency_seen = cycle_ms.size();
  result.rss_mb = PeakRssMiB();
  return result;
}

PhaseResult RunPhase(Fixture* fixture, const RunOptions& options,
                     double seconds, Tracer* tracer, uint64_t* cycle_no,
                     StepTimes* steps, RunReport* report) {
  if (fixture->spec->serve) {
    return ReplayOverWire(fixture, seconds, tracer, report);
  }
  return RunBuildCycles(fixture, options, seconds, tracer, cycle_no, steps,
                        report);
}

/// The cost of tracing, from an alternating phase: each traced pass's p50
/// (build: cycle time) against the mean of its untraced neighbours, so a
/// host that drifts during the phase cancels out. Medians over the traced
/// passes, in ms and in percent of the untraced value.
struct TraceCost {
  double ms = 0.0;
  double pct = 0.0;
  size_t pairs = 0;
};

TraceCost MeasureTraceCost(const PhaseResult& phase) {
  const std::vector<double>& p50 = phase.pass_p50_ms;
  const std::vector<bool>& traced = phase.pass_traced;
  std::vector<double> diff_ms, diff_pct;
  for (size_t i = 0; i < p50.size(); ++i) {
    if (!traced[i]) continue;
    double sum = 0.0;
    int count = 0;
    for (size_t j : {i - 1, i + 1}) {
      if (j < p50.size() && !traced[j]) {  // i - 1 wraps when i == 0
        sum += p50[j];
        ++count;
      }
    }
    if (count == 0) continue;
    const double untraced = sum / count;
    diff_ms.push_back(p50[i] - untraced);
    diff_pct.push_back(untraced > 0 ? 100.0 * (p50[i] / untraced - 1.0)
                                    : 0.0);
  }
  return {Median(diff_ms), Median(diff_pct), diff_ms.size()};
}

std::string SampleNote(const char* what, size_t n) {
  return std::string(what) + " of n=" + std::to_string(n);
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

void RunReport::Fail(const std::string& what) {
  correct = false;
  ++failed;
  if (failures.size() < kMaxFailureNotes) failures.push_back(what);
}

void RunReport::Add(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics.push_back({name, value, unit, note});
}

void RunReport::Info(const std::string& name, double value,
                     const std::string& unit, const std::string& note) {
  info.push_back({name, value, unit, note});
}

void StepTimes::Add(const PoolCycle& cycle) {
  boost_s.push_back(cycle.boost_s);
  save_s.push_back(cycle.save_s);
  load_s.push_back(cycle.load_s);
  mmap_load_s.push_back(cycle.mmap_load_s);
}

void Tally::Record(const std::string& problem) {
  ++attempted;
  if (problem.empty()) return;
  ++failed;
  if (notes.size() < kMaxFailureNotes) notes.push_back(problem);
}

void Tally::MergeInto(RunReport* report) const {
  report->attempted += attempted;
  for (const std::string& note : notes) report->Fail(note);
  if (failed > notes.size()) {
    report->failed += failed - notes.size();
    report->correct = false;
  }
}

std::string CheckReply(const StatusOr<kboost::WireQueryReply>& reply,
                       const Fixture& fixture, const StreamQuery& query) {
  const AnswerKey key{query.k, query.mode};
  if (!reply.ok()) {
    return KeyName(key) + ": transport: " + reply.status().ToString();
  }
  if (!reply->status.ok()) {
    return KeyName(key) + ": reply status: " + reply->status.ToString();
  }
  auto it = fixture.reference.find(key);
  if (it == fixture.reference.end() || !SameAnswer(*reply, it->second)) {
    return KeyName(key) + ": answer differs from the serial reference";
  }
  return "";
}

namespace {

/// The answer fields a wire reply carries, compared exactly.
template <typename Answer>
bool SameFields(const Answer& got, const BoostResult& want) {
  return got.best_set == want.best_set &&
         got.best_estimate == want.best_estimate &&
         got.lb_set == want.lb_set && got.lb_mu_hat == want.lb_mu_hat &&
         got.lb_delta_hat == want.lb_delta_hat &&
         got.delta_set == want.delta_set &&
         got.delta_delta_hat == want.delta_delta_hat &&
         got.num_samples == want.num_samples &&
         got.num_boostable == want.num_boostable &&
         static_cast<uint64_t>(got.pool_budget) ==
             static_cast<uint64_t>(want.pool_budget);
}

}  // namespace

bool SameAnswer(const BoostResult& got, const BoostResult& want) {
  return SameFields(got, want);
}

bool SameAnswer(const kboost::WireQueryReply& got, const BoostResult& want) {
  return SameFields(got, want);
}

Status StartServer(Fixture* fixture, int clients) {
  auto server = kboost::KboostServer::Start(fixture->pool.owned.get(),
                                            kboost::ServerOptions{});
  if (!server.ok()) return server.status();
  fixture->server = std::move(server).value();
  for (int c = 0; c < clients; ++c) {
    auto client =
        kboost::KboostClient::Connect("127.0.0.1", fixture->server->port());
    if (!client.ok()) return client.status();
    fixture->clients.push_back(std::move(client).value());
  }
  return Status::Ok();
}

void ComputeReference(Fixture* fixture) {
  std::set<AnswerKey> keys;
  for (size_t k : kStreamBudgets) {
    for (SolveMode mode :
         {fixture->spec->mode, SolveMode::kAuto, SolveMode::kLbOnly}) {
      keys.insert({k, mode});
    }
  }
  for (const AnswerKey& key : keys) {
    if (fixture->reference.count(key) != 0) continue;
    SolveSpec serial;
    serial.k = key.first;
    serial.mode = key.second;
    serial.num_threads = 1;
    StatusOr<BoostResult> answer = fixture->pool.built->Solve(serial);
    // A missing reference makes every reply for that key a failure.
    if (answer.ok()) fixture->reference[key] = std::move(*answer);
  }
}

StatusOr<RunReport> RunBenchmark(const RunOptions& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    return Status::InvalidArgument("unknown workload '" + options.workload +
                                   "'");
  }
  if (mkdir(options.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create " + options.out_dir);
  }
  const CpuTimes cpu_start = ReadCpuTimes();
  Tracer tracer(options.trace);
  Tracer untraced(false);
  SpanLog* log = tracer.NewLog();
  RunReport report;

  // Set-up. The first one is kept for the workload; the repetitions that
  // only time set-up run after it, so the peak RSS a run reports is one
  // set-up plus the workload in a fresh process.
  std::vector<double> setup_s, generate_s, seeds_s;
  StepTimes steps;
  auto set_up = [&](uint64_t rep) -> StatusOr<std::unique_ptr<Fixture>> {
    const int64_t start = NowNanos();
    StatusOr<std::unique_ptr<Fixture>> made = [&] {
      ScopedSpan span(log, "bench.setup", 0, rep);
      return SetUp(*spec, options, rep, log, span.id(), &report);
    }();
    if (!made.ok()) return made.status();
    setup_s.push_back(Since(start));
    const Fixture& f = **made;
    generate_s.push_back(f.instance.generate_s);
    seeds_s.push_back(f.instance.seeds_s);
    if (spec->serve) steps.Add(f.pool);
    return made;
  };
  StatusOr<std::unique_ptr<Fixture>> first = set_up(0);
  if (!first.ok()) return first.status();
  std::unique_ptr<Fixture> fixture = std::move(first).value();

  if (spec->serve) {
    // One untimed pass warms every connection, worker and SolveContext.
    ReplayOverWire(fixture.get(), 0.0, &untraced, &report);
  }
  // Untraced, the timed phase takes all of --seconds. Traced, the workload
  // alternates untraced and traced passes for half of it, and the probes
  // take the other half.
  uint64_t cycle_no = 0;
  const PhaseResult phase =
      RunPhase(fixture.get(), options,
               options.trace ? options.seconds * 0.5 : options.seconds,
               &tracer, &cycle_no, &steps, &report);

  if (options.trace) {
    const TraceCost cost = MeasureTraceCost(phase);
    const std::string pairs =
        "median over " + std::to_string(cost.pairs) +
        " traced pass(es) of p50 minus its untraced neighbours' mean";
    report.Add("trace.overhead_us", cost.ms * 1e3, "us", pairs);
    report.Add("trace.overhead_pct", cost.pct, "%", pairs);
    RunProbes(fixture.get(), options, options.seconds * 0.5, &tracer, &report);
    report.Add("io.save_ms", Median(steps.save_s) * 1e3, "ms",
               SampleNote("median", steps.save_s.size()));
    report.Add("serve.load_pool_s", Median(steps.load_s), "s",
               SampleNote("median", steps.load_s.size()));
    report.Add("graph.generate_s", Median(generate_s), "s",
               SampleNote("median", generate_s.size()));
    report.Add("expt.seeds_s", Median(seeds_s), "s",
               SampleNote("median", seeds_s.size()));
  }

  // Pool identity: exact counts any change to the pool shows first.
  const kboost::PrrCollection& pool =
      fixture->pool.built->engine().collection();
  report.Info("pool.theta", static_cast<double>(pool.num_samples()), "count");
  report.Info("pool.boostable", static_cast<double>(pool.num_boostable()),
              "count");
  report.Info("pool.stored_graph_bytes",
              static_cast<double>(pool.StoredGraphBytes()), "bytes");
  report.Info("pool.snapshot_bytes",
              static_cast<double>(fixture->pool.snapshot_bytes), "bytes");
  fixture.reset();  // stop the server and clients

  if (!options.trace) {
    for (int rep = 1; rep < kSetupReps; ++rep) {
      malloc_trim(0);
      StatusOr<std::unique_ptr<Fixture>> again = set_up(rep);
      if (!again.ok()) return again.status();
    }
    report.Add("setup_s", Median(setup_s), "s",
               SampleNote("median", setup_s.size()));
    report.Add("qps", Median(phase.pass_rates), "queries/s",
               SampleNote("median pass", phase.pass_rates.size()));
    const std::string windows =
        " over " + std::to_string(phase.p50_ms.size()) + " window(s), n=" +
        std::to_string(phase.latency_seen);
    report.Add("latency_p50_ms", Median(phase.p50_ms), "ms",
               "median of p50" + windows);
    report.Add("latency_p99_ms", Median(phase.tail_ms), "ms",
               "median of " + phase.tail_label + windows);
    report.Add("boost_s", Median(steps.boost_s), "s",
               SampleNote("median", steps.boost_s.size()));
    report.Add("rss_mb", phase.rss_mb, "MiB",
               "VmHWM after one set-up and the workload");
    report.Info("qps_pass_iqr", RelativeIqr(phase.pass_rates), "fraction",
                "(Q3-Q1)/median over passes");
    // Millisecond-scale snapshot steps: printed, but too noisy on a shared
    // host to gate on (see README.md).
    report.Info("save_s", Median(steps.save_s), "s",
                SampleNote("median", steps.save_s.size()));
    report.Info("load_s", Median(steps.load_s), "s",
                SampleNote("median", steps.load_s.size()));
    report.Info("mmap_load_s", Median(steps.mmap_load_s), "s",
                SampleNote("median", steps.mmap_load_s.size()));
  }
  report.steal_pct = StealPercent(cpu_start, ReadCpuTimes());
  report.Info("host.steal_pct", report.steal_pct, "%",
              "CPU time the hypervisor gave other guests during the run");
  report.Info("error_rate",
              report.attempted == 0
                  ? 1.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "fraction", SampleNote("failed/attempted", report.attempted));

  if (options.trace) {
    const std::vector<Span> spans = tracer.Collect();
    report.spans = Summarize(spans);
    report.trace_path = options.out_dir + "/trace-" + options.workload +
                        "-seed" + std::to_string(options.seed) + ".jsonl";
    const Status written = WriteSpans(spans, report.trace_path);
    if (!written.ok()) return written;
    report.Info("trace.spans", static_cast<double>(spans.size()), "count");
    report.trace_sample_every = tracer.stride();
    report.Info("trace.sample_every",
                static_cast<double>(report.trace_sample_every), "requests",
                "largest per-thread stride: spans of 1 request in this many "
                "were kept");
    report.Info("trace.dropped", static_cast<double>(tracer.dropped()),
                "count");
  }
  return report;
}

}  // namespace kbench
