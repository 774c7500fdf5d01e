// Per-layer probes for the traced run. Each probe times calls into one
// layer's public functions from here — the library carries no tracing — on
// the run's own pool, stream and reference answers, and records a span per
// call. The metric names say the layer: net, serve, core, select, io, util
// (graph and expt come from set-up, in workloads.cc).

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/io/pool_io.h"
#include "src/util/thread_pool.h"
#include "stats.h"
#include "workloads.h"

namespace kbench {

using kboost::BoostResult;
using kboost::SolveMode;
using kboost::StatusOr;

namespace {

/// `threads` closed-loop callers until `seconds` pass, each making at least
/// one call; call(t, i) gets i from one shared cursor, so callers never
/// stripe the stream.
template <typename Call>
void ClosedLoop(int threads, double seconds, Call&& call) {
  std::atomic<uint64_t> cursor{0};
  const int64_t deadline = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      do {
        call(t, cursor.fetch_add(1, std::memory_order_relaxed));
      } while (NowNanos() < deadline);
    });
  }
  for (std::thread& w : workers) w.join();
}

double MicrosSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) / 1e3;
}

std::vector<double> MergedValues(const std::vector<Reservoir>& reservoirs) {
  std::vector<double> all;
  for (const Reservoir& r : reservoirs) {
    const std::vector<double> kept = r.Values();
    all.insert(all.end(), kept.begin(), kept.end());
  }
  return all;
}

/// Per-thread samples and tallies of one probe. Sub-microsecond calls run
/// millions of times per slice, so samples go into fixed-size reservoirs.
struct ProbeThreads {
  static constexpr size_t kSamplesPerThread = size_t{1} << 16;

  explicit ProbeThreads(int threads, Tracer* tracer) : tallies(threads) {
    for (int t = 0; t < threads; ++t) {
      samples.emplace_back(kSamplesPerThread, t + 1);
      logs.push_back(tracer->NewLog());
    }
  }

  std::vector<double> Merged() const { return MergedValues(samples); }
  uint64_t count() const {
    uint64_t n = 0;
    for (const Reservoir& r : samples) n += r.seen();
    return n;
  }
  void MergeInto(RunReport* report) const {
    for (const Tally& tally : tallies) tally.MergeInto(report);
  }

  std::vector<Reservoir> samples;
  std::vector<Tally> tallies;
  std::vector<SpanLog*> logs;
};

std::string Note(const char* what, uint64_t n, int threads) {
  return std::string(what) + " of n=" + std::to_string(n) + ", " +
         std::to_string(threads) + " caller(s)";
}

const BoostResult* Reference(const Fixture& f, size_t k, SolveMode mode) {
  auto it = f.reference.find({k, mode});
  return it == f.reference.end() ? nullptr : &it->second;
}

class Prober {
 public:
  Prober(Fixture* fixture, const RunOptions& options, double slice_s,
         Tracer* tracer, RunReport* report)
      : f_(*fixture),
        options_(options),
        slice_s_(slice_s),
        tracer_(tracer),
        report_(report),
        log_(tracer->NewLog()),
        session_(fixture->pool.owned->GetPool(kPoolName)),
        collection_(session_->engine().collection()),
        pool_threads_(session_->options().num_threads) {}

  /// net: client round trip, and round trip minus the server's solve time.
  void Net(int clients) {
    ScopedSpan probe(log_, "probe.net");
    ProbeThreads pt(clients, tracer_);
    // Round trip minus solve_seconds, per client.
    std::vector<Reservoir> overhead;
    for (int t = 0; t < clients; ++t) {
      overhead.emplace_back(ProbeThreads::kSamplesPerThread, 100 + t);
    }
    const size_t n = f_.stream.size();
    ClosedLoop(clients, slice_s_, [&](int t, uint64_t i) {
      const StreamQuery& q = f_.stream[i % n];
      kboost::WireQuery query;
      query.pool = kPoolName;
      query.k = q.k;
      query.mode = q.mode;
      const int64_t start = NowNanos();
      StatusOr<kboost::WireQueryReply> reply = [&] {
        ScopedSpan span(pt.logs[t], "net.query", probe.id(), i);
        return f_.clients[t]->Query(query);
      }();
      const double us = MicrosSince(start);
      pt.tallies[t].Record(CheckReply(reply, f_, q));
      pt.samples[t].Add(us);
      if (reply.ok()) overhead[t].Add(us - reply->solve_seconds * 1e6);
    });
    pt.MergeInto(report_);
    const std::string suffix = clients == 1 ? ".c1" : "";
    if (clients != 1) {
      report_->Add("net.query_us", Median(pt.Merged()), "us",
                   Note("p50", pt.count(), clients));
    }
    report_->Add("net.overhead_us" + suffix, Median(MergedValues(overhead)),
                 "us",
                 Note("p50 of round trip minus solve_seconds", pt.count(),
                      clients));
  }

  /// serve: BoostService::Solve minus BoostSession::Solve on the same
  /// query, back to back on each caller.
  void ServeOverhead() {
    ScopedSpan probe(log_, "probe.serve");
    ProbeThreads pt(kClients, tracer_);
    std::vector<kboost::SolveContext> service_ctx(kClients);
    std::vector<kboost::SolveContext> session_ctx(kClients);
    const size_t n = f_.stream.size();
    ClosedLoop(kClients, slice_s_, [&](int t, uint64_t i) {
      const StreamQuery& q = f_.stream[i % n];
      const BoostResult* want = Reference(f_, q.k, q.mode);
      kboost::BoostRequest request;
      request.pool = kPoolName;
      request.k = q.k;
      request.mode = q.mode;
      int64_t start = NowNanos();
      auto response = [&] {
        ScopedSpan span(pt.logs[t], "serve.solve", probe.id(), i);
        return f_.pool.owned->Solve(request, &service_ctx[t]);
      }();
      const double service_us = MicrosSince(start);
      kboost::SolveSpec spec;
      spec.k = q.k;
      spec.mode = q.mode;
      start = NowNanos();
      auto answer = [&] {
        ScopedSpan span(pt.logs[t], "core.solve", probe.id(), i);
        return session_->Solve(spec, &session_ctx[t]);
      }();
      const double session_us = MicrosSince(start);
      pt.samples[t].Add(service_us - session_us);
      pt.tallies[t].Record(response.ok() && want != nullptr &&
                                   SameAnswer(response->result, *want)
                               ? ""
                               : "serve probe: BoostService answer differs");
      pt.tallies[t].Record(answer.ok() && want != nullptr &&
                                   SameAnswer(*answer, *want)
                               ? ""
                               : "serve probe: BoostSession answer differs");
    });
    pt.MergeInto(report_);
    report_->Add("serve.overhead_us", Median(pt.Merged()), "us",
                 Note("p50 of paired differences", pt.count(), kClients));
  }

  /// serve: BoostService::Solve with kLbOnly.
  void ServeLb() {
    ScopedSpan probe(log_, "probe.serve_lb");
    ProbeThreads pt(1, tracer_);
    kboost::SolveContext context;
    const size_t n = f_.stream.size();
    ClosedLoop(1, slice_s_, [&](int t, uint64_t i) {
      const size_t k = f_.stream[i % n].k;
      kboost::BoostRequest request;
      request.pool = kPoolName;
      request.k = k;
      request.mode = SolveMode::kLbOnly;
      const int64_t start = NowNanos();
      auto response = [&] {
        ScopedSpan span(pt.logs[t], "serve.solve", probe.id(), i);
        return f_.pool.owned->Solve(request, &context);
      }();
      pt.samples[t].Add(MicrosSince(start));
      const BoostResult* want = Reference(f_, k, SolveMode::kLbOnly);
      pt.tallies[t].Record(response.ok() && want != nullptr &&
                                   SameAnswer(response->result, *want)
                               ? ""
                               : "serve probe: LB answer differs");
    });
    pt.MergeInto(report_);
    report_->Add("serve.solve_us.lb", Median(pt.Merged()), "us",
                 Note("p50", pt.count(), 1));
  }

  /// core: BoostSession::Solve in kAuto, each caller with its own context.
  void CoreSolve(int callers) {
    ScopedSpan probe(log_, "probe.core");
    ProbeThreads pt(callers, tracer_);
    std::vector<kboost::SolveContext> contexts(callers);
    const size_t n = f_.stream.size();
    ClosedLoop(callers, slice_s_, [&](int t, uint64_t i) {
      const size_t k = f_.stream[i % n].k;
      kboost::SolveSpec spec;
      spec.k = k;
      spec.mode = SolveMode::kAuto;
      const int64_t start = NowNanos();
      auto answer = [&] {
        ScopedSpan span(pt.logs[t], "core.solve", probe.id(), i);
        return session_->Solve(spec, &contexts[t]);
      }();
      pt.samples[t].Add(MicrosSince(start));
      const BoostResult* want = Reference(f_, k, SolveMode::kAuto);
      pt.tallies[t].Record(answer.ok() && want != nullptr &&
                                   SameAnswer(*answer, *want)
                               ? ""
                               : "core probe: answer differs");
    });
    pt.MergeInto(report_);
    report_->Add(callers == 1 ? "core.solve_us.c1" : "core.solve_us",
                 Median(pt.Merged()), "us", Note("p50", pt.count(), callers));
  }

  /// core: Δ̂ of the stream's LB prefixes at the pool's thread count.
  void EstimateDelta() {
    ScopedSpan probe(log_, "probe.estimate_delta");
    ProbeThreads pt(1, tracer_);
    const size_t n = f_.stream.size();
    ClosedLoop(1, slice_s_, [&](int t, uint64_t i) {
      const BoostResult* want =
          Reference(f_, f_.stream[i % n].k, SolveMode::kAuto);
      if (want == nullptr) {
        pt.tallies[t].Record("estimate probe: no reference");
        return;
      }
      const int64_t start = NowNanos();
      const double delta = [&] {
        ScopedSpan span(pt.logs[t], "core.estimate_delta", probe.id(), i);
        return collection_.EstimateDelta(want->lb_set, pool_threads_);
      }();
      pt.samples[t].Add(MicrosSince(start));
      pt.tallies[t].Record(delta == want->lb_delta_hat
                               ? ""
                               : "estimate probe: Δ̂ of the LB set differs");
    });
    pt.MergeInto(report_);
    report_->Add("core.estimate_delta_us", Median(pt.Merged()), "us",
                 Note("p50", pt.count(), 1));
  }

  /// select: the Δ̂ greedy with the caller's own eval state, at the pool's
  /// thread count or serially.
  void DeltaGreedy(bool serial) {
    const int num_threads = serial ? 1 : pool_threads_;
    ScopedSpan probe(log_, "probe.delta_greedy");
    ProbeThreads pt(1, tracer_);
    kboost::ShardedEvalState state;
    const size_t n = f_.stream.size();
    ClosedLoop(1, slice_s_, [&](int t, uint64_t i) {
      const size_t k = f_.stream[i % n].k;
      const int64_t start = NowNanos();
      auto picked = [&] {
        ScopedSpan span(pt.logs[t], "select.delta_greedy", probe.id(), i);
        return collection_.SelectGreedyDelta(k, f_.instance.excluded,
                                             num_threads, &state);
      }();
      pt.samples[t].Add(MicrosSince(start));
      const BoostResult* want = Reference(f_, k, SolveMode::kAuto);
      pt.tallies[t].Record(want != nullptr && picked.nodes == want->delta_set &&
                                   picked.delta_hat == want->delta_delta_hat
                               ? ""
                               : "select probe: Δ̂ greedy set differs");
    });
    pt.MergeInto(report_);
    report_->Add(serial ? "select.delta_greedy_us.t1"
                                  : "select.delta_greedy_us",
                 Median(pt.Merged()), "us",
                 Note("p50", pt.count(), 1) + ", " +
                     std::to_string(num_threads) + " thread(s)");
  }

  /// util: an empty ParallelFor over nproc items on nproc threads — the
  /// fork-join cost paid per pick and per EstimateDelta.
  void ForkJoin(int callers) {
    ScopedSpan probe(log_, "probe.fork_join");
    ProbeThreads pt(callers, tracer_);
    const int threads = kboost::DefaultThreadCount();
    ClosedLoop(callers, slice_s_, [&](int t, uint64_t i) {
      const int64_t start = NowNanos();
      {
        ScopedSpan span(pt.logs[t], "util.parallel_for", probe.id(), i);
        // Chunk 1: with the default chunk, nproc items clamp to one thread
        // and run inline, which would time no fork-join at all.
        kboost::ParallelFor(static_cast<size_t>(threads), threads,
                            [](size_t, int) {}, /*chunk=*/1);
      }
      pt.samples[t].Add(MicrosSince(start));
    });
    report_->Add(callers == 1 ? "util.fork_join_us" : "util.fork_join_us.c4",
                 Median(pt.Merged()), "us", Note("p50", pt.count(), callers));
  }

  /// core and select: one pool build split at its public seams — sampling,
  /// index warm-up, the LB greedy order — then Prepare for the rest.
  void SplitBuild() {
    ScopedSpan probe(log_, "probe.split_build");
    kboost::BoostOptions options;
    options.k = kMaxBudget;
    auto session = kboost::BoostSession::Create(f_.instance.dataset.graph,
                                                f_.instance.seeds, options);
    if (!session.ok()) {
      report_->Fail("split build: " + session.status().ToString());
      return;
    }
    kboost::PrrBoostEngine& engine = (*session)->engine();
    int64_t start = NowNanos();
    {
      ScopedSpan span(log_, "core.sample", probe.id());
      engine.EnsureSampled();
    }
    report_->Add("core.sample_s", MicrosSince(start) / 1e6, "s",
                 "one EnsureSampled");
    start = NowNanos();
    {
      ScopedSpan span(log_, "core.warm_indexes", probe.id());
      engine.collection().WarmIndexes(options.num_threads);
    }
    report_->Add("core.warm_indexes_s", MicrosSince(start) / 1e6, "s",
                 "one WarmIndexes");
    start = NowNanos();
    {
      ScopedSpan span(log_, "select.lb_order", probe.id());
      engine.collection().SelectGreedyLowerBound(kMaxBudget,
                                                 f_.instance.excluded);
    }
    report_->Add("select.lb_order_ms", MicrosSince(start) / 1e3, "ms",
                 "one SelectGreedyLowerBound(k_max)");
    (*session)->Prepare();
    ++report_->attempted;
    if (engine.collection().num_samples() != collection_.num_samples()) {
      report_->Fail("split build: pool differs from the served pool");
    }
  }

  /// io: the snapshot loaded without a service, owned and mmap, three
  /// times each. (The save is timed in every pool cycle: io.save_ms.)
  void SnapshotIo() {
    ScopedSpan probe(log_, "probe.io");
    const std::string path = options_.out_dir + "/probe-" +
                             std::to_string(getpid()) + ".snap";
    auto saved = kboost::SavePoolSnapshot(*f_.pool.built, path,
                                          kboost::PoolSaveOptions{});
    if (!saved.ok()) {
      report_->Fail("io probe save: " + saved.status().ToString());
      return;
    }
    std::vector<double> load_ms, mmap_ms;
    for (int rep = 0; rep < 3; ++rep) {
      for (bool mmap : {false, true}) {
        const int64_t start = NowNanos();
        auto loaded = [&] {
          ScopedSpan span(log_, mmap ? "io.mmap" : "io.load", probe.id(), rep);
          kboost::PoolLoadOptions load;
          load.use_mmap = mmap;
          return kboost::LoadPoolSnapshot(f_.instance.dataset.graph, path,
                                          load);
        }();
        (mmap ? mmap_ms : load_ms).push_back(MicrosSince(start) / 1e3);
        ++report_->attempted;
        if (!loaded.ok() || !(*loaded)->prepared() ||
            (*loaded)->engine().collection().num_samples() !=
                collection_.num_samples()) {
          report_->Fail("io probe: reloaded pool differs");
        }
      }
    }
    std::remove(path.c_str());
    report_->Add("io.load_ms", Median(load_ms), "ms",
                 "median of " + std::to_string(load_ms.size()));
    report_->Add("io.mmap_ms", Median(mmap_ms), "ms",
                 "median of " + std::to_string(mmap_ms.size()));
    report_->Add("io.snapshot_bytes", static_cast<double>(saved->file_bytes),
                 "bytes", "PoolSaveResult::file_bytes");
  }

  /// core: exact pool counts.
  void PoolCounts() {
    const double theta = static_cast<double>(collection_.num_samples());
    const double boostable = static_cast<double>(collection_.num_boostable());
    report_->Add("core.theta", theta, "count", "num_samples()");
    report_->Add("core.boostable", boostable, "count", "num_boostable()");
    report_->Add("core.boostable_share", theta > 0 ? boostable / theta : 0.0,
                 "fraction", "useful samples per attempt");
    report_->Add("core.stored_graph_bytes",
                 static_cast<double>(collection_.StoredGraphBytes()), "bytes",
                 "StoredGraphBytes()");
  }

 private:
  Fixture& f_;
  const RunOptions& options_;
  const double slice_s_;
  Tracer* tracer_;
  RunReport* report_;
  SpanLog* log_;
  std::shared_ptr<const kboost::BoostSession> session_;
  const kboost::PrrCollection& collection_;
  const int pool_threads_;
};

}  // namespace

void RunProbes(Fixture* fixture, const RunOptions& options, double seconds,
               Tracer* tracer, RunReport* report) {
  ComputeReference(fixture);
  if (fixture->server == nullptr) {
    const kboost::Status started = StartServer(fixture, kClients);
    if (!started.ok()) {
      report->Fail("probe server: " + started.ToString());
      return;
    }
  }
  // Eleven timed probes share the budget; the split build and the snapshot
  // probe do a fixed amount of work.
  Prober prober(fixture, options, std::max(0.05, seconds / 11.0), tracer,
                report);
  prober.Net(kClients);
  prober.Net(1);
  prober.ServeOverhead();
  prober.ServeLb();
  prober.CoreSolve(kClients);
  prober.CoreSolve(1);
  prober.EstimateDelta();
  prober.DeltaGreedy(false);
  prober.DeltaGreedy(true);
  prober.ForkJoin(1);
  prober.ForkJoin(kClients);
  prober.SplitBuild();
  prober.SnapshotIo();
  prober.PoolCounts();
}

}  // namespace kbench
