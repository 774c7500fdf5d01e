// Measures the serving layer's claim to exist: one pool prepared once inside
// a BoostService answering a mixed (k, mode) query stream from 1, 2 and 4
// concurrent client threads. Each request runs its selection single-worker,
// so the client count is the only concurrency variable; throughput should
// scale with clients on a multi-core box (on a 1-core CI container the
// clients time-slice one core and the ratio stays ≈1×).
//
// Every concurrent answer is compared bit-identically against a serial
// reference pass — the process ABORTS on divergence, which is what makes
// this bench double as the CI regression gate for the concurrent serving
// path (like bench_micro_eval does for the incremental engine). A
// refresh-under-load scenario hot-swaps the pool (RefreshPool) beneath 4
// live client threads and aborts on any NotFound, divergence or version
// regression; a final mmap warm-swap scenario snapshots the live pool to a
// v3 file and RefreshPoolFromSnapshot-s it back in as a ZERO-COPY mmap-served
// pool (the service runs with Options::mmap_pools = true) under the same
// 4-client load and gates — plus an assert that the snapshot really is
// mapped into the process.
//
// With --json=BENCH_serve.json the throughput per client count and the
// 4-vs-1 ratio are recorded in the BENCH_*.json shape.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_flags.h"
#include "src/core/boost_session.h"
#include "src/expt/table_printer.h"
#include "src/io/pool_io.h"
#include "src/serve/boost_service.h"
#include "src/util/timer.h"

namespace {

using namespace kboost;

bool SameAnswer(const BoostResult& a, const BoostResult& b) {
  return a.best_set == b.best_set && a.best_estimate == b.best_estimate &&
         a.lb_set == b.lb_set && a.lb_mu_hat == b.lb_mu_hat &&
         a.delta_set == b.delta_set && a.delta_delta_hat == b.delta_delta_hat;
}

/// True when `path` is mapped into this process. Owned and mmap loads both
/// bind their arenas over snapshot bytes, so the mapping itself is what
/// tells an mmap-served pool from a private copy.
bool FileIsMapped(const std::string& path) {
  std::error_code error;
  const std::string canonical = std::filesystem::canonical(path, error);
  if (error) return false;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    if (line.ends_with(canonical)) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  PrintBanner(
      "Concurrent serving: BoostService query throughput at 1/2/4 clients",
      "one immutable prepared pool serves all clients; aggregate throughput "
      "scales with client count on multi-core hardware, and every answer is "
      "bit-identical to the serial loop",
      flags);

  std::vector<size_t> sweep =
      flags.ks.empty() ? std::vector<size_t>{1, 10, 50, 100} : flags.ks;
  const size_t k_max = *std::max_element(sweep.begin(), sweep.end());

  BenchInstance instance = LoadInstance("digg", SeedMode::kInfluential, flags);
  const DirectedGraph& g = instance.dataset.graph;

  // mmap_pools routes every snapshot load (the mmap warm-swap scenario at
  // the end) through the zero-copy v3 path; directly AddPool-ed sessions
  // are unaffected.
  BoostService::Options service_options;
  service_options.mmap_pools = true;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  BoostService& service = **service_or;

  WallTimer prepare_timer;
  // The served pool is SHARDED (S = 4): sampling, index warm-up and the
  // later snapshot-free rebuild all fan out over 4 arenas, and every answer
  // below must still be bit-identical to the serial reference.
  BoostOptions pool_options = MakeBoostOptions(k_max, flags);
  pool_options.num_shards = 4;
  StatusOr<std::unique_ptr<BoostSession>> session =
      BoostSession::Create(g, instance.seeds, pool_options);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  if (Status s = service.AddPool("digg", std::move(*session)); !s.ok()) {
    std::fprintf(stderr, "add pool: %s\n", s.ToString().c_str());
    return 1;
  }
  const double prepare_s = prepare_timer.Seconds();
  size_t theta = 0;
  size_t num_shards = 0;
  std::vector<size_t> shard_graphs;
  {
    // Snapshot the shard layout now — the refresh below swaps this session
    // out, so the reference must not be held across it.
    const PrrCollection& pool = service.GetPool("digg")->engine().collection();
    theta = pool.num_samples();
    num_shards = pool.num_shards();
    for (size_t s = 0; s < num_shards; ++s) {
      shard_graphs.push_back(pool.shard_store(s).num_graphs());
    }
  }
  std::printf("pool prepared once: theta=%zu, shards=%zu, %.3fs\n", theta,
              num_shards, prepare_s);
  std::printf("per-shard stored graphs:");
  for (size_t count : shard_graphs) std::printf(" %zu", count);
  std::printf("\n\n");

  // The query stream: budgets cycle the sweep, every other query downgrades
  // to the O(k) cached-order answer — the cheap/expensive mix a real serving
  // tier sees. Selection runs single-worker per request (see header).
  const size_t num_queries = 64 * sweep.size();
  std::vector<BoostRequest> requests(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    requests[i].pool = "digg";
    requests[i].k = sweep[i % sweep.size()];
    requests[i].mode = i % 2 == 1 ? SolveMode::kLbOnly : SolveMode::kAuto;
    requests[i].num_threads = 1;
  }

  // Serial reference: the bits every concurrent answer must reproduce.
  std::vector<BoostResult> reference(num_queries);
  {
    SolveContext context;
    for (size_t i = 0; i < num_queries; ++i) {
      StatusOr<BoostResponse> r = service.Solve(requests[i], &context);
      if (!r.ok()) {
        std::fprintf(stderr, "serial query %zu: %s\n", i,
                     r.status().ToString().c_str());
        return 1;
      }
      reference[i] = std::move(*r).result;
    }
  }

  TablePrinter table({"clients", "queries/s", "wall_s", "vs_1_client"});
  BenchJsonWriter json;
  double qps_1 = 0.0;
  for (size_t clients : {1u, 2u, 4u}) {
    std::atomic<size_t> mismatches{0};
    WallTimer timer;
    std::vector<std::thread> workers;
    workers.reserve(clients);
    for (size_t t = 0; t < clients; ++t) {
      workers.emplace_back([&, t] {
        SolveContext context;
        for (size_t i = t; i < num_queries; i += clients) {
          StatusOr<BoostResponse> r = service.Solve(requests[i], &context);
          if (!r.ok() || !SameAnswer(r.value().result, reference[i])) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double secs = timer.Seconds();
    const double qps = static_cast<double>(num_queries) / secs;
    if (clients == 1) qps_1 = qps;
    if (mismatches.load() != 0) {
      // Divergence is a correctness bug, never noise: make CI fail loudly.
      std::fprintf(stderr,
                   "FATAL: %zu of %zu concurrent answers diverged from the "
                   "serial reference at %zu clients\n",
                   mismatches.load(), num_queries, clients);
      std::abort();
    }
    table.AddRow({std::to_string(clients), FormatDouble(qps),
                  FormatDouble(secs), FormatDouble(qps / qps_1) + "x"});
    json.Add("serve/qps_clients_" + std::to_string(clients), qps,
             "queries/s");
    if (clients == 4) json.Add("serve/speedup_c4_vs_c1", qps / qps_1, "x");
  }
  table.Print(std::cout);
  std::printf("\nall %zu queries x {1,2,4} clients bit-identical to the "
              "serial reference\n",
              num_queries);

  // Refresh-under-load: 4 client threads hammer the pool while the main
  // thread rebuilds a session and hot-swaps it in via RefreshPool. The
  // replacement samples with the same rng seed but a DIFFERENT shard count
  // (S = 1 vs the served pool's S = 4), so its answers are bit-identical to
  // the original pool's if and only if the shard partition is truly
  // invisible — every answer, before or after the swap, must still match
  // the serial reference, and the pool name must never come back NotFound.
  // Both violations ABORT, making this the CI regression gate for the
  // hot-swap path AND the sharding determinism guarantee under live load.
  {
    const uint64_t version_before = service.PoolVersion("digg");
    std::atomic<bool> stop{false};
    std::atomic<size_t> refresh_errors{0};
    std::atomic<size_t> refresh_mismatches{0};
    std::atomic<size_t> refresh_queries{0};
    WallTimer refresh_timer;
    std::vector<std::thread> clients;
    for (size_t t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        SolveContext context;
        // Each client cycles the WHOLE mixed stream (phase-shifted per
        // thread), so cheap LB slices and heavy full-mode solves both hit
        // the pool while it is being swapped.
        size_t i = t * (num_queries / 4);
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t q = i % num_queries;
          StatusOr<BoostResponse> r = service.Solve(requests[q], &context);
          if (!r.ok()) {
            refresh_errors.fetch_add(1, std::memory_order_relaxed);
          } else if (!SameAnswer(r.value().result, reference[q])) {
            refresh_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          refresh_queries.fetch_add(1, std::memory_order_relaxed);
          ++i;
        }
      });
    }
    WallTimer rebuild_timer;
    BoostOptions replacement_options = MakeBoostOptions(k_max, flags);
    replacement_options.num_shards = 1;  // monolithic — must answer the same
    StatusOr<std::unique_ptr<BoostSession>> replacement =
        BoostSession::Create(g, instance.seeds, replacement_options);
    if (!replacement.ok()) {
      std::fprintf(stderr, "refresh session: %s\n",
                   replacement.status().ToString().c_str());
      std::abort();
    }
    if (Status s = service.RefreshPool("digg", std::move(*replacement));
        !s.ok()) {
      std::fprintf(stderr, "refresh: %s\n", s.ToString().c_str());
      std::abort();
    }
    const double rebuild_s = rebuild_timer.Seconds();
    // One more full pass of load against the swapped-in pool before the
    // clients stop, so post-swap answers are exercised under concurrency.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (std::thread& c : clients) c.join();
    const double refresh_s = refresh_timer.Seconds();
    const uint64_t version_after = service.PoolVersion("digg");
    if (refresh_errors.load() != 0 || refresh_mismatches.load() != 0 ||
        version_after <= version_before) {
      std::fprintf(stderr,
                   "FATAL: refresh-under-load: %zu errors (NotFound during a "
                   "refresh would land here), %zu divergent answers, version "
                   "%llu -> %llu\n",
                   refresh_errors.load(), refresh_mismatches.load(),
                   static_cast<unsigned long long>(version_before),
                   static_cast<unsigned long long>(version_after));
      std::abort();
    }
    // Post-swap serial pass: the swapped-in pool must answer bit-identically
    // to the original (same options, same rng seed -> same bits).
    {
      SolveContext context;
      for (size_t i = 0; i < num_queries; ++i) {
        StatusOr<BoostResponse> r = service.Solve(requests[i], &context);
        if (!r.ok() || !SameAnswer(r.value().result, reference[i])) {
          std::fprintf(stderr,
                       "FATAL: post-swap answer %zu diverged from the "
                       "fresh-build reference\n",
                       i);
          std::abort();
        }
        if (r.value().pool_version != version_after) {
          std::fprintf(stderr,
                       "FATAL: post-swap answer %zu stamped version %llu, "
                       "expected %llu\n",
                       i,
                       static_cast<unsigned long long>(r.value().pool_version),
                       static_cast<unsigned long long>(version_after));
          std::abort();
        }
      }
    }
    const double refresh_qps =
        static_cast<double>(refresh_queries.load()) / refresh_s;
    std::printf("\nrefresh under load: %zu queries from 4 clients during a "
                "%.3fs rebuild+swap (%.1f q/s), 0 errors, 0 divergent, "
                "version %llu -> %llu\n",
                refresh_queries.load(), refresh_s, refresh_qps,
                static_cast<unsigned long long>(version_before),
                static_cast<unsigned long long>(version_after));
    json.Add("serve/refresh_under_load_qps", refresh_qps, "queries/s");
    json.Add("serve/refresh_under_load_queries",
             static_cast<double>(refresh_queries.load()), "queries");
    json.Add("serve/refresh_rebuild_s", rebuild_s, "s");
  }

  // Mmap warm-swap under load: snapshot the live pool to a v3 file, then
  // RefreshPoolFromSnapshot it back in beneath the same 4-client load. With
  // mmap_pools = true the swapped-in session serves its arenas zero-copy
  // straight out of the mapped file, so this gates the whole mmap lifecycle
  // under concurrency: load → hot-swap → queries on mapped memory → retired
  // pool teardown, with the usual bit-identity / NotFound / version aborts,
  // plus an assert that the snapshot really is mapped into the process.
  {
    const std::string snapshot_path =
        (std::filesystem::temp_directory_path() / "kboost_serve_mmap.bin")
            .string();
    {
      std::shared_ptr<const BoostSession> current = service.GetPool("digg");
      StatusOr<PoolSaveResult> saved =
          SavePoolSnapshot(*current, snapshot_path, PoolSaveOptions());
      if (!saved.ok()) {
        std::fprintf(stderr, "mmap-swap save: %s\n",
                     saved.status().ToString().c_str());
        std::abort();
      }
      std::printf("\nmmap warm-swap: saved v3 snapshot (%llu bytes, "
                  "%.2f B/sample)\n",
                  static_cast<unsigned long long>(saved->file_bytes),
                  saved->bytes_per_sample);
    }
    const uint64_t version_before = service.PoolVersion("digg");
    std::atomic<bool> stop{false};
    std::atomic<size_t> swap_errors{0};
    std::atomic<size_t> swap_mismatches{0};
    std::atomic<size_t> swap_queries{0};
    std::vector<std::thread> clients;
    for (size_t t = 0; t < 4; ++t) {
      clients.emplace_back([&, t] {
        SolveContext context;
        size_t i = t * (num_queries / 4);
        while (!stop.load(std::memory_order_relaxed)) {
          const size_t q = i % num_queries;
          StatusOr<BoostResponse> r = service.Solve(requests[q], &context);
          if (!r.ok()) {
            swap_errors.fetch_add(1, std::memory_order_relaxed);
          } else if (!SameAnswer(r.value().result, reference[q])) {
            swap_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          swap_queries.fetch_add(1, std::memory_order_relaxed);
          ++i;
        }
      });
    }
    WallTimer swap_timer;
    if (Status s = service.RefreshPoolFromSnapshot("digg", snapshot_path);
        !s.ok()) {
      std::fprintf(stderr, "mmap-swap refresh: %s\n", s.ToString().c_str());
      std::abort();
    }
    const double swap_s = swap_timer.Seconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
    for (std::thread& c : clients) c.join();
    const uint64_t version_after = service.PoolVersion("digg");
    if (swap_errors.load() != 0 || swap_mismatches.load() != 0 ||
        version_after <= version_before) {
      std::fprintf(stderr,
                   "FATAL: mmap warm-swap under load: %zu errors, %zu "
                   "divergent answers, version %llu -> %llu\n",
                   swap_errors.load(), swap_mismatches.load(),
                   static_cast<unsigned long long>(version_before),
                   static_cast<unsigned long long>(version_after));
      std::abort();
    }
    // The swapped-in pool must actually be served from the mapping.
    if (!FileIsMapped(snapshot_path)) {
      std::fprintf(stderr,
                   "FATAL: mmap warm-swap installed a private copy — the "
                   "mapped path was bypassed\n");
      std::abort();
    }
    // Post-swap serial pass: every answer off the mapped arenas must still
    // be bit-identical (and stamped with the new version).
    {
      SolveContext context;
      for (size_t i = 0; i < num_queries; ++i) {
        StatusOr<BoostResponse> r = service.Solve(requests[i], &context);
        if (!r.ok() || !SameAnswer(r.value().result, reference[i])) {
          std::fprintf(stderr,
                       "FATAL: post-mmap-swap answer %zu diverged from the "
                       "reference\n",
                       i);
          std::abort();
        }
        if (r.value().pool_version != version_after) {
          std::fprintf(stderr,
                       "FATAL: post-mmap-swap answer %zu stamped version "
                       "%llu, expected %llu\n",
                       i,
                       static_cast<unsigned long long>(r.value().pool_version),
                       static_cast<unsigned long long>(version_after));
          std::abort();
        }
      }
    }
    std::printf("mmap warm-swap under load: %zu queries from 4 clients, "
                "swap %.3fs, 0 errors, 0 divergent, snapshot mapped, "
                "version %llu -> %llu\n",
                swap_queries.load(), swap_s,
                static_cast<unsigned long long>(version_before),
                static_cast<unsigned long long>(version_after));
    json.Add("serve/mmap_swap_s", swap_s, "s");
    json.Add("serve/mmap_swap_queries",
             static_cast<double>(swap_queries.load()), "queries");
    std::filesystem::remove(snapshot_path);
  }

  // Service metrics over everything this bench issued. last_rebuild_ms is
  // the refresh replacement's Prepare() wall time as the service measured it.
  const ServiceStatsSnapshot stats = service.Stats();
  for (const PoolStatsSnapshot& ps : stats.pools) {
    std::printf("service stats: pool '%s' v%llu, %llu queries, %llu errors, "
                "latency ms mean/p50/p95/ewma = %.3f/%.3f/%.3f/%.3f, "
                "last rebuild %.1f ms\n",
                ps.pool.c_str(), static_cast<unsigned long long>(ps.version),
                static_cast<unsigned long long>(ps.queries),
                static_cast<unsigned long long>(ps.errors), ps.latency_mean_ms,
                ps.latency_p50_ms, ps.latency_p95_ms, ps.latency_ewma_ms,
                ps.last_rebuild_ms);
    std::printf("service stats: pool '%s' overload counters: %llu shed, "
                "%llu deadline misses, %llu degraded, %llu load retries\n",
                ps.pool.c_str(), static_cast<unsigned long long>(ps.shed),
                static_cast<unsigned long long>(ps.deadline_misses),
                static_cast<unsigned long long>(ps.degraded),
                static_cast<unsigned long long>(ps.load_retries));
    json.Add("serve/latency_p50_ms", ps.latency_p50_ms, "ms");
    json.Add("serve/latency_p95_ms", ps.latency_p95_ms, "ms");
    json.Add("serve/latency_ewma_ms", ps.latency_ewma_ms, "ms");
    json.Add("serve/last_rebuild_ms", ps.last_rebuild_ms, "ms");
    json.Add("serve/shed", static_cast<double>(ps.shed), "requests");
    json.Add("serve/deadline_misses",
             static_cast<double>(ps.deadline_misses), "requests");
    json.Add("serve/degraded", static_cast<double>(ps.degraded), "requests");
    json.Add("serve/load_retries", static_cast<double>(ps.load_retries),
             "retries");
  }
  // This bench never configures admission limits, so the gates double as a
  // no-regression check: unlimited admission must shed nothing, time nothing
  // out, and leave no slot held after the last query drains.
  if (stats.shed != 0 || stats.queue_timeouts != 0 || stats.in_flight != 0 ||
      stats.queued != 0) {
    std::fprintf(stderr,
                 "FATAL: unlimited admission recorded shed=%llu "
                 "timeouts=%llu or leaked slots (in_flight=%llu "
                 "queued=%llu)\n",
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.queue_timeouts),
                 static_cast<unsigned long long>(stats.in_flight),
                 static_cast<unsigned long long>(stats.queued));
    std::abort();
  }
  json.Add("serve/admitted", static_cast<double>(stats.admitted),
           "requests");

  json.Add("serve/prepare_s", prepare_s, "s");
  json.Add("serve/theta", static_cast<double>(theta), "samples");
  json.Add("serve/num_shards", static_cast<double>(num_shards), "shards");
  for (size_t s = 0; s < shard_graphs.size(); ++s) {
    json.Add("serve/shard_" + std::to_string(s) + "_graphs",
             static_cast<double>(shard_graphs[s]), "graphs");
  }
  json.Add("serve/queries", static_cast<double>(num_queries), "queries");
  json.WriteTo(flags.json_path);
  return 0;
}
