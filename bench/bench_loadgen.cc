// Multi-client network loadgen and CI gate for the kboostd serving
// front-end: C concurrent KboostClient connections replay a mixed query
// stream (budget sweep x all three solve modes) against a KboostServer and
// the wire contract is enforced with aborts, not warnings:
//
//   - every reply received over the socket is BIT-IDENTICAL to the
//     in-process Solve reference for the same request (doubles travel as
//     IEEE-754 bit patterns, so exact == is the gate);
//   - every non-OK outcome crosses the wire as a typed frame — a deadline
//     miss (DeadlineExceeded) here, and a shed (ResourceExhausted) or drain
//     reject (Unavailable) wherever one occurs — with zero untyped errors
//     and zero dropped connections;
//   - a REFRESH hot-swap mid-storm bumps the pool version without changing
//     a single answer;
//   - when a storm drains, the service's admission gauges read empty and
//     the server has no leaked connections or protocol errors.
//
// By default the harness self-hosts a KboostServer on an ephemeral loopback
// port (the same serving stack kboostd runs). With --connect=HOST:PORT it
// drives an externally started kboostd instead; then --graph= and
// --load-pool= must name the same files the daemon was started with so the
// local reference answers from identical pool bits, and --shutdown-server
// sends the SHUTDOWN admin frame when done (CI uses this to stop the
// daemon it started). Saturation qps and client-observed p50/p95/p99 land
// in BENCH_net.json via --json=.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_flags.h"
#include "src/core/boost_session.h"
#include "src/expt/table_printer.h"
#include "src/graph/graph_io.h"
#include "src/io/pool_io.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/wire.h"
#include "src/serve/boost_service.h"
#include "src/util/fault.h"
#include "src/util/parse.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace {

using namespace kboost;

// ---- Loadgen-specific flags (stripped before ParseBenchFlags) --------------

struct LoadgenConfig {
  bool external = false;       // --connect given: drive a running kboostd
  std::string host;
  uint16_t port = 0;
  std::string graph_path;      // --graph= (external mode: daemon's graph)
  std::string snapshot_path;   // --load-pool= (external mode: daemon's pool)
  std::string pool = "digg";   // --pool=
  bool shutdown_server = false;  // --shutdown-server: SHUTDOWN frame at end
};

/// Pulls the loadgen's own --connect/--graph/--load-pool/--pool/
/// --shutdown-server out of argv (compacting it in place) so the remainder
/// goes through the shared strict ParseBenchFlags unchanged.
LoadgenConfig ExtractLoadgenFlags(int* argc, char** argv) {
  LoadgenConfig config;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [&](const char* name) -> const char* {
      const size_t len = std::strlen(name);
      if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        return arg + len + 1;
      }
      return nullptr;
    };
    if (const char* v = value_of("--connect")) {
      const char* colon = std::strrchr(v, ':');
      uint64_t port64 = 0;
      if (colon == nullptr || colon == v ||
          !ParseUint64(colon + 1, "--connect port", &port64).ok() ||
          port64 == 0 || port64 > 65535) {
        std::fprintf(stderr, "error: --connect wants HOST:PORT, got '%s'\n",
                     v);
        std::exit(1);
      }
      config.external = true;
      config.host.assign(v, colon);
      config.port = static_cast<uint16_t>(port64);
    } else if (const char* v2 = value_of("--graph")) {
      config.graph_path = v2;
    } else if (const char* v3 = value_of("--load-pool")) {
      config.snapshot_path = v3;
    } else if (const char* v4 = value_of("--pool")) {
      config.pool = v4;
    } else if (std::strcmp(arg, "--shutdown-server") == 0) {
      config.shutdown_server = true;
    } else {
      argv[out++] = argv[i];
      continue;
    }
  }
  *argc = out;
  if (config.external &&
      (config.graph_path.empty() || config.snapshot_path.empty())) {
    std::fprintf(stderr,
                 "error: --connect mode needs --graph= and --load-pool= "
                 "(the same files the daemon was started with) so the "
                 "bit-identity reference answers from the same pool bits\n");
    std::exit(1);
  }
  return config;
}

// ---- Bit-identity gate -----------------------------------------------------

bool SameBits(const WireQueryReply& got, const BoostResponse& want) {
  return got.best_set == want.result.best_set &&
         got.best_estimate == want.result.best_estimate &&
         got.lb_set == want.result.lb_set &&
         got.lb_mu_hat == want.result.lb_mu_hat &&
         got.lb_delta_hat == want.result.lb_delta_hat &&
         got.delta_set == want.result.delta_set &&
         got.delta_delta_hat == want.result.delta_delta_hat &&
         got.num_samples == want.result.num_samples &&
         got.num_boostable == want.result.num_boostable &&
         got.pool_budget == static_cast<uint64_t>(want.result.pool_budget);
}

// ---- Storm driver ----------------------------------------------------------

struct NetOutcome {
  size_t answered = 0;
  size_t shed = 0;           // typed ResourceExhausted replies
  size_t deadline_missed = 0;
  size_t unavailable = 0;    // typed Unavailable replies (drain)
  size_t untyped = 0;        // transport failures or unclassifiable codes
  size_t divergent = 0;
  double wall_s = 0.0;
  std::vector<double> ok_latency_ms;
};

/// Fires `per_client` wire queries from each of `clients` connections at
/// host:port and classifies every reply against `reference` (the request's
/// own mode).
NetOutcome RunNetStorm(const std::string& host, uint16_t port,
                       const std::vector<WireQuery>& requests,
                       const std::vector<BoostResponse>& reference,
                       size_t clients, size_t per_client) {
  std::atomic<size_t> answered{0}, shed{0}, missed{0};
  std::atomic<size_t> unavailable{0}, untyped{0}, divergent{0};
  std::mutex latency_mutex;
  std::vector<double> latencies;
  std::vector<std::thread> threads;
  WallTimer storm_timer;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      StatusOr<std::unique_ptr<KboostClient>> client =
          KboostClient::Connect(host, port);
      if (!client.ok()) {
        std::fprintf(stderr, "loadgen client %zu: connect: %s\n", t,
                     client.status().ToString().c_str());
        untyped.fetch_add(per_client, std::memory_order_relaxed);
        return;
      }
      std::vector<double> local_latencies;
      for (size_t i = 0; i < per_client; ++i) {
        const size_t q = (t * per_client + i) % requests.size();
        WallTimer request_timer;
        StatusOr<WireQueryReply> r = (*client)->Query(requests[q]);
        const double latency_ms = request_timer.Seconds() * 1e3;
        if (!r.ok()) {
          // Transport-level failure: the server dropped us without a typed
          // frame. Exactly what the gate exists to catch.
          std::fprintf(stderr, "untyped transport error: %s\n",
                       r.status().ToString().c_str());
          untyped.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        const StatusCode code = r->status.code();
        if (code == StatusCode::kOk) {
          answered.fetch_add(1, std::memory_order_relaxed);
          local_latencies.push_back(latency_ms);
          if (!SameBits(*r, reference[q])) {
            divergent.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (code == StatusCode::kResourceExhausted) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (code == StatusCode::kDeadlineExceeded) {
          missed.fetch_add(1, std::memory_order_relaxed);
        } else if (code == StatusCode::kUnavailable) {
          unavailable.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::fprintf(stderr, "untyped reply status: %s\n",
                       r->status.ToString().c_str());
          untyped.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
    });
  }
  for (std::thread& w : threads) w.join();
  NetOutcome o;
  o.answered = answered.load();
  o.shed = shed.load();
  o.deadline_missed = missed.load();
  o.unavailable = unavailable.load();
  o.untyped = untyped.load();
  o.divergent = divergent.load();
  o.wall_s = storm_timer.Seconds();
  o.ok_latency_ms = std::move(latencies);
  return o;
}

/// Shared abort gate: every outcome typed, every answer bit-identical, the
/// books balanced, and the service's admission gauges empty after the storm.
void GateOrAbort(const char* scenario, const ServiceStatsSnapshot& stats,
                 const NetOutcome& o, size_t issued) {
  const size_t accounted_total = o.answered + o.shed + o.deadline_missed +
                                 o.unavailable + o.untyped;
  const bool accounted = accounted_total == issued;
  if (o.untyped != 0 || o.divergent != 0 || !accounted ||
      stats.in_flight != 0 || stats.queued != 0) {
    std::fprintf(stderr,
                 "FATAL: %s: %zu untyped errors, %zu divergent answers, "
                 "accounting %s (%zu of %zu), gauges in_flight=%llu "
                 "queued=%llu after drain\n",
                 scenario, o.untyped, o.divergent, accounted ? "ok" : "BROKEN",
                 accounted_total, issued,
                 static_cast<unsigned long long>(stats.in_flight),
                 static_cast<unsigned long long>(stats.queued));
    std::abort();
  }
}

/// Self-host only: the event loop processes client EOFs asynchronously, so
/// poll briefly for the connection gauge to reach zero, then abort on any
/// leak or protocol error. A leaked connection after every client closed
/// means a dropped-without-reply request is stuck somewhere.
void GateServerDrainedOrAbort(const char* scenario,
                              const KboostServer& server) {
  ServerCounters c = server.counters();
  for (int i = 0; i < 200 && c.active_connections != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    c = server.counters();
  }
  if (c.active_connections != 0 || c.protocol_errors != 0) {
    std::fprintf(stderr,
                 "FATAL: %s: server leaked %llu connections, %llu protocol "
                 "errors, after every client closed\n",
                 scenario,
                 static_cast<unsigned long long>(c.active_connections),
                 static_cast<unsigned long long>(c.protocol_errors));
    std::abort();
  }
}

std::vector<double> LatencyRow(BenchJsonWriter* json, const char* prefix,
                               const std::vector<double>& latencies) {
  std::vector<double> q{0.0, 0.0, 0.0};
  if (!latencies.empty()) {
    q = {Quantile(latencies, 0.50), Quantile(latencies, 0.95),
         Quantile(latencies, 0.99)};
    json->Add(std::string(prefix) + "_p50_ms", q[0], "ms");
    json->Add(std::string(prefix) + "_p95_ms", q[1], "ms");
    json->Add(std::string(prefix) + "_p99_ms", q[2], "ms");
  }
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config = ExtractLoadgenFlags(&argc, argv);
  BenchFlags flags = ParseBenchFlags(argc, argv);
  PrintBanner(
      "Loadgen: the kboostd wire protocol under C concurrent clients",
      "every socket reply is bit-identical to the in-process Solve "
      "reference; deadline misses cross the wire as typed frames; a "
      "mid-storm REFRESH keeps every answer; throughput saturates as "
      "clients grow",
      flags);
  FaultInjector::Global().DisarmAll();

  std::vector<size_t> sweep =
      flags.ks.empty() ? std::vector<size_t>{1, 10, 50} : flags.ks;
  const size_t k_max = *std::max_element(sweep.begin(), sweep.end());

  // ---- The mixed stream: budget sweep x all three solve modes ----
  constexpr SolveMode kModes[] = {SolveMode::kAuto, SolveMode::kFull,
                                  SolveMode::kLbOnly};
  const size_t num_queries = 4 * sweep.size() * 3;
  std::vector<WireQuery> requests(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    requests[i].pool = config.pool;
    requests[i].k = sweep[i % sweep.size()];
    requests[i].mode = kModes[(i / sweep.size()) % 3];
  }
  auto to_boost_request = [](const WireQuery& q) {
    BoostRequest r;
    r.pool = q.pool;
    r.k = q.k;
    r.mode = q.mode;
    r.deadline_ms = q.deadline_ms;
    return r;
  };

  // ---- The in-process reference: the same stream, solved directly ----
  // External mode loads the daemon's own graph + snapshot files so both
  // sides answer from identical bits; self-host mode builds the bench
  // instance and a fresh pool per scenario (deterministic construction).
  DirectedGraph external_graph;
  BenchInstance instance;
  if (config.external) {
    StatusOr<DirectedGraph> g = LoadEdgeList(config.graph_path);
    if (!g.ok()) {
      std::fprintf(stderr, "--graph=%s: %s\n", config.graph_path.c_str(),
                   g.status().ToString().c_str());
      return 1;
    }
    external_graph = std::move(g).value();
  } else {
    instance = LoadInstance("digg", SeedMode::kInfluential, flags);
  }
  const DirectedGraph& g =
      config.external ? external_graph : instance.dataset.graph;

  auto make_pool = [&]() -> std::unique_ptr<BoostSession> {
    StatusOr<std::unique_ptr<BoostSession>> session =
        config.external
            ? LoadPoolSnapshot(g, config.snapshot_path, PoolLoadOptions{})
            : BoostSession::Create(g, instance.seeds,
                                   MakeBoostOptions(k_max, flags));
    if (!session.ok()) {
      std::fprintf(stderr, "pool: %s\n", session.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(session).value();
  };

  std::vector<BoostResponse> reference(num_queries);
  std::unique_ptr<BoostService> calm;
  {
    StatusOr<std::unique_ptr<BoostService>> calm_or = BoostService::Create(g);
    if (!calm_or.ok() ||
        !(*calm_or)->AddPool(config.pool, make_pool()).ok()) {
      std::fprintf(stderr, "reference service construction failed\n");
      return 1;
    }
    calm = std::move(calm_or).value();
    for (size_t i = 0; i < num_queries; ++i) {
      StatusOr<BoostResponse> own = calm->Solve(to_boost_request(requests[i]));
      if (!own.ok()) {
        std::fprintf(stderr, "reference query %zu failed\n", i);
        return 1;
      }
      reference[i] = std::move(own).value();
    }
  }

  TablePrinter table({"scenario", "clients", "offered", "answered", "shed",
                      "missed", "navail", "qps", "p99_ms"});
  BenchJsonWriter json;
  auto add_row = [&](const char* scenario, size_t clients, size_t issued,
                     const NetOutcome& o, const std::vector<double>& q) {
    table.AddRow({scenario, std::to_string(clients), std::to_string(issued),
                  std::to_string(o.answered), std::to_string(o.shed),
                  std::to_string(o.deadline_missed),
                  std::to_string(o.unavailable),
                  FormatDouble(static_cast<double>(o.answered) / o.wall_s),
                  FormatDouble(q[2])});
  };

  // ==== External mode: saturation sweep against a running kboostd ====
  if (config.external) {
    double saturation_qps = 0.0;
    size_t saturation_clients = 0;
    std::vector<double> saturation_latencies;
    for (size_t clients : {size_t{1}, size_t{2}, size_t{4}}) {
      const size_t per_client = (2 * num_queries) / clients;
      const size_t issued = clients * per_client;
      NetOutcome o = RunNetStorm(config.host, config.port, requests,
                                 reference, clients, per_client);
      StatusOr<std::unique_ptr<KboostClient>> admin =
          KboostClient::Connect(config.host, config.port);
      StatusOr<ServiceStatsSnapshot> stats =
          admin.ok() ? (*admin)->Stats()
                     : StatusOr<ServiceStatsSnapshot>(admin.status());
      if (!stats.ok()) {
        std::fprintf(stderr, "FATAL: STATS frame after storm: %s\n",
                     stats.status().ToString().c_str());
        std::abort();
      }
      GateOrAbort("external sweep", *stats, o, issued);
      const double qps = static_cast<double>(o.answered) / o.wall_s;
      json.Add("net/qps_c" + std::to_string(clients), qps, "queries/s");
      if (qps > saturation_qps) {
        saturation_qps = qps;
        saturation_clients = clients;
        saturation_latencies = o.ok_latency_ms;
      }
      std::vector<double> q = LatencyRow(
          &json, ("net/latency_c" + std::to_string(clients)).c_str(),
          o.ok_latency_ms);
      add_row("external", clients, issued, o, q);
    }
    json.Add("net/saturation_qps", saturation_qps, "queries/s");
    json.Add("net/saturation_clients",
             static_cast<double>(saturation_clients), "clients");
    LatencyRow(&json, "net/latency", saturation_latencies);
    if (config.shutdown_server) {
      StatusOr<std::unique_ptr<KboostClient>> admin =
          KboostClient::Connect(config.host, config.port);
      if (!admin.ok() || !(*admin)->Shutdown().ok()) {
        std::fprintf(stderr, "FATAL: SHUTDOWN frame was not acknowledged\n");
        std::abort();
      }
      std::printf("sent SHUTDOWN; server acknowledged and is draining\n");
    }
    std::printf("\n");
    table.Print(std::cout);
    std::printf("\nexternal loadgen gate passed: every reply bit-identical, "
                "zero untyped drops\n");
    json.WriteTo(flags.json_path);
    return 0;
  }

  // ==== Self-host mode: the full gate over a scenario ladder ====
  const std::string host = "127.0.0.1";
  auto start_server = [&](BoostService* service)
      -> std::unique_ptr<KboostServer> {
    ServerOptions options;
    options.bind_address = host;
    options.port = 0;
    StatusOr<std::unique_ptr<KboostServer>> server =
        KboostServer::Start(service, options);
    if (!server.ok()) {
      std::fprintf(stderr, "server: %s\n", server.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(server).value();
  };

  // ---- Scenario 1: saturation sweep (unlimited service) ----
  double saturation_qps = 0.0;
  size_t saturation_clients = 0;
  std::vector<double> saturation_latencies;
  {
    std::unique_ptr<KboostServer> server = start_server(calm.get());
    for (size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      const size_t per_client = (2 * num_queries) / clients;
      const size_t issued = clients * per_client;
      NetOutcome o = RunNetStorm(host, server->port(), requests, reference,
                                 clients, per_client);
      GateOrAbort("saturation sweep", calm->Stats(), o, issued);
      if (o.answered != issued) {
        // An unlimited service answers everything; any other outcome is a
        // typed reject we did not configure.
        std::fprintf(stderr,
                     "FATAL: saturation sweep c=%zu: %zu of %zu answered\n",
                     clients, o.answered, issued);
        std::abort();
      }
      const double qps = static_cast<double>(o.answered) / o.wall_s;
      json.Add("net/qps_c" + std::to_string(clients), qps, "queries/s");
      if (qps > saturation_qps) {
        saturation_qps = qps;
        saturation_clients = clients;
        saturation_latencies = o.ok_latency_ms;
      }
      std::vector<double> q = LatencyRow(
          &json, ("net/latency_c" + std::to_string(clients)).c_str(),
          o.ok_latency_ms);
      add_row("sweep", clients, issued, o, q);
    }
    GateServerDrainedOrAbort("saturation sweep", *server);
    json.Add("net/saturation_qps", saturation_qps, "queries/s");
    json.Add("net/saturation_clients",
             static_cast<double>(saturation_clients), "clients");
    LatencyRow(&json, "net/latency", saturation_latencies);
    std::printf("saturation sweep: peak %s qps at %zu clients, every reply "
                "bit-identical\n",
                FormatDouble(saturation_qps).c_str(), saturation_clients);
  }

  // ---- Scenario 2: wire deadlines through the single-budget path ----
  // A 2 ms deadline_ms travels in the query frame; a 10 ms injected stall
  // at solve entry guarantees expiry, so every miss must come back as a
  // typed DeadlineExceeded reply. A deadline-free replay then answers the
  // whole stream bit-identically — the storm poisoned nothing.
  {
    std::unique_ptr<KboostServer> server = start_server(calm.get());
    std::vector<WireQuery> tight = requests;
    for (WireQuery& q : tight) q.deadline_ms = 2;
    FaultInjector::Plan slow;
    slow.delay_micros = 10000;
    FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);
    const size_t clients = 4, per_client = 9;
    const size_t issued = clients * per_client;
    NetOutcome o = RunNetStorm(host, server->port(), tight, reference,
                               clients, per_client);
    FaultInjector::Global().DisarmAll();
    GateOrAbort("deadline storm", calm->Stats(), o, issued);
    if (o.deadline_missed == 0) {
      std::fprintf(stderr,
                   "FATAL: deadline storm recorded zero typed misses with a "
                   "2 ms wire budget against 10 ms stalls\n");
      std::abort();
    }
    std::vector<WireQuery> roomy = requests;
    for (WireQuery& q : roomy) q.deadline_ms = 60000;
    NetOutcome replay = RunNetStorm(host, server->port(), roomy, reference,
                                    2, num_queries / 2);
    GateOrAbort("deadline-free replay", calm->Stats(), replay, num_queries);
    if (replay.answered != num_queries) {
      std::fprintf(stderr,
                   "FATAL: deadline-free replay answered %zu of %zu\n",
                   replay.answered, num_queries);
      std::abort();
    }
    GateServerDrainedOrAbort("deadline storm", *server);
    json.Add("net/deadline_miss_rate",
             static_cast<double>(o.deadline_missed) /
                 static_cast<double>(issued),
             "fraction");
    add_row("deadline", clients, issued, o,
            std::vector<double>{0.0, 0.0, 0.0});
    std::printf("deadline storm: %zu typed misses over the wire; "
                "deadline-free replay stayed bit-identical\n",
                o.deadline_missed);
  }

  // ---- Scenario 3: REFRESH mid-storm ----
  // Hot-swap the pool from a snapshot of an identical twin while 4 clients
  // are mid-stream: the version bumps, and because the twin's bits equal
  // the original's, the bit-identity gate must hold across the swap.
  {
    std::unique_ptr<KboostServer> server = start_server(calm.get());
    const char* snapshot = "bench_loadgen_refresh.pool";
    if (!SavePoolSnapshot(*calm->GetPool(config.pool), snapshot,
                          PoolSaveOptions{})
             .ok()) {
      std::fprintf(stderr, "FATAL: refresh snapshot save failed\n");
      std::abort();
    }
    FaultInjector::Plan slow;  // stretch the storm so the swap lands inside
    slow.delay_micros = 2000;
    FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);
    const size_t clients = 4, per_client = 24;
    const uint64_t version_before = calm->PoolVersion(config.pool);
    NetOutcome o;
    std::thread storm([&] {
      o = RunNetStorm(host, server->port(), requests, reference, clients,
                      per_client);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    StatusOr<std::unique_ptr<KboostClient>> admin =
        KboostClient::Connect(host, server->port());
    StatusOr<WireRefreshReply> refreshed =
        admin.ok() ? (*admin)->Refresh(WireRefresh{config.pool, snapshot})
                   : StatusOr<WireRefreshReply>(admin.status());
    storm.join();
    if (admin.ok()) (*admin)->Close();  // the drain gate wants zero conns
    FaultInjector::Global().DisarmAll();
    std::remove(snapshot);
    if (!refreshed.ok() || !refreshed->status.ok() ||
        refreshed->version != version_before + 1) {
      std::fprintf(stderr, "FATAL: mid-storm REFRESH failed: %s\n",
                   refreshed.ok() ? refreshed->status.ToString().c_str()
                                  : refreshed.status().ToString().c_str());
      std::abort();
    }
    GateOrAbort("refresh mid-storm", calm->Stats(), o,
                clients * per_client);
    if (o.answered != clients * per_client) {
      std::fprintf(stderr,
                   "FATAL: refresh mid-storm answered %zu of %zu\n",
                   o.answered, clients * per_client);
      std::abort();
    }
    GateServerDrainedOrAbort("refresh mid-storm", *server);
    add_row("refresh", clients, clients * per_client, o,
            std::vector<double>{0.0, 0.0, 0.0});
    std::printf("mid-storm REFRESH: version %llu -> %llu, bit-identity held "
                "across the hot swap\n",
                static_cast<unsigned long long>(version_before),
                static_cast<unsigned long long>(refreshed->version));
  }

  std::printf("\n");
  table.Print(std::cout);
  std::printf("\nall loadgen scenarios passed their gates\n");
  json.WriteTo(flags.json_path);
  return 0;
}
