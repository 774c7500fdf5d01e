// Overload bench and CI gate for the admission/deadline stack: a
// BoostService with a small admission budget takes ≥2× its capacity in
// offered load from closed-loop clients, and the contract is enforced with
// aborts, not warnings:
//
//   - every rejection is typed (ResourceExhausted shed or DeadlineExceeded) —
//     overload never surfaces as a crash or an untyped error;
//   - every admitted answer is bit-identical to the serial reference;
//   - when the storm drains, the admission gauges read empty (no slot leaks)
//     and the lifetime counters reconcile exactly with what clients saw;
//   - after a deadline storm (scenario 2), a deadline-free replay records
//     ZERO new misses.
//
// With --json=BENCH_overload.json the saturation throughput, shed rate and
// client-observed p50/p95/p99 latency are recorded.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_flags.h"
#include "src/core/boost_session.h"
#include "src/expt/table_printer.h"
#include "src/serve/boost_service.h"
#include "src/util/fault.h"
#include "src/util/stats.h"
#include "src/util/timer.h"

namespace {

using namespace kboost;

bool SameAnswer(const BoostResult& a, const BoostResult& b) {
  return a.best_set == b.best_set && a.best_estimate == b.best_estimate &&
         a.lb_set == b.lb_set && a.lb_mu_hat == b.lb_mu_hat &&
         a.delta_set == b.delta_set && a.delta_delta_hat == b.delta_delta_hat;
}

struct StormOutcome {
  size_t answered = 0;
  size_t shed = 0;
  size_t deadline_missed = 0;
  size_t untyped = 0;
  size_t divergent = 0;
  double wall_s = 0.0;
  std::vector<double> ok_latency_ms;  // client-observed, admitted answers
};

/// Fires `per_client` requests from each of `clients` closed-loop threads at
/// `service` and classifies every outcome against `reference`.
StormOutcome RunStorm(const BoostService& service,
                      const std::vector<BoostRequest>& requests,
                      const std::vector<BoostResult>& reference,
                      size_t clients, size_t per_client) {
  std::atomic<size_t> answered{0}, shed{0}, missed{0};
  std::atomic<size_t> untyped{0}, divergent{0};
  std::mutex latency_mutex;
  std::vector<double> latencies;
  std::vector<std::thread> workers;
  WallTimer storm_timer;
  for (size_t t = 0; t < clients; ++t) {
    workers.emplace_back([&, t] {
      std::vector<double> local_latencies;
      for (size_t i = 0; i < per_client; ++i) {
        const size_t q = (t * per_client + i) % requests.size();
        WallTimer request_timer;
        StatusOr<BoostResponse> r = service.Solve(requests[q]);
        const double latency_ms = request_timer.Seconds() * 1e3;
        if (r.ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          local_latencies.push_back(latency_ms);
          if (!SameAnswer(r->result, reference[q])) {
            divergent.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
          missed.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::fprintf(stderr, "untyped overload error: %s\n",
                       r.status().ToString().c_str());
          untyped.fetch_add(1, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      latencies.insert(latencies.end(), local_latencies.begin(),
                       local_latencies.end());
    });
  }
  for (std::thread& w : workers) w.join();
  StormOutcome outcome;
  outcome.answered = answered.load();
  outcome.shed = shed.load();
  outcome.deadline_missed = missed.load();
  outcome.untyped = untyped.load();
  outcome.divergent = divergent.load();
  outcome.wall_s = storm_timer.Seconds();
  outcome.ok_latency_ms = std::move(latencies);
  return outcome;
}

/// Shared abort gate: no untyped errors, no divergent answers, no leaked
/// admission slots, and the service's counters reconcile with the clients'.
void GateOrAbort(const char* scenario, const BoostService& service,
                 const StormOutcome& o, size_t issued) {
  const ServiceStatsSnapshot stats = service.Stats();
  const bool accounted =
      o.answered + o.shed + o.deadline_missed + o.untyped == issued;
  if (o.untyped != 0 || o.divergent != 0 || !accounted ||
      stats.in_flight != 0 || stats.queued != 0) {
    std::fprintf(stderr,
                 "FATAL: %s: %zu untyped errors, %zu divergent answers, "
                 "accounting %s (%zu+%zu+%zu of %zu), gauges in_flight=%llu "
                 "queued=%llu after drain\n",
                 scenario, o.untyped, o.divergent, accounted ? "ok" : "BROKEN",
                 o.answered, o.shed, o.deadline_missed, issued,
                 static_cast<unsigned long long>(stats.in_flight),
                 static_cast<unsigned long long>(stats.queued));
    std::abort();
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  PrintBanner(
      "Overload: admission control and deadlines at 2x capacity",
      "excess load sheds with typed statuses at a stable saturation "
      "throughput; admitted answers stay bit-identical to the serial "
      "reference and no admission slot leaks",
      flags);
  FaultInjector::Global().DisarmAll();

  std::vector<size_t> sweep =
      flags.ks.empty() ? std::vector<size_t>{1, 10, 50} : flags.ks;
  const size_t k_max = *std::max_element(sweep.begin(), sweep.end());

  BenchInstance instance = LoadInstance("digg", SeedMode::kInfluential, flags);
  const DirectedGraph& g = instance.dataset.graph;

  // The admission budget under test: 2 solves in flight, 2 waiting. Offered
  // load below is 2x (in_flight + queued) clients, each closed-loop.
  constexpr uint64_t kMaxInFlight = 2;
  constexpr uint64_t kMaxQueued = 2;
  constexpr size_t kClients = 2 * (kMaxInFlight + kMaxQueued);
  constexpr size_t kPerClient = 24;

  // The query stream and its references come from an UNLIMITED service over
  // the same pool bits, so reference answers never shed.
  const size_t num_queries = 16 * sweep.size();
  std::vector<BoostRequest> requests(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    requests[i].pool = "digg";
    requests[i].k = sweep[i % sweep.size()];
  }

  auto make_pool = [&]() -> std::unique_ptr<BoostSession> {
    StatusOr<std::unique_ptr<BoostSession>> session =
        BoostSession::Create(g, instance.seeds,
                             MakeBoostOptions(k_max, flags));
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(session).value();
  };

  std::vector<BoostResult> reference(num_queries);
  {
    StatusOr<std::unique_ptr<BoostService>> calm = BoostService::Create(g);
    if (!calm.ok() || !(*calm)->AddPool("digg", make_pool()).ok()) {
      std::fprintf(stderr, "reference service construction failed\n");
      return 1;
    }
    for (size_t i = 0; i < num_queries; ++i) {
      StatusOr<BoostResponse> full = (*calm)->Solve(requests[i]);
      if (!full.ok()) {
        std::fprintf(stderr, "reference query %zu failed\n", i);
        return 1;
      }
      reference[i] = std::move(*full).result;
    }
  }

  TablePrinter table({"scenario", "offered", "answered", "shed", "missed",
                      "qps"});
  BenchJsonWriter json;

  // ---- Scenario 1: pure admission overload (no deadlines) ----
  {
    BoostService::Options options;
    options.max_in_flight = kMaxInFlight;
    options.max_queued = kMaxQueued;
    StatusOr<std::unique_ptr<BoostService>> service_or =
        BoostService::Create(g, options);
    if (!service_or.ok() || !(*service_or)->AddPool("digg", make_pool()).ok()) {
      std::fprintf(stderr, "overload service construction failed\n");
      return 1;
    }
    const BoostService& service = **service_or;
    const size_t issued = kClients * kPerClient;
    // A prepared solve is a microsecond slice, too short for 8 closed-loop
    // clients to hold 4 slots at once; a 1 ms stall at solve entry makes
    // each solve long enough that the offered load really is 2x capacity.
    FaultInjector::Plan slow;
    slow.delay_micros = 1000;
    FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);
    StormOutcome o =
        RunStorm(service, requests, reference, kClients, kPerClient);
    FaultInjector::Global().DisarmAll();
    GateOrAbort("admission overload", service, o, issued);
    const ServiceStatsSnapshot stats = service.Stats();
    if (o.shed == 0 || stats.shed != o.shed ||
        stats.pools[0].queries != o.answered || o.deadline_missed != 0) {
      // 2x offered load against a 4-slot budget MUST shed, the service's
      // books must agree with the clients', and nothing may miss a deadline
      // in a scenario that configured none.
      std::fprintf(stderr,
                   "FATAL: admission overload: shed=%zu (service says %llu), "
                   "queries=%llu vs answered=%zu, missed=%zu\n",
                   o.shed, static_cast<unsigned long long>(stats.shed),
                   static_cast<unsigned long long>(stats.pools[0].queries),
                   o.answered, o.deadline_missed);
      std::abort();
    }
    const double qps = static_cast<double>(o.answered) / o.wall_s;
    const double shed_rate = static_cast<double>(o.shed) /
                             static_cast<double>(issued);
    table.AddRow({"admission", std::to_string(issued),
                  std::to_string(o.answered), std::to_string(o.shed),
                  std::to_string(o.deadline_missed), FormatDouble(qps)});
    json.Add("overload/saturation_qps", qps, "queries/s");
    json.Add("overload/shed_rate", shed_rate, "fraction");
    json.Add("overload/offered", static_cast<double>(issued), "requests");
    if (!o.ok_latency_ms.empty()) {
      json.Add("overload/latency_p50_ms", Quantile(o.ok_latency_ms, 0.50),
               "ms");
      json.Add("overload/latency_p95_ms", Quantile(o.ok_latency_ms, 0.95),
               "ms");
      json.Add("overload/latency_p99_ms", Quantile(o.ok_latency_ms, 0.99),
               "ms");
    }
    std::printf("admission overload: %zu offered -> %zu answered (all "
                "bit-identical), %zu shed typed, 0 slots leaked\n",
                issued, o.answered, o.shed);
  }

  // ---- Scenario 2: deadline storm, then a deadline-free replay ----
  {
    BoostService::Options options;
    options.default_deadline_ms = 2;
    StatusOr<std::unique_ptr<BoostService>> service_or =
        BoostService::Create(g, options);
    if (!service_or.ok() || !(*service_or)->AddPool("digg", make_pool()).ok()) {
      std::fprintf(stderr, "deadline service construction failed\n");
      return 1;
    }
    const BoostService& service = **service_or;
    // Stall every solve 10 ms at entry so the 2 ms default deadline cannot
    // be met — the deterministic way to exercise mid-solve expiry.
    FaultInjector::Plan slow;
    slow.delay_micros = 10000;
    FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);
    const size_t issued = kClients * kPerClient / 4;
    StormOutcome o =
        RunStorm(service, requests, reference, kClients, kPerClient / 4);
    FaultInjector::Global().DisarmAll();
    GateOrAbort("deadline storm", service, o, issued);
    if (o.deadline_missed == 0) {
      std::fprintf(stderr, "FATAL: deadline storm produced zero misses with "
                           "a 2 ms budget against 10 ms injected stalls\n");
      std::abort();
    }
    // The acceptance criterion: a deadline-free replay of the whole stream
    // records ZERO new misses and answers bit-identically.
    const uint64_t misses_before = service.Stats().pools[0].deadline_misses;
    for (size_t i = 0; i < num_queries; ++i) {
      BoostRequest replay = requests[i];
      replay.deadline_ms = 60000;  // 60 s: present but unreachable
      StatusOr<BoostResponse> r = service.Solve(replay);
      if (!r.ok() || !SameAnswer(r->result, reference[i])) {
        std::fprintf(stderr,
                     "FATAL: deadline-free replay query %zu: %s\n", i,
                     r.ok() ? "diverged from the reference"
                            : r.status().ToString().c_str());
        std::abort();
      }
    }
    const uint64_t new_misses =
        service.Stats().pools[0].deadline_misses - misses_before;
    if (new_misses != 0) {
      std::fprintf(stderr,
                   "FATAL: deadline-free replay recorded %llu misses\n",
                   static_cast<unsigned long long>(new_misses));
      std::abort();
    }
    table.AddRow({"deadline", std::to_string(issued),
                  std::to_string(o.answered), std::to_string(o.shed),
                  std::to_string(o.deadline_missed),
                  FormatDouble(static_cast<double>(o.answered) / o.wall_s)});
    json.Add("overload/deadline_miss_rate",
             static_cast<double>(o.deadline_missed) /
                 static_cast<double>(issued),
             "fraction");
    json.Add("overload/replay_new_misses", static_cast<double>(new_misses),
             "misses");
    std::printf("deadline storm: %zu of %zu requests missed typed; "
                "deadline-free replay recorded 0 new misses\n",
                o.deadline_missed, issued);
  }

  std::printf("\n");
  table.Print(std::cout);
  std::printf("\nall overload scenarios passed their gates\n");
  json.WriteTo(flags.json_path);
  return 0;
}
