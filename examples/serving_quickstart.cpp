// Serving workflow: prepare a PRR pool once (the expensive part), snapshot
// it, warm-start a BoostService from the snapshot, and answer budget queries
// from several client threads at once — the read-mostly production shape the
// serving layer is built for. Every concurrent answer is checked against a
// serial run of the same query: prepared pools are immutable, so results are
// bit-identical no matter how many clients share them. The tail of the
// example shows the lifecycle surface: RefreshPool hot-swaps a rebuilt pool
// behind the live name (no query ever sees NotFound, responses carry the
// new version) and Stats() reports the traffic the service just served.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/serve/boost_service.h"

int main() {
  using namespace kboost;

  Dataset d = MakeDataset(SpecByName("digg", 0.02));
  const DirectedGraph& g = d.graph;
  std::vector<NodeId> seeds = SelectInfluentialSeeds(g, 10, 1, 0);

  // ---- Offline: prepare once, snapshot to disk ---------------------------
  const std::string pool_path = "/tmp/kboost_serving_pool.bin";
  BoostOptions opts;
  opts.k = 25;  // the pool budget: the largest k the pool can answer
  StatusOr<std::unique_ptr<BoostSession>> session =
      BoostSession::Create(g, seeds, opts);
  if (!session.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  if (Status s = (*session)->SavePool(pool_path); !s.ok()) {
    std::fprintf(stderr, "pool save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("prepared and saved pool (theta=%zu) to %s\n",
              (*session)->collection().num_samples(),
              pool_path.c_str());

  // ---- Online: warm-start a service from the snapshot --------------------
  BoostService::Options service_options;
  service_options.warm_pools = {{"digg", pool_path}};
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  BoostService& service = **service_or;
  std::printf("service up with pools:");
  for (const std::string& name : service.PoolNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  // ---- Concurrent clients: mixed budgets and modes against one pool ------
  std::vector<BoostRequest> requests;
  for (size_t k : {5, 10, 15, 20, 25}) {
    BoostRequest full;
    full.pool = "digg";
    full.k = k;
    requests.push_back(full);
    BoostRequest cheap = full;  // the LB cached-order answer
    cheap.mode = SolveMode::kLbOnly;
    requests.push_back(cheap);
  }

  // Serial reference: prepared pools are immutable, so the concurrent
  // answers below must reproduce these bits exactly.
  std::vector<BoostResult> reference;
  for (const BoostRequest& request : requests) {
    StatusOr<BoostResponse> r = service.Solve(request);
    if (!r.ok()) {
      std::fprintf(stderr, "serial query failed: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    reference.push_back(std::move(r).value().result);
  }

  constexpr size_t kClients = 4;
  std::vector<std::vector<BoostResponse>> answers(kClients);
  std::atomic<size_t> errors{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = c; i < requests.size(); i += kClients) {
        StatusOr<BoostResponse> r = service.Solve(requests[i]);
        if (!r.ok()) {
          std::fprintf(stderr, "query failed: %s\n",
                       r.status().ToString().c_str());
          errors.fetch_add(1);
        } else {
          answers[c].push_back(std::move(r).value());
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (errors.load() != 0) return 1;

  size_t mismatches = 0;
  for (size_t c = 0; c < kClients; ++c) {
    size_t slot = 0;
    for (size_t i = c; i < requests.size(); i += kClients, ++slot) {
      const BoostResponse& r = answers[c][slot];
      if (r.result.best_set != reference[i].best_set ||
          r.result.best_estimate != reference[i].best_estimate) {
        ++mismatches;
      }
      std::printf(
          "client %zu: k=%2zu mode=%-6s boost %.2f in %.3fs "
          "(pool_budget=%zu)\n",
          c, requests[i].k,
          requests[i].mode == SolveMode::kLbOnly ? "lb" : "auto",
          r.result.best_estimate, r.solve_seconds, r.result.pool_budget);
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "%zu concurrent answers diverged from the serial run\n",
                 mismatches);
    return 1;
  }
  std::printf("\nall %zu concurrent answers bit-identical to the serial "
              "run\n",
              requests.size());

  // ---- Lifecycle: hot-swap a rebuilt pool behind the live name -----------
  // A production service rebuilds pools when the graph data or β changes;
  // RefreshPool prepares the replacement outside the registry lock and
  // swaps it atomically — in-flight queries finish on the old pool, new
  // queries answer from the new one, and the name never goes missing.
  const uint64_t v_before = service.PoolVersion("digg");
  BoostOptions rebuilt_opts = opts;
  rebuilt_opts.seed = 2026;  // e.g. fresher data or a new parameterization
  StatusOr<std::unique_ptr<BoostSession>> rebuilt =
      BoostSession::Create(g, seeds, rebuilt_opts);
  if (!rebuilt.ok()) return 1;
  if (Status s = service.RefreshPool("digg", std::move(*rebuilt)); !s.ok()) {
    std::fprintf(stderr, "refresh failed: %s\n", s.ToString().c_str());
    return 1;
  }
  StatusOr<BoostResponse> after = service.Solve(requests[0]);
  if (!after.ok()) return 1;
  std::printf("\nhot-swapped pool 'digg': version %llu -> %llu, next answer "
              "served from the new build (boost %.2f)\n",
              static_cast<unsigned long long>(v_before),
              static_cast<unsigned long long>(after->pool_version),
              after->result.best_estimate);

  // ---- Service metrics ---------------------------------------------------
  const ServiceStatsSnapshot stats = service.Stats();
  for (const PoolStatsSnapshot& p : stats.pools) {
    std::printf("stats: pool '%s' v%llu: %llu queries, %llu errors, "
                "%llu refreshes, latency ms mean/p50/p95 = "
                "%.3f/%.3f/%.3f\n",
                p.pool.c_str(), static_cast<unsigned long long>(p.version),
                static_cast<unsigned long long>(p.queries),
                static_cast<unsigned long long>(p.errors),
                static_cast<unsigned long long>(p.refreshes),
                p.latency_mean_ms, p.latency_p50_ms, p.latency_p95_ms);
  }
  return 0;
}
