// The serving-layer contract: BoostOptions::Validate as the one validation
// choke point, BoostSession::Create/Solve as the fallible concurrent query
// surface, and BoostService as the thread-safe registry of named immutable
// pools. The centerpiece is the concurrency suite: N threads issuing mixed
// (k, mode, worker-count) queries against one shared prepared pool must
// produce answers bit-identical to the same queries issued serially — this
// file runs under the ASan/UBSan job and the TSan job in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/serve/boost_service.h"
#include "src/util/rng.h"
#include "tests/join_guard.h"
#include "tests/same_answer.h"

namespace kboost {
namespace {

DirectedGraph MakeTestGraph(uint64_t seed = 7) {
  Rng rng(seed);
  GraphBuilder b = BuildErdosRenyi(80, 500, rng);
  b.AssignConstantProbability(0.12);
  b.SetBoostWithBeta(2.0);
  return std::move(b).Build();
}

BoostOptions MakeOptions(size_t k) {
  BoostOptions options;
  options.k = k;
  options.seed = 11;
  options.num_threads = 2;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(BoostOptionsTest, ValidateAcceptsDefaults) {
  EXPECT_TRUE(BoostOptions().Validate().ok());
}

TEST(BoostOptionsTest, ValidateRejectsEachBadField) {
  BoostOptions o;
  o.k = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  o = BoostOptions();
  o.epsilon = 0.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.epsilon = 1.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  o = BoostOptions();
  o.ell = 0.0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);

  o = BoostOptions();
  o.num_threads = 0;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.num_threads = -3;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.num_threads = ThreadPool::kMaxWorkers + 1;
  EXPECT_EQ(o.Validate().code(), StatusCode::kInvalidArgument);
  o.num_threads = ThreadPool::kMaxWorkers;
  EXPECT_TRUE(o.Validate().ok());
}

TEST(BoostSessionCreateTest, RejectsInvalidArguments) {
  DirectedGraph g = MakeTestGraph();

  BoostOptions bad = MakeOptions(5);
  bad.num_threads = 0;
  EXPECT_EQ(BoostSession::Create(g, {0}, bad).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(BoostSession::Create(g, {}, MakeOptions(5)).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(
      BoostSession::Create(g, {0, 99999}, MakeOptions(5)).status().code(),
      StatusCode::kOutOfRange);
}

TEST(BoostSessionCreateTest, CreatedSessionAnswersLikeConstructed) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostSession>> created =
      BoostSession::Create(g, {0, 1}, MakeOptions(8));
  ASSERT_TRUE(created.ok());
  BoostResult via_create = SolveAt(**created, 8);

  BoostSession constructed(g, {0, 1}, MakeOptions(8));
  EXPECT_TRUE(SameAnswer(via_create, SolveAt(constructed, 8)));
}

TEST(BoostSessionSolveTest, RequiresPrepare) {
  DirectedGraph g = MakeTestGraph();
  BoostSession session(g, {0, 1}, MakeOptions(5));
  SolveSpec spec;
  spec.k = 3;
  EXPECT_EQ(session.Solve(spec).status().code(),
            StatusCode::kFailedPrecondition);
  session.Prepare();
  EXPECT_TRUE(session.serving_ready());
  EXPECT_TRUE(session.Solve(spec).ok());
}

TEST(BoostSessionSolveTest, ValidatesRequests) {
  DirectedGraph g = MakeTestGraph();
  BoostSession session(g, {0, 1}, MakeOptions(5));
  session.Prepare();

  SolveSpec spec;
  spec.k = 0;
  EXPECT_EQ(session.Solve(spec).status().code(), StatusCode::kInvalidArgument);
  spec.k = 6;  // above the pool budget
  EXPECT_EQ(session.Solve(spec).status().code(), StatusCode::kInvalidArgument);
  spec.k = 3;
  spec.num_threads = -1;
  EXPECT_EQ(session.Solve(spec).status().code(), StatusCode::kInvalidArgument);
  spec.num_threads = ThreadPool::kMaxWorkers + 1;
  EXPECT_EQ(session.Solve(spec).status().code(), StatusCode::kInvalidArgument);
}

TEST(BoostSessionSolveTest, FullModeRejectedOnLbPool) {
  DirectedGraph g = MakeTestGraph();
  BoostSession session(g, {0, 1}, MakeOptions(5), /*lb_only=*/true);
  session.Prepare();
  SolveSpec spec;
  spec.k = 3;
  spec.mode = SolveMode::kFull;
  EXPECT_EQ(session.Solve(spec).status().code(), StatusCode::kInvalidArgument);
  spec.mode = SolveMode::kLbOnly;
  EXPECT_TRUE(session.Solve(spec).ok());
}

TEST(BoostSessionSolveTest, RepeatedSolvesAnswerIdentically) {
  DirectedGraph g = MakeTestGraph();
  for (bool lb_only : {false, true}) {
    BoostSession session(g, {0, 1, 2}, MakeOptions(12), lb_only);
    session.Prepare();
    const std::vector<size_t> ks = {1, 4, 9, 12};
    std::vector<BoostResult> first;
    for (size_t k : ks) first.push_back(SolveAt(session, k));
    // A solve keeps no state: the same budgets asked again, in reverse
    // order, answer bit for bit as before.
    for (size_t i = ks.size(); i-- > 0;) {
      StatusOr<BoostResult> again = session.Solve({.k = ks[i]});
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(SameAnswer(first[i], *again)) << "k=" << ks[i];
      EXPECT_EQ(again->pool_budget, 12u);
    }
  }
}

TEST(BoostSessionSolveTest, LbOnlyModeOnFullPoolSlicesTheCachedOrder) {
  DirectedGraph g = MakeTestGraph();
  BoostSession full(g, {0, 1}, MakeOptions(10));
  full.Prepare();
  SolveSpec lb_spec;
  lb_spec.k = 6;
  lb_spec.mode = SolveMode::kLbOnly;
  StatusOr<BoostResult> fast = full.Solve(lb_spec);
  ASSERT_TRUE(fast.ok());
  // The LB-only answer of a full pool is its own cached μ̂ order: best set
  // and estimate come from the LB slice, and B_Δ is left out.
  SolveSpec native_spec;
  native_spec.k = 6;
  StatusOr<BoostResult> native = full.Solve(native_spec);
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(fast->best_set, native->lb_set);
  EXPECT_EQ(fast->best_estimate, native->lb_mu_hat);
  EXPECT_TRUE(fast->delta_set.empty());
}

TEST(BoostServiceTest, RegistryLifecycle) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;

  EXPECT_EQ(service.AddPool("", nullptr).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(service
                  .AddPool("a", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0}, MakeOptions(4)))
                  .ok());
  EXPECT_EQ(service
                .AddPool("a", std::make_unique<BoostSession>(
                                  g, std::vector<NodeId>{0}, MakeOptions(4)))
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.num_pools(), 1u);
  EXPECT_EQ(service.PoolNames(), std::vector<std::string>{"a"});
  ASSERT_NE(service.GetPool("a"), nullptr);
  EXPECT_TRUE(service.GetPool("a")->serving_ready());

  BoostRequest request;
  request.pool = "missing";
  request.k = 2;
  EXPECT_EQ(service.Solve(request).status().code(), StatusCode::kNotFound);
  request.pool = "a";
  StatusOr<BoostResponse> response = service.Solve(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->pool, "a");

  // Removal never invalidates a handle already held.
  std::shared_ptr<const BoostSession> held = service.GetPool("a");
  EXPECT_TRUE(service.RemovePool("a").ok());
  EXPECT_EQ(service.RemovePool("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.num_pools(), 0u);
  SolveSpec spec;
  spec.k = 2;
  EXPECT_TRUE(held->Solve(spec).ok());
}

TEST(BoostServiceTest, WarmStartFromSnapshotsAnswersIdentically) {
  DirectedGraph g = MakeTestGraph();
  const std::string full_path = TempPath("kboost_serve_full.pool");
  const std::string lb_path = TempPath("kboost_serve_lb.pool");

  BoostSession full(g, {0, 1, 2}, MakeOptions(10));
  ASSERT_TRUE(full.SavePool(full_path).ok());
  BoostSession lb(g, {0, 1, 2}, MakeOptions(10), /*lb_only=*/true);
  ASSERT_TRUE(lb.SavePool(lb_path).ok());

  BoostService::Options options;
  options.warm_pools = {{"full", full_path}, {"lb", lb_path}};
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok()) << service_or.status().ToString();
  BoostService& service = **service_or;
  EXPECT_EQ(service.num_pools(), 2u);

  for (size_t k : {1, 5, 10}) {
    BoostRequest request;
    request.pool = "full";
    request.k = k;
    StatusOr<BoostResponse> served = service.Solve(request);
    ASSERT_TRUE(served.ok());
    EXPECT_TRUE(SameAnswer(SolveAt(full, k), served->result));

    request.pool = "lb";
    served = service.Solve(request);
    ASSERT_TRUE(served.ok());
    EXPECT_TRUE(SameAnswer(SolveAt(lb, k), served->result));
  }

  BoostService::Options missing;
  missing.warm_pools = {{"nope", TempPath("kboost_serve_missing.pool")}};
  EXPECT_FALSE(BoostService::Create(g, missing).ok());

  std::remove(full_path.c_str());
  std::remove(lb_path.c_str());
}

TEST(BoostServiceLifecycleTest, RefreshPoolValidatesItsArguments) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;

  // A refresh replaces; it never creates.
  EXPECT_EQ(service
                .RefreshPool("absent", std::make_unique<BoostSession>(
                                           g, std::vector<NodeId>{0},
                                           MakeOptions(4)))
                .code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(service
                  .AddPool("a", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0}, MakeOptions(4)))
                  .ok());
  EXPECT_EQ(service.RefreshPool("a", nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.RefreshPoolFromSnapshot("a", TempPath("kboost_nope.pool"))
                .code(),
            StatusCode::kIoError);
  // A failed refresh leaves the registered pool untouched.
  EXPECT_NE(service.GetPool("a"), nullptr);
  BoostRequest request;
  request.pool = "a";
  request.k = 2;
  EXPECT_TRUE(service.Solve(request).ok());
}

TEST(BoostServiceLifecycleTest, RefreshSwapIsBitIdenticalToFreshService) {
  // The acceptance criterion: after RefreshPool, answers must be
  // bit-identical to a service freshly built with the replacement session's
  // options — a hot-swap is indistinguishable from a cold start.
  DirectedGraph g = MakeTestGraph();
  BoostOptions fresh_options = MakeOptions(10);
  fresh_options.seed = 77;  // the replacement pool differs from the original

  StatusOr<std::unique_ptr<BoostService>> refreshed_or =
      BoostService::Create(g);
  ASSERT_TRUE(refreshed_or.ok());
  BoostService& refreshed = **refreshed_or;
  ASSERT_TRUE(refreshed
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1, 2},
                                    MakeOptions(10)))
                  .ok());
  const uint64_t version_before = refreshed.PoolVersion("p");
  ASSERT_TRUE(refreshed
                  .RefreshPool("p", std::make_unique<BoostSession>(
                                        g, std::vector<NodeId>{0, 1, 2},
                                        fresh_options))
                  .ok());
  EXPECT_GT(refreshed.PoolVersion("p"), version_before);

  StatusOr<std::unique_ptr<BoostService>> cold_or = BoostService::Create(g);
  ASSERT_TRUE(cold_or.ok());
  BoostService& cold = **cold_or;
  ASSERT_TRUE(cold.AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1, 2},
                                    fresh_options))
                  .ok());

  for (size_t k : {1, 4, 10}) {
    BoostRequest request;
    request.pool = "p";
    request.k = k;
    StatusOr<BoostResponse> a = refreshed.Solve(request);
    StatusOr<BoostResponse> b = cold.Solve(request);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(SameAnswer(a->result, b->result));
  }
}

TEST(BoostServiceLifecycleTest, ResponsesCarryMonotonicVersions) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  EXPECT_EQ(service.PoolVersion("p"), 0u);
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0}, MakeOptions(4)))
                  .ok());

  BoostRequest request;
  request.pool = "p";
  request.k = 2;
  uint64_t last = 0;
  for (int round = 0; round < 3; ++round) {
    StatusOr<BoostResponse> r = service.Solve(request);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->pool_version, service.PoolVersion("p"));
    EXPECT_GT(r->pool_version, last);
    last = r->pool_version;
    ASSERT_TRUE(service
                    .RefreshPool("p", std::make_unique<BoostSession>(
                                          g, std::vector<NodeId>{0},
                                          MakeOptions(4)))
                    .ok());
  }
  // Re-registering a removed name keeps versions strictly increasing (the
  // counter is service-wide, never per-name).
  ASSERT_TRUE(service.RemovePool("p").ok());
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0}, MakeOptions(4)))
                  .ok());
  EXPECT_GT(service.PoolVersion("p"), last);
}

TEST(BoostServiceLifecycleTest, StatsReportTrafficVersionsAndTimestamps) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1},
                                    MakeOptions(6)))
                  .ok());

  BoostRequest good;
  good.pool = "p";
  good.k = 3;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(service.Solve(good).ok());
  BoostRequest bad = good;
  bad.k = 99;  // above the pool budget -> InvalidArgument, counted per-pool
  EXPECT_FALSE(service.Solve(bad).ok());
  BoostRequest missing = good;
  missing.pool = "nope";  // NotFound, counted service-wide
  EXPECT_FALSE(service.Solve(missing).ok());

  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.not_found, 1u);
  ASSERT_EQ(stats.pools.size(), 1u);
  const PoolStatsSnapshot p = stats.pools[0];  // copy: stats is reassigned
  EXPECT_EQ(p.pool, "p");
  EXPECT_EQ(p.queries, 5u);
  EXPECT_EQ(p.errors, 1u);
  EXPECT_EQ(p.refreshes, 0u);
  EXPECT_GT(p.version, 0u);
  EXPECT_GT(p.registered_at, 0.0);
  EXPECT_EQ(p.refreshed_at, 0.0);
  EXPECT_GT(p.latency_mean_ms, 0.0);
  EXPECT_GT(p.latency_p50_ms, 0.0);
  EXPECT_GE(p.latency_p95_ms, p.latency_p50_ms);

  ASSERT_TRUE(service
                  .RefreshPool("p", std::make_unique<BoostSession>(
                                        g, std::vector<NodeId>{0, 1},
                                        MakeOptions(6)))
                  .ok());
  stats = service.Stats();
  ASSERT_EQ(stats.pools.size(), 1u);
  // Traffic history belongs to the NAME: a refresh keeps the counters.
  EXPECT_EQ(stats.pools[0].queries, 5u);
  EXPECT_EQ(stats.pools[0].refreshes, 1u);
  EXPECT_GT(stats.pools[0].refreshed_at, 0.0);
  EXPECT_GT(stats.pools[0].version, p.version);
}

/// The lifecycle acceptance-criterion test: 4 client threads solve against
/// a pool being hot-swapped (and other pools being added/removed) and must
/// never observe NotFound, a version that goes backward, or an answer that
/// is not bit-identical to the build its stamped version names. Runs under
/// ASan/UBSan and TSan in CI.
TEST(BoostServiceLifecycleTest, RefreshUnderConcurrentSolvesNeverNotFound) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;

  // Two pool builds; different rng seeds give different pools, so an
  // answer reveals which build produced it. A is sampled on 4 threads and
  // on 1: the sampling width must not show in any answer, so both map to
  // A's reference.
  const std::vector<NodeId> seeds = {0, 1};
  BoostOptions opts_a = MakeOptions(8);
  opts_a.num_threads = 4;
  BoostOptions opts_a1 = opts_a;
  opts_a1.num_threads = 1;
  BoostOptions opts_b = MakeOptions(8);
  opts_b.seed = 99;

  // Per-build reference answers, solved serially on private sessions.
  BoostSession ref_a(g, seeds, opts_a);
  BoostSession ref_b(g, seeds, opts_b);
  const BoostResult expect_a = SolveAt(ref_a, 3);
  const BoostResult expect_b = SolveAt(ref_b, 3);
  const auto same_bits = [](const BoostResult& x, const BoostResult& y) {
    return x.best_set == y.best_set && x.best_estimate == y.best_estimate &&
           x.lb_set == y.lb_set && x.lb_mu_hat == y.lb_mu_hat &&
           x.delta_set == y.delta_set &&
           x.delta_delta_hat == y.delta_delta_hat;
  };

  ASSERT_TRUE(service
                  .AddPool("hot", std::make_unique<BoostSession>(g, seeds,
                                                                 opts_a))
                  .ok());
  // version -> was that build opts_b? Written only by this (main) thread,
  // read by everyone after the join.
  std::map<uint64_t, bool> version_is_b;
  version_is_b[service.PoolVersion("hot")] = false;

  struct Observation {
    uint64_t version;
    bool matched_a;
    bool matched_b;
  };
  constexpr size_t kClients = 4;
  std::vector<std::vector<Observation>> observed(kClients);
  std::atomic<bool> stop{false};
  std::atomic<size_t> not_found{0};
  std::atomic<size_t> other_failures{0};
  std::vector<std::thread> clients;
  JoinGuard join_clients(clients, [&] { stop.store(true); });
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      BoostRequest request;
      request.pool = "hot";
      request.k = 3;
      while (!stop.load(std::memory_order_relaxed)) {
        StatusOr<BoostResponse> r = service.Solve(request);
        if (!r.ok()) {
          (r.status().code() == StatusCode::kNotFound ? not_found
                                                      : other_failures)
              .fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        observed[t].push_back({r->pool_version,
                               same_bits(r->result, expect_a),
                               same_bits(r->result, expect_b)});
      }
    });
  }

  // The lifecycle churn, all from this thread: the hot pool is refreshed 4
  // times (B, A on 1 thread, B, A on 4) while unrelated pools are added,
  // queried and removed — AddPool/RefreshPool/RemovePool racing live
  // Solve() traffic.
  for (int round = 0; round < 4; ++round) {
    const bool use_b = (round % 2 == 0);
    const BoostOptions& next =
        use_b ? opts_b : (round == 1 ? opts_a1 : opts_a);
    ASSERT_TRUE(service
                    .AddPool("churn", std::make_unique<BoostSession>(
                                          g, seeds, MakeOptions(4)))
                    .ok());
    const uint64_t version_before = service.PoolVersion("hot");
    ASSERT_TRUE(service
                    .RefreshPool("hot", std::make_unique<BoostSession>(
                                            g, seeds, next))
                    .ok());
    EXPECT_GT(service.PoolVersion("hot"), version_before);
    version_is_b[service.PoolVersion("hot")] = use_b;
    ASSERT_TRUE(service.RemovePool("churn").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stop.store(true);
  for (std::thread& c : clients) c.join();

  // The swap guarantee: the name never came back NotFound and nothing else
  // failed either.
  EXPECT_EQ(not_found.load(), 0u);
  EXPECT_EQ(other_failures.load(), 0u);

  size_t total = 0;
  for (size_t t = 0; t < kClients; ++t) {
    uint64_t last_version = 0;
    for (const Observation& o : observed[t]) {
      // Versions a single client observes never go backward.
      EXPECT_GE(o.version, last_version);
      last_version = o.version;
      // Every answer is bit-identical to the build its version names.
      auto it = version_is_b.find(o.version);
      ASSERT_NE(it, version_is_b.end()) << "unknown version " << o.version;
      EXPECT_TRUE(it->second ? o.matched_b : o.matched_a)
          << "version " << o.version << " answered with the wrong pool bits";
      ++total;
    }
  }
  EXPECT_GT(total, 0u);
}

/// The acceptance-criterion test: pools prepared once, mixed-budget
/// mixed-mode queries from N ≥ 4 threads, every answer bit-identical to the
/// serial loop. The full pool is sampled on 4 threads (the default is the
/// core count, 1 on a 1-vCPU runner). Runs under ASan/UBSan and TSan in
/// CI.
TEST(BoostServiceConcurrencyTest, MixedQueriesFromManyThreadsAreBitIdentical) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  BoostOptions wide = MakeOptions(16);
  wide.num_threads = 4;
  ASSERT_TRUE(service
                  .AddPool("full", std::make_unique<BoostSession>(
                                       g, std::vector<NodeId>{0, 1, 2}, wide))
                  .ok());
  ASSERT_TRUE(service
                  .AddPool("lb", std::make_unique<BoostSession>(
                                     g, std::vector<NodeId>{0, 1, 2},
                                     MakeOptions(16), /*lb_only=*/true))
                  .ok());

  // 32 queries cycling budgets 1..16, pools and modes.
  std::vector<BoostRequest> requests;
  for (size_t i = 0; i < 32; ++i) {
    BoostRequest r;
    r.k = 1 + (i * 5) % 16;
    r.pool = (i % 3 == 0) ? "lb" : "full";
    r.mode = (r.pool == "full" && i % 4 == 1) ? SolveMode::kLbOnly
                                              : SolveMode::kAuto;
    requests.push_back(std::move(r));
  }

  std::vector<BoostResult> reference(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    StatusOr<BoostResponse> r = service.Solve(requests[i]);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference[i] = std::move(*r).result;
  }

  constexpr size_t kThreads = 6;
  std::atomic<size_t> failures{0};
  std::vector<std::vector<BoostResult>> answers(kThreads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < requests.size(); i += kThreads) {
        StatusOr<BoostResponse> r = service.Solve(requests[i]);
        if (!r.ok()) {
          failures.fetch_add(1);
          answers[t].emplace_back();
        } else {
          answers[t].push_back(std::move(*r).result);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ASSERT_EQ(failures.load(), 0u);
  for (size_t t = 0; t < kThreads; ++t) {
    size_t slot = 0;
    for (size_t i = t; i < requests.size(); i += kThreads, ++slot) {
      EXPECT_TRUE(SameAnswer(reference[i], answers[t][slot]));
    }
  }
}

}  // namespace
}  // namespace kboost
