// The chaos harness: deterministic fault injection (src/util/fault.h)
// driven against the serving stack's robustness machinery — snapshot-load
// retry with backoff, per-request deadlines, admission control and graceful
// degradation — while lifecycle churn (add/refresh/remove) races live
// traffic. The invariant under every storm: no crash, no untyped error, no
// admission-slot leak, and answers that do come back are bit-identical to
// the fault-free reference. Runs under the ASan/UBSan job and the TSan job
// in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/serve/boost_service.h"
#include "src/util/fault.h"
#include "src/util/rng.h"

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

/// Every test disarms on entry and exit: an armed site leaking across tests
/// (or out of a failed one) would poison unrelated suites.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

void ExpectSameAnswer(const BoostResult& a, const BoostResult& b) {
  EXPECT_EQ(a.best_set, b.best_set);
  EXPECT_EQ(a.best_estimate, b.best_estimate);
  EXPECT_EQ(a.lb_set, b.lb_set);
  EXPECT_EQ(a.lb_mu_hat, b.lb_mu_hat);
  EXPECT_EQ(a.delta_set, b.delta_set);
  EXPECT_EQ(a.delta_delta_hat, b.delta_delta_hat);
}

TEST_F(ChaosTest, SnapshotLoadRetriesTransientFaultsUntilSuccess) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_retry.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());
  const BoostResult expect = reference.SolveForBudget(4);

  // The open fails twice, then heals — the classic transient fault shape.
  FaultInjector::Plan plan;
  plan.fail_first = 2;
  FaultInjector::Global().Arm(FaultSite::kSnapshotOpen, plan);

  BoostService::Options options;
  options.snapshot_retry.max_attempts = 5;
  options.snapshot_retry.initial_delay_micros = 50;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service.LoadPool("p", path).ok());
  EXPECT_EQ(FaultInjector::Global().hits(FaultSite::kSnapshotOpen), 3u);

  // The retries were absorbed, counted, and the answer is unharmed.
  ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.pools.size(), 1u);
  EXPECT_EQ(stats.pools[0].load_retries, 2u);
  BoostRequest request;
  request.pool = "p";
  request.k = 4;
  StatusOr<BoostResponse> r = service.Solve(request);
  ASSERT_TRUE(r.ok());
  ExpectSameAnswer(expect, r->result);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, SnapshotLoadGivesUpTypedAfterMaxAttempts) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_giveup.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());

  FaultInjector::Plan plan;
  plan.fail_first = 100;  // never heals within the budget
  FaultInjector::Global().Arm(FaultSite::kSnapshotRead, plan);

  BoostService::Options options;
  options.snapshot_retry.max_attempts = 3;
  options.snapshot_retry.initial_delay_micros = 50;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  Status s = (*service_or)->LoadPool("p", path);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // Exactly max_attempts loads ran, then the typed error surfaced.
  EXPECT_EQ(FaultInjector::Global().hits(FaultSite::kSnapshotRead), 3u);
  EXPECT_EQ((*service_or)->num_pools(), 0u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, MmapFaultsRetryLikeStreamFaults) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_mmap.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());

  FaultInjector::Plan plan;
  plan.fail_first = 1;
  FaultInjector::Global().Arm(FaultSite::kSnapshotMmap, plan);

  BoostService::Options options;
  options.mmap_pools = true;
  options.snapshot_retry.max_attempts = 3;
  options.snapshot_retry.initial_delay_micros = 50;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service.LoadPool("p", path).ok());
  EXPECT_EQ(service.Stats().pools[0].load_retries, 1u);
  BoostRequest request;
  request.pool = "p";
  request.k = 4;
  EXPECT_TRUE(service.Solve(request).ok());
  std::remove(path.c_str());
}

TEST_F(ChaosTest, AllocationPressureSurfacesAsResourceExhaustedAndRetries) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_alloc.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());

  // Direct load: the typed status reaches the caller un-retried.
  FaultInjector::Plan plan;
  plan.fail_first = 1;
  FaultInjector::Global().Arm(FaultSite::kAllocPressure, plan);
  EXPECT_EQ(LoadPoolSnapshot(g, path, PoolLoadOptions{}).status().code(),
            StatusCode::kResourceExhausted);

  // Service load: ResourceExhausted is transient, so the retry loop absorbs
  // it (the counter reset by Arm makes the next hit succeed).
  FaultInjector::Global().Arm(FaultSite::kAllocPressure, plan);
  BoostService::Options options;
  options.snapshot_retry.max_attempts = 3;
  options.snapshot_retry.initial_delay_micros = 50;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  ASSERT_TRUE((*service_or)->LoadPool("p", path).ok());
  EXPECT_EQ((*service_or)->Stats().pools[0].load_retries, 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, CorruptSnapshotIsPermanentAndNeverRetried) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_corrupt.pool");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::vector<char> garbage(512, 'x');  // wrong magic, full-size header
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  // Count load attempts through the (never-failing) open site.
  FaultInjector::Global().Arm(FaultSite::kSnapshotOpen, FaultInjector::Plan{});

  BoostService::Options options;
  options.snapshot_retry.max_attempts = 5;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  Status s = (*service_or)->LoadPool("p", path);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Corruption is permanent: one attempt, no backoff loop.
  EXPECT_EQ(FaultInjector::Global().hits(FaultSite::kSnapshotOpen), 1u);
  std::remove(path.c_str());
}

TEST_F(ChaosTest, RefreshRecordsRetriesEvenWhenTheLoadUltimatelyFails) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_refresh.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());

  BoostService::Options options;
  options.snapshot_retry.max_attempts = 2;
  options.snapshot_retry.initial_delay_micros = 50;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service.LoadPool("p", path).ok());

  FaultInjector::Plan plan;
  plan.fail_first = 100;
  FaultInjector::Global().Arm(FaultSite::kSnapshotOpen, plan);
  EXPECT_EQ(service.RefreshPoolFromSnapshot("p", path).code(),
            StatusCode::kIoError);
  FaultInjector::Global().DisarmAll();

  // The live entry kept serving and carries the retry evidence.
  EXPECT_EQ(service.Stats().pools[0].load_retries, 1u);
  BoostRequest request;
  request.pool = "p";
  request.k = 4;
  EXPECT_TRUE(service.Solve(request).ok());
  std::remove(path.c_str());
}

bool SameAnswer(const BoostResult& a, const BoostResult& b) {
  return a.best_set == b.best_set && a.best_estimate == b.best_estimate &&
         a.lb_set == b.lb_set && a.lb_mu_hat == b.lb_mu_hat &&
         a.delta_set == b.delta_set && a.delta_delta_hat == b.delta_delta_hat;
}

/// Re-save + REFRESH storm: one thread alternately saves pools A and B to
/// the path an mmap-serving service maps and refreshes the pool from it,
/// while four clients solve a fixed k-mix. A save renames a new file over
/// the path instead of rewriting the mapped one, so every served pool stays
/// whole: each answer is A's or B's serial reference, one pool_version is
/// always one pool, nothing errors, and no admission slot leaks.
TEST_F(ChaosTest, ResaveAndRefreshStormUnderMmapServesWholePools) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_resave.pool");
  BoostOptions options_b = MakeOptions(10);
  options_b.seed = 23;
  BoostSession pool_a(g, {0, 1}, MakeOptions(8));
  BoostSession pool_b(g, {2, 3}, options_b);
  const std::vector<size_t> ks = {1, 4, 8};
  std::vector<BoostResult> reference_a, reference_b;
  for (size_t k : ks) {
    reference_a.push_back(pool_a.SolveForBudget(k));
    reference_b.push_back(pool_b.SolveForBudget(k));
  }
  ASSERT_FALSE(SameAnswer(reference_a.back(), reference_b.back()));
  ASSERT_TRUE(SavePoolSnapshot(pool_a, path, PoolSaveOptions{}).ok());

  BoostService::Options options;
  options.mmap_pools = true;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service.LoadPool("p", path).ok());

  // Each client logs (pool_version, which pool answered: 0 = A, 1 = B).
  constexpr size_t kClients = 4;
  std::vector<std::vector<std::pair<uint64_t, int>>> seen(kClients);
  std::atomic<size_t> errors{0};
  std::atomic<size_t> foreign{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        const size_t q = i % ks.size();
        BoostRequest request;
        request.pool = "p";
        request.k = ks[q];
        StatusOr<BoostResponse> r = service.Solve(request);
        if (!r.ok()) {
          errors.fetch_add(1);
        } else if (SameAnswer(r->result, reference_a[q])) {
          seen[t].emplace_back(r->pool_version, 0);
        } else if (SameAnswer(r->result, reference_b[q])) {
          seen[t].emplace_back(r->pool_version, 1);
        } else {
          foreign.fetch_add(1);
        }
      }
    });
  }
  constexpr int kRounds = 6;
  size_t refresh_failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    const BoostSession& next = round % 2 == 0 ? pool_b : pool_a;
    if (!SavePoolSnapshot(next, path, PoolSaveOptions{}).ok() ||
        !service.RefreshPoolFromSnapshot("p", path).ok()) {
      ++refresh_failures;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& c : clients) c.join();

  EXPECT_EQ(refresh_failures, 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(foreign.load(), 0u);
  // Version 1 is the initial load of A; refresh v serves B for even v.
  size_t answered = 0;
  for (const auto& log : seen) {
    for (const auto& [version, which] : log) {
      EXPECT_EQ(which, version % 2 == 0 ? 1 : 0) << "version " << version;
      ++answered;
    }
  }
  EXPECT_GT(answered, 0u);
  EXPECT_EQ(service.PoolVersion("p"), 1u + kRounds);
  ServiceStatsSnapshot stats = service.Stats();
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
  std::remove(path.c_str());
}

/// Deadline storm: every request carries a deadline far below the injected
/// solve time. All of them must come back typed DeadlineExceeded (or OK if
/// one slips under), nothing crashes, and a deadline-free replay afterwards
/// records zero additional misses and bit-identical answers.
TEST_F(ChaosTest, DeadlineStormShedsTypedAndRepliesCleanAfterward) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1},
                                    MakeOptions(8)))
                  .ok());
  const BoostResult expect =
      BoostSession(g, {0, 1}, MakeOptions(8)).SolveForBudget(8);

  // Every solve stalls 20 ms at entry; the storm's deadlines are 2 ms.
  FaultInjector::Plan slow;
  slow.delay_micros = 20000;
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  constexpr size_t kClients = 4;
  constexpr int kPerClient = 3;
  std::atomic<size_t> missed{0};
  std::atomic<size_t> ok{0};
  std::atomic<size_t> untyped{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        BoostRequest request;
        request.pool = "p";
        request.k = 8;
        request.deadline_ms = 2;
        StatusOr<BoostResponse> r = service.Solve(request);
        if (r.ok()) {
          ok.fetch_add(1);
        } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
          missed.fetch_add(1);
        } else {
          untyped.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(untyped.load(), 0u);
  EXPECT_EQ(ok.load() + missed.load(), kClients * kPerClient);
  EXPECT_GT(missed.load(), 0u);
  EXPECT_EQ(service.Stats().pools[0].deadline_misses, missed.load());

  // Deadline-free replay on the recovered service: zero new misses, answers
  // bit-identical to the fault-free reference.
  FaultInjector::Global().DisarmAll();
  const uint64_t misses_before = service.Stats().pools[0].deadline_misses;
  for (int i = 0; i < 3; ++i) {
    BoostRequest request;
    request.pool = "p";
    request.k = 8;
    StatusOr<BoostResponse> r = service.Solve(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->degraded);
    ExpectSameAnswer(expect, r->result);
  }
  EXPECT_EQ(service.Stats().pools[0].deadline_misses, misses_before);
}

/// Queue saturation under lifecycle churn: a small admission budget, slow
/// injected solves, 2× more clients than capacity, while another thread
/// adds/refreshes/removes pools. Excess load sheds typed; when the storm
/// drains, no admission slot has leaked.
TEST_F(ChaosTest, QueueSaturationShedsTypedWithNoSlotLeaks) {
  DirectedGraph g = MakeTestGraph();
  BoostService::Options options;
  options.max_in_flight = 2;
  options.max_queued = 2;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1},
                                    MakeOptions(8)))
                  .ok());

  FaultInjector::Plan slow;
  slow.delay_micros = 5000;  // 5 ms per solve: a queue forms immediately
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  constexpr size_t kClients = 8;  // 2x the in-flight + queued capacity
  constexpr int kPerClient = 4;
  std::atomic<size_t> answered{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> untyped{0};
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    // Registry churn racing the saturated query path: the overload
    // machinery must not deadlock with, or corrupt, lifecycle mutations.
    int round = 0;
    while (!stop_churn.load(std::memory_order_relaxed)) {
      const std::string name = "churn" + std::to_string(round % 2);
      if (service.AddPool(name, std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0}, MakeOptions(4)))
              .ok()) {
        service
            .RefreshPool(name, std::make_unique<BoostSession>(
                                   g, std::vector<NodeId>{0}, MakeOptions(4)))
            .ok();
        service.RemovePool(name).ok();
      }
      ++round;
    }
  });
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < kPerClient; ++i) {
        BoostRequest request;
        request.pool = "p";
        request.k = 4;
        StatusOr<BoostResponse> r = service.Solve(request);
        if (r.ok()) {
          answered.fetch_add(1);
        } else if (r.status().code() == StatusCode::kResourceExhausted) {
          shed.fetch_add(1);
        } else {
          untyped.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  stop_churn.store(true);
  churn.join();

  EXPECT_EQ(untyped.load(), 0u);
  EXPECT_EQ(answered.load() + shed.load(), kClients * kPerClient);
  EXPECT_GT(shed.load(), 0u);

  ServiceStatsSnapshot stats = service.Stats();
  // No slot leaks: the storm drained, so the gauges must read empty and the
  // lifetime counters must reconcile exactly with what the clients saw.
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.shed, shed.load());
  ASSERT_EQ(stats.pools.size(), 1u);
  EXPECT_EQ(stats.pools[0].queries, answered.load());
  EXPECT_EQ(stats.pools[0].shed, shed.load());
  // Sheds are neither queries nor errors.
  EXPECT_EQ(stats.pools[0].errors, 0u);

  // The service is fully usable after the storm.
  FaultInjector::Global().DisarmAll();
  BoostRequest request;
  request.pool = "p";
  request.k = 4;
  EXPECT_TRUE(service.Solve(request).ok());
}

TEST_F(ChaosTest, QueuedRequestsTimeOutTypedWhenTheirDeadlinePasses) {
  DirectedGraph g = MakeTestGraph();
  BoostService::Options options;
  options.max_in_flight = 1;
  options.max_queued = 4;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1},
                                    MakeOptions(6)))
                  .ok());

  FaultInjector::Plan slow;
  slow.delay_micros = 50000;  // the slot holder solves for >= 50 ms
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  std::thread holder([&] {
    BoostRequest request;
    request.pool = "p";
    request.k = 4;
    EXPECT_TRUE(service.Solve(request).ok());
  });
  // Give the holder time to take the only slot, then queue behind it with a
  // deadline far shorter than its injected solve time.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  BoostRequest hopeless;
  hopeless.pool = "p";
  hopeless.k = 4;
  hopeless.deadline_ms = 5;
  StatusOr<BoostResponse> r = service.Solve(hopeless);
  holder.join();
  // Either the queue wait timed out (the expected path) or — if the holder
  // finished implausibly fast — the solve itself ran; both must be typed.
  if (!r.ok()) {
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_GE(service.Stats().queue_timeouts, 1u);
    EXPECT_GE(service.Stats().pools[0].deadline_misses, 1u);
  }
  EXPECT_EQ(service.Stats().in_flight, 0u);
  EXPECT_EQ(service.Stats().queued, 0u);
}

/// Under load pressure past the configured factor, kAuto requests downgrade
/// to the LB answer (stamped degraded) — and the degraded answer is exactly
/// the pool's kLbOnly answer, not an approximation of it.
TEST_F(ChaosTest, DegradedAnswersMatchExplicitLbOnlyBitForBit) {
  DirectedGraph g = MakeTestGraph();
  BoostService::Options options;
  options.max_in_flight = 1;
  options.max_queued = 2;
  options.degrade_load_factor = 0.1;  // any occupancy at all degrades
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g, options);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1},
                                    MakeOptions(8)))
                  .ok());

  // Admitting this request puts occupancy at 1/3 >= 0.1, so the service
  // downgrades it.
  BoostRequest request;
  request.pool = "p";
  request.k = 6;
  StatusOr<BoostResponse> degraded = service.Solve(request);
  ASSERT_TRUE(degraded.ok());
  EXPECT_TRUE(degraded->degraded);
  EXPECT_TRUE(degraded->result.delta_set.empty());  // no Δ̂ selection ran

  // Reference: the same pool's explicit LB-only answer, unloaded.
  BoostRequest lb = request;
  lb.mode = SolveMode::kLbOnly;
  BoostService::Options calm;
  StatusOr<std::unique_ptr<BoostService>> calm_or =
      BoostService::Create(g, calm);
  ASSERT_TRUE(calm_or.ok());
  ASSERT_TRUE((*calm_or)
                  ->AddPool("p", std::make_unique<BoostSession>(
                                     g, std::vector<NodeId>{0, 1},
                                     MakeOptions(8)))
                  .ok());
  StatusOr<BoostResponse> reference = (*calm_or)->Solve(lb);
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference->degraded);  // explicit mode is never "degraded"
  ExpectSameAnswer(reference->result, degraded->result);

  // Explicit kFull is honored even under the same pressure.
  BoostRequest full = request;
  full.mode = SolveMode::kFull;
  StatusOr<BoostResponse> honored = service.Solve(full);
  ASSERT_TRUE(honored.ok());
  EXPECT_FALSE(honored->degraded);
  EXPECT_FALSE(honored->result.delta_set.empty());

  EXPECT_EQ(service.Stats().pools[0].degraded, 1u);
}

}  // namespace
}  // namespace kboost
