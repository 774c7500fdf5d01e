// The chaos harness: deterministic fault injection (src/util/fault.h)
// driven against the serving stack — snapshot-load faults that each fail
// one load attempt typed, corrupt, missing and truncated files, failed
// refreshes of a live pool, re-saves under an mmap-served pool — and
// stalled solves racing lifecycle churn
// (add/refresh/remove). The invariant under every storm: no crash, no
// untyped error, every request answered and counted, and every answer
// bit-identical to the fault-free reference. Runs under the ASan/UBSan job
// and the TSan job in CI.

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

/// Every test disarms on entry and exit: an armed site leaking across tests
/// (or out of a failed one) would poison unrelated suites.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().DisarmAll(); }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }
};

BoostRequest Request(size_t k) {
  BoostRequest request;
  request.pool = "p";
  request.k = k;
  return request;
}

/// Every injected load fault surfaces typed on the load's one attempt: the
/// site is hit once, nothing is registered, and the next load of the same
/// file (the fault is spent) serves the pool bit-identically.
TEST_F(ChaosTest, EachLoadFaultSurfacesTypedOnItsOneAttempt) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_fault.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());
  const BoostResult expect = reference.SolveForBudget(4);

  const struct {
    FaultSite site;
    bool mmap;
    StatusCode code;
  } rows[] = {
      {FaultSite::kSnapshotOpen, false, StatusCode::kIoError},
      {FaultSite::kSnapshotRead, false, StatusCode::kIoError},
      {FaultSite::kSnapshotMmap, true, StatusCode::kIoError},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(FaultSiteName(row.site));
    BoostService::Options options;
    options.mmap_pools = row.mmap;
    StatusOr<std::unique_ptr<BoostService>> service_or =
        BoostService::Create(g, options);
    ASSERT_TRUE(service_or.ok());
    BoostService& service = **service_or;

    FaultInjector::Plan plan;
    plan.fail_first = 1;
    FaultInjector::Global().Arm(row.site, plan);
    EXPECT_EQ(service.LoadPool("p", path).code(), row.code);
    EXPECT_EQ(FaultInjector::Global().hits(row.site), 1u);
    EXPECT_EQ(service.num_pools(), 0u);

    ASSERT_TRUE(service.LoadPool("p", path).ok());
    StatusOr<BoostResponse> r = service.Solve(Request(4));
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(SameAnswer(expect, r->result));
    FaultInjector::Global().DisarmAll();
  }
  std::remove(path.c_str());
}

/// A file that cannot be a snapshot fails on the first attempt with its
/// typed status: garbage, a missing path, an empty file, one cut inside its
/// header and one cut inside its seed list. Each input is opened exactly
/// once and registers nothing.
TEST_F(ChaosTest, CorruptSnapshotIsPermanentAndNeverRetried) {
  DirectedGraph g = MakeTestGraph();
  const std::string valid = TempPath("kboost_chaos_valid.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(valid).ok());
  // The 120-byte header, then the two seeds' 8 bytes: cut at 100 and 124.
  std::string prefix_bytes(124, '\0');
  {
    std::ifstream in(valid, std::ios::binary);
    ASSERT_TRUE(in.read(prefix_bytes.data(), 124));
  }
  std::remove(valid.c_str());

  const struct {
    const char* name;
    std::string bytes;  // written to the path unless `missing`
    bool missing;
    StatusCode code;
  } rows[] = {
      // Wrong magic, full-size header.
      {"garbage", std::string(512, 'x'), false, StatusCode::kInvalidArgument},
      {"missing", "", true, StatusCode::kIoError},
      {"empty", "", false, StatusCode::kIoError},
      {"header-truncated", prefix_bytes.substr(0, 100), false,
       StatusCode::kIoError},
      {"seed-list-truncated", prefix_bytes, false, StatusCode::kIoError},
  };
  const std::string path = TempPath("kboost_chaos_corrupt.pool");
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  for (const auto& row : rows) {
    SCOPED_TRACE(row.name);
    std::remove(path.c_str());
    if (!row.missing) {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(row.bytes.data(),
                static_cast<std::streamsize>(row.bytes.size()));
    }
    // Count load attempts through the (never-failing) open site.
    FaultInjector::Global().Arm(FaultSite::kSnapshotOpen,
                                FaultInjector::Plan{});
    EXPECT_EQ((*service_or)->LoadPool("p", path).code(), row.code);
    EXPECT_EQ(FaultInjector::Global().hits(FaultSite::kSnapshotOpen), 1u);
    EXPECT_EQ((*service_or)->num_pools(), 0u);
  }
  std::remove(path.c_str());
}

/// A refresh whose load fails — an injected open fault, or a path that does
/// not exist — returns the typed error after one attempt and leaves the
/// live pool serving: same version, no refresh counted, same bits.
TEST_F(ChaosTest, FailedRefreshLeavesTheLivePoolUnchanged) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_chaos_refresh.pool");
  BoostSession reference(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(reference.SavePool(path).ok());

  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service.LoadPool("p", path).ok());
  StatusOr<BoostResponse> before = service.Solve(Request(4));
  ASSERT_TRUE(before.ok());

  FaultInjector::Plan plan;
  plan.fail_first = 1;
  FaultInjector::Global().Arm(FaultSite::kSnapshotOpen, plan);
  EXPECT_EQ(service.RefreshPoolFromSnapshot("p", path).code(),
            StatusCode::kIoError);
  EXPECT_EQ(FaultInjector::Global().hits(FaultSite::kSnapshotOpen), 1u);
  FaultInjector::Global().DisarmAll();
  EXPECT_EQ(service.RefreshPoolFromSnapshot("p", path + ".missing").code(),
            StatusCode::kIoError);

  EXPECT_EQ(service.PoolVersion("p"), before->pool_version);
  EXPECT_EQ(service.Stats().pools[0].refreshes, 0u);
  StatusOr<BoostResponse> after = service.Solve(Request(4));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->pool_version, before->pool_version);
  EXPECT_TRUE(SameAnswer(before->result, after->result));
  std::remove(path.c_str());
}

/// True when the file now at `path` is mapped into this process. Owned and
/// mmap loads both bind their arenas over snapshot bytes, so the mapping
/// itself is what tells an mmap-served pool from a private copy. A mapping
/// of a file since renamed over reads "path (deleted)" and does not count.
bool FileIsMapped(const std::string& path) {
  std::error_code error;
  const std::string canonical = std::filesystem::canonical(path, error);
  if (error) return false;
  std::ifstream maps("/proc/self/maps");
  for (std::string line; std::getline(maps, line);) {
    if (line.ends_with(" " + canonical)) return true;
  }
  return false;
}

/// Re-save + REFRESH storm: one thread alternately saves pools A and B to
/// the path an mmap-serving service maps and refreshes the pool from it,
/// while four clients solve a fixed k-mix. A save renames a new file over
/// the path instead of rewriting the mapped one, so every served pool stays
/// whole: each answer is A's or B's serial reference, one pool_version is
/// always one pool, and nothing errors. The pool served last is really
/// served from a mapping of the file at the path.
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
  EXPECT_TRUE(FileIsMapped(path)) << "the mmap refresh installed a copy";
  std::remove(path.c_str());
}

/// Stalled solves under lifecycle churn: eight clients whose solves each
/// stall 5 ms at entry, while another thread adds/refreshes/removes pools.
/// Every request is answered, bit-identical to the serial reference, and
/// counted as a query; afterwards the service answers as before.
TEST_F(ChaosTest, StalledSolvesUnderChurnAnswerEveryRequestBitIdentically) {
  DirectedGraph g = MakeTestGraph();
  StatusOr<std::unique_ptr<BoostService>> service_or = BoostService::Create(g);
  ASSERT_TRUE(service_or.ok());
  BoostService& service = **service_or;
  ASSERT_TRUE(service
                  .AddPool("p", std::make_unique<BoostSession>(
                                    g, std::vector<NodeId>{0, 1},
                                    MakeOptions(8)))
                  .ok());
  const std::vector<size_t> ks = {1, 4, 8};
  std::vector<BoostResult> reference;
  {
    BoostSession serial(g, {0, 1}, MakeOptions(8));
    for (size_t k : ks) reference.push_back(serial.SolveForBudget(k));
  }

  FaultInjector::Plan slow;
  slow.delay_micros = 5000;  // 5 ms per solve: all eight overlap
  FaultInjector::Global().Arm(FaultSite::kSolveStart, slow);

  constexpr size_t kClients = 8;
  constexpr int kPerClient = 4;
  std::atomic<size_t> answered{0};
  std::atomic<size_t> divergent{0};
  std::atomic<size_t> untyped{0};
  std::atomic<bool> stop_churn{false};
  std::thread churn([&] {
    // Registry churn racing the stalled query path: lookups must not
    // deadlock with, or be corrupted by, lifecycle mutations.
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
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerClient; ++i) {
        const size_t q = (t + i) % ks.size();
        BoostRequest request;
        request.pool = "p";
        request.k = ks[q];
        StatusOr<BoostResponse> r = service.Solve(request);
        if (r.ok()) {
          answered.fetch_add(1);
          if (!SameAnswer(r->result, reference[q])) divergent.fetch_add(1);
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
  EXPECT_EQ(divergent.load(), 0u);
  EXPECT_EQ(answered.load(), kClients * kPerClient);

  // The lifetime counters reconcile exactly with what the clients saw.
  ServiceStatsSnapshot stats = service.Stats();
  ASSERT_EQ(stats.pools.size(), 1u);
  EXPECT_EQ(stats.pools[0].queries, answered.load());
  EXPECT_EQ(stats.pools[0].errors, 0u);

  // The service is fully usable after the storm.
  FaultInjector::Global().DisarmAll();
  BoostRequest request;
  request.pool = "p";
  request.k = 4;
  EXPECT_TRUE(service.Solve(request).ok());
}

}  // namespace
}  // namespace kboost
