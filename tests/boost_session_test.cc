#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/util/rng.h"
#include "tests/digest.h"
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

/// Digests a pool's realization: every stored graph's global ids, packed
/// out-edges (with their offsets) and critical locals, in stored order,
/// plus θ and the boostable/activated/hopeless counts.
uint64_t PoolDigest(const PrrCollection& collection) {
  Digest digest;
  const PrrStore& store = collection.store();
  digest.Add(store.num_graphs());
  for (size_t g = 0; g < store.num_graphs(); ++g) {
    const PrrGraphView view = store.View(g);
    const uint32_t n = view.num_nodes();
    digest.Add({view.global_ids, n});
    digest.Add({view.out_offsets, n + 1});
    digest.Add({view.out_edges, view.num_edges()});
    digest.Add(view.critical());
  }
  digest.Add(collection.num_samples());
  digest.Add(collection.num_boostable());
  digest.Add(collection.num_activated());
  digest.Add(collection.num_hopeless());
  return digest.value();
}

TEST(BoostSessionTest, NestedBudgetInvariantInLbMode) {
  DirectedGraph g = MakeTestGraph();
  BoostSession session(g, {0, 1, 2}, MakeOptions(16), /*lb_only=*/true);
  BoostResult full = SolveAt(session, 16);
  // Greedy on the submodular μ̂ yields nested solutions: every smaller
  // budget's answer is a prefix of the largest budget's.
  for (size_t k : {1, 2, 5, 9, 13}) {
    BoostResult r = SolveAt(session, k);
    ASSERT_LE(r.best_set.size(), full.best_set.size());
    for (size_t i = 0; i < r.best_set.size(); ++i) {
      EXPECT_EQ(r.best_set[i], full.best_set[i]) << "prefix diverges at " << i;
    }
    // μ̂ grows monotonically along the prefix chain.
    EXPECT_LE(r.lb_mu_hat, full.lb_mu_hat + 1e-12);
  }
}

/// Pins one small pool's realization. Every other test compares pools with
/// each other, so a sampler change that draws a different but
/// self-consistent pool would pass them all; this one fails instead. The
/// digest never depends on the thread count. Update the constant only for a
/// deliberate change to sampling.
TEST(BoostSessionTest, PoolRealizationIsPinned) {
  DirectedGraph g = MakeTestGraph();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    BoostOptions options = MakeOptions(8);
    options.num_threads = threads;
    BoostSession session(g, {0, 1, 2}, options);
    session.Prepare();
    const PrrCollection& collection = session.collection();
    ASSERT_GT(collection.num_stored_graphs(), 0u);
    EXPECT_EQ(PoolDigest(collection), 0x1FF4E964B5B95402ULL)
        << std::hex << "0x" << PoolDigest(collection);
  }
}

TEST(BoostSessionTest, SweepSamplesThePoolExactlyOnce) {
  DirectedGraph g = MakeTestGraph();
  BoostSession session(g, {0, 1}, MakeOptions(12));
  EXPECT_FALSE(session.prepared());
  session.Prepare();
  EXPECT_TRUE(session.prepared());
  const PrrCollection* pool = &session.collection();
  const size_t theta = pool->num_samples();
  const uint64_t digest = PoolDigest(*pool);
  for (size_t k : {1, 4, 8, 12}) {
    BoostResult r = SolveAt(session, k);
    EXPECT_EQ(r.pool_budget, 12u);
    EXPECT_EQ(r.num_samples, theta) << "pool changed mid-sweep";
  }
  // A second Prepare() samples nothing: same collection, same θ and graphs.
  session.Prepare();
  EXPECT_EQ(&session.collection(), pool);
  EXPECT_EQ(pool->num_samples(), theta);
  EXPECT_EQ(PoolDigest(*pool), digest);
}

TEST(BoostSessionTest, SweepAnswersMatchAFreshRunAtTheSameBudget) {
  DirectedGraph g = MakeTestGraph();
  const std::vector<NodeId> seeds = {0, 1, 2};
  // Session answers after sweeping down from k_max...
  BoostSession session(g, seeds, MakeOptions(12));
  BoostResult at_12 = SolveAt(session, 12);
  BoostResult at_5 = SolveAt(session, 5);

  // ...must equal a one-shot run at k_max (identical schedule and pool)...
  BoostResult fresh_12 = PrrBoost(g, seeds, MakeOptions(12));
  EXPECT_EQ(at_12.best_set, fresh_12.best_set);
  EXPECT_EQ(at_12.lb_set, fresh_12.lb_set);
  EXPECT_EQ(at_12.delta_set, fresh_12.delta_set);
  EXPECT_EQ(at_12.best_estimate, fresh_12.best_estimate);
  EXPECT_EQ(at_12.num_samples, fresh_12.num_samples);

  // ...and a second session over the same pool budget answering k=5 first
  // (an answer must not depend on the budgets asked before it).
  BoostSession direct(g, seeds, MakeOptions(12));
  BoostResult direct_5 = SolveAt(direct, 5);
  EXPECT_EQ(at_5.best_set, direct_5.best_set);
  EXPECT_EQ(at_5.lb_set, direct_5.lb_set);
  EXPECT_EQ(at_5.delta_set, direct_5.delta_set);
  EXPECT_EQ(at_5.best_estimate, direct_5.best_estimate);
}

TEST(BoostSessionTest, LbModeMatchesPrrBoostLbAtFullBudget) {
  DirectedGraph g = MakeTestGraph(9);
  const std::vector<NodeId> seeds = {3, 4};
  BoostSession session(g, seeds, MakeOptions(10), /*lb_only=*/true);
  BoostResult session_result = SolveAt(session, 10);
  BoostResult fresh = PrrBoostLb(g, seeds, MakeOptions(10));
  EXPECT_EQ(session_result.best_set, fresh.best_set);
  EXPECT_EQ(session_result.lb_mu_hat, fresh.lb_mu_hat);
  EXPECT_EQ(session_result.num_samples, fresh.num_samples);
}

StatusOr<std::unique_ptr<BoostSession>> LoadOwned(const DirectedGraph& g,
                                                  const std::string& path) {
  return LoadPoolSnapshot(g, path, PoolLoadOptions{});
}

class PoolRoundTripTest : public ::testing::TestWithParam<bool> {};

TEST_P(PoolRoundTripTest, SaveLoadSolveIsBitIdentical) {
  const bool lb_only = GetParam();
  DirectedGraph g = MakeTestGraph(13);
  const std::vector<NodeId> seeds = {0, 5};
  const std::string path = TempPath(lb_only ? "kboost_pool_lb.bin"
                                            : "kboost_pool_full.bin");

  BoostSession session(g, seeds, MakeOptions(10), lb_only);
  ASSERT_TRUE(session.SavePool(path).ok());

  StatusOr<std::unique_ptr<BoostSession>> loaded = LoadOwned(g, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  BoostSession& warm = *loaded.value();
  EXPECT_TRUE(warm.prepared());
  EXPECT_EQ(warm.lb_only(), lb_only);
  EXPECT_EQ(warm.budget(), 10u);
  EXPECT_EQ(warm.seeds(), seeds);
  EXPECT_EQ(warm.collection().num_samples(),
            session.collection().num_samples());
  EXPECT_EQ(warm.collection().StoredGraphBytes(),
            session.collection().StoredGraphBytes());

  for (size_t k : {2, 6, 10}) {
    BoostResult a = SolveAt(session, k);
    BoostResult b = SolveAt(warm, k);
    EXPECT_EQ(a.best_set, b.best_set);
    EXPECT_EQ(a.lb_set, b.lb_set);
    EXPECT_EQ(a.delta_set, b.delta_set);
    // Bit-identical estimates, not just approximately equal.
    EXPECT_EQ(a.best_estimate, b.best_estimate);
    EXPECT_EQ(a.lb_mu_hat, b.lb_mu_hat);
    EXPECT_EQ(a.lb_delta_hat, b.lb_delta_hat);
    EXPECT_EQ(a.delta_delta_hat, b.delta_delta_hat);
    EXPECT_EQ(a.num_samples, b.num_samples);
    EXPECT_EQ(a.num_boostable, b.num_boostable);
    EXPECT_EQ(a.avg_compressed_edges, b.avg_compressed_edges);
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Modes, PoolRoundTripTest, ::testing::Bool());

TEST(PoolIoTest, SaveRequiresAPreparedPool) {
  DirectedGraph g = MakeTestGraph();
  BoostSession session(g, {0}, MakeOptions(5));
  // The free function demands a prepared pool; the member auto-prepares.
  EXPECT_FALSE(SavePoolSnapshot(session, TempPath("kboost_never.bin"),
                                PoolSaveOptions{})
                   .ok());
}

TEST(PoolIoTest, LoadRejectsMissingGarbageAndMismatchedSnapshots) {
  DirectedGraph g = MakeTestGraph();
  EXPECT_FALSE(LoadOwned(g, "/nonexistent/pool.bin").ok());

  const std::string garbage = TempPath("kboost_garbage.bin");
  FILE* f = fopen(garbage.c_str(), "wb");
  fputs("definitely not a pool snapshot", f);
  fclose(f);
  StatusOr<std::unique_ptr<BoostSession>> r = LoadOwned(g, garbage);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(garbage);

  // A valid snapshot against a graph with a different node count.
  const std::string path = TempPath("kboost_pool_mismatch.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(session.SavePool(path).ok());
  DirectedGraph other = MakeTestGraph(21);
  GraphBuilder small(10);
  small.AddEdge(0, 1, 0.5);
  DirectedGraph tiny = std::move(small).Build();
  EXPECT_FALSE(LoadOwned(tiny, path).ok());
  std::filesystem::remove(path);
}

TEST(PoolIoTest, InflatedHeaderCountsAreRejectedNotAllocated) {
  // A corrupt count must produce an error Status, not a multi-gigabyte
  // allocation. num_seeds sits at byte 72 of the header (after magic,
  // version, flags, n, budget, epsilon, ell, rng seed, max_samples,
  // num_threads, endianness marker).
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_pool_inflated.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(session.SavePool(path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(72);
    const uint64_t huge = uint64_t{1} << 60;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  StatusOr<std::unique_ptr<BoostSession>> r = LoadOwned(g, path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::filesystem::remove(path);
}

TEST(BoostSessionTest, ThreadCountsAnswerIdentically) {
  // Session-level fuzz over (threads, k): every combination must reproduce
  // the serial answers bit-for-bit.
  DirectedGraph g = MakeTestGraph(29);
  const std::vector<NodeId> seeds = {0, 1};
  BoostOptions reference_options = MakeOptions(10);
  reference_options.num_threads = 1;
  BoostSession reference(g, seeds, reference_options);
  Rng fuzz(737373);
  for (int combo = 0; combo < 4; ++combo) {
    BoostOptions options = MakeOptions(10);
    options.num_threads = 1 + static_cast<int>(fuzz.NextBounded(4));
    BoostSession session(g, seeds, options);
    const size_t k = 1 + fuzz.NextBounded(10);
    SCOPED_TRACE("threads=" + std::to_string(options.num_threads) +
                 " k=" + std::to_string(k));
    BoostResult a = SolveAt(reference, k);
    BoostResult b = SolveAt(session, k);
    EXPECT_EQ(a.best_set, b.best_set);
    EXPECT_EQ(a.lb_set, b.lb_set);
    EXPECT_EQ(a.delta_set, b.delta_set);
    EXPECT_EQ(a.best_estimate, b.best_estimate);
    EXPECT_EQ(a.lb_mu_hat, b.lb_mu_hat);
    EXPECT_EQ(a.num_samples, b.num_samples);
  }
}

TEST(PoolIoTest, TruncatedSnapshotFailsCleanly) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_pool_trunc.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(session.SavePool(path).ok());
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(LoadOwned(g, path).ok());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace kboost
