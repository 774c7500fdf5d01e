#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/sim/boost_model.h"
#include "src/sim/ic_model.h"
#include "src/util/rng.h"
#include "tests/digest.h"

namespace kboost {
namespace {

/// The paper's Figure-1 graph: s(0) -> v0(1) -> v1(2).
DirectedGraph Fig1Graph() {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.2, 0.4);
  b.AddEdge(1, 2, 0.1, 0.2);
  return std::move(b).Build();
}

/// Draw `rng_seed` of G(n, m) with constant p and p' = 1 - (1-p)^beta.
DirectedGraph ErGraph(uint64_t rng_seed, NodeId n, size_t m, double p,
                      double beta) {
  Rng rng(rng_seed);
  GraphBuilder b = BuildErdosRenyi(n, m, rng);
  b.AssignConstantProbability(p);
  b.SetBoostWithBeta(beta);
  return std::move(b).Build();
}

TEST(ExactTest, Fig1MatchesPaperTable) {
  DirectedGraph g = Fig1Graph();
  const std::vector<NodeId> s = {0};
  EXPECT_NEAR(ExactBoostedSpread(g, s, {}), 1.22, 1e-6);
  EXPECT_NEAR(ExactBoostedSpread(g, s, {1}), 1.44, 1e-6);
  EXPECT_NEAR(ExactBoostedSpread(g, s, {2}), 1.24, 1e-6);
  EXPECT_NEAR(ExactBoostedSpread(g, s, {1, 2}), 1.48, 1e-6);
  EXPECT_NEAR(ExactBoost(g, s, {1}), 0.22, 1e-6);
  EXPECT_NEAR(ExactBoost(g, s, {2}), 0.02, 1e-6);
  EXPECT_NEAR(ExactBoost(g, s, {1, 2}), 0.26, 1e-6);
}

TEST(ExactTest, ExactSpreadEqualsBoostedSpreadWithEmptyBoost) {
  const DirectedGraph g = ErGraph(2, 8, 14, 0.3, 2.0);
  EXPECT_NEAR(ExactSpread(g, {0, 3}), ExactBoostedSpread(g, {0, 3}, {}),
              1e-12);
}

TEST(ExactTest, SeedOnlyGraphSpreadsOverComponent) {
  // Path 0 -> 1 -> 2 with p = 1: everything is reached.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 1.0, 1.0).AddEdge(1, 2, 1.0, 1.0);
  DirectedGraph g = std::move(b).Build();
  EXPECT_NEAR(ExactSpread(g, {0}), 3.0, 1e-12);
  EXPECT_NEAR(ExactSpread(g, {2}), 1.0, 1e-12);
}

TEST(ExactTest, BoostMonotoneInBoostSet) {
  const DirectedGraph g = ErGraph(5, 7, 12, 0.25, 3.0);
  double prev = ExactBoostedSpread(g, {0}, {});
  std::vector<NodeId> boost;
  for (NodeId v = 1; v < 7; ++v) {
    boost.push_back(v);
    double cur = ExactBoostedSpread(g, {0}, boost);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

TEST(MonteCarloTest, MatchesExactOnFig1) {
  DirectedGraph g = Fig1Graph();
  SimulationOptions opts;
  opts.num_simulations = 200000;
  opts.num_threads = 4;
  SpreadEstimate base = EstimateSpread(g, {0}, opts);
  EXPECT_NEAR(base.mean, 1.22, 5 * base.stderr_mean + 1e-3);

  SpreadEstimate boosted = EstimateBoostedSpread(g, {0}, {1}, opts);
  EXPECT_NEAR(boosted.mean, 1.44, 5 * boosted.stderr_mean + 1e-3);

  BoostEstimate boost = EstimateBoost(g, {0}, {1, 2}, opts);
  EXPECT_NEAR(boost.boost, 0.26, 5 * boost.boost_stderr + 1e-3);
}

TEST(MonteCarloTest, CoupledEstimatorHasNonNegativeSamples) {
  // The coupled Δ estimator can never produce a negative mean: base live
  // edges are a subset of boosted live edges in every world.
  const DirectedGraph g = ErGraph(8, 40, 200, 0.1, 4.0);
  BoostEstimate e = EstimateBoost(g, {0, 1}, {5, 6, 7}, {});
  EXPECT_GE(e.boost, 0.0);
  EXPECT_GE(e.boosted_spread, e.base_spread);
}

TEST(MonteCarloTest, DeterministicAcrossThreadCounts) {
  Rng rng(12);
  GraphBuilder b = BuildErdosRenyi(30, 150, rng);
  b.AssignConstantProbability(0.2);
  DirectedGraph g = std::move(b).Build();
  SimulationOptions one;
  one.num_simulations = 5000;
  one.num_threads = 1;
  SimulationOptions eight = one;
  eight.num_threads = 8;
  // Per-world counts are deterministic and are reduced in simulation order,
  // so the estimate is bit-identical at every thread count.
  const SpreadEstimate serial = EstimateSpread(g, {0}, one);
  const SpreadEstimate parallel = EstimateSpread(g, {0}, eight);
  EXPECT_EQ(serial.mean, parallel.mean);
  EXPECT_EQ(serial.stddev, parallel.stddev);
}

TEST(MonteCarloTest, MoreSeedsNeverReduceSpread) {
  Rng rng(14);
  GraphBuilder b = BuildErdosRenyi(50, 300, rng);
  b.AssignConstantProbability(0.15);
  DirectedGraph g = std::move(b).Build();
  SimulationOptions opts;
  opts.num_simulations = 4000;
  double one = EstimateSpread(g, {0}, opts).mean;
  double two = EstimateSpread(g, {0, 1}, opts).mean;
  EXPECT_GE(two, one);  // worlds are shared, so this holds exactly
}

TEST(MonteCarloTest, DuplicateSeedsAreIdempotent) {
  DirectedGraph g = Fig1Graph();
  SimulationOptions opts;
  opts.num_simulations = 1000;
  EXPECT_DOUBLE_EQ(EstimateSpread(g, {0}, opts).mean,
                   EstimateSpread(g, {0, 0, 0}, opts).mean);
}

/// Pins the bits of every field each estimator returns, Monte Carlo at one
/// and at four threads, on the instances of
/// CoupledEstimatorHasNonNegativeSamples and McVsExact/0. The other tests
/// here compare estimates with each other or with tolerances, so a change
/// to the diffusion loop or the reduction that moves the numbers but keeps
/// them plausible would pass them; this one fails instead.
TEST(SimPinTest, EstimatorOutputsArePinned) {
  const std::vector<NodeId> seeds = {0, 1};
  {
    const DirectedGraph g = ErGraph(8, 40, 200, 0.1, 4.0);
    const std::vector<NodeId> boost = {5, 6, 7};
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SimulationOptions opts;
      opts.num_simulations = 3000;
      opts.num_threads = threads;
      Digest digest;
      for (const SpreadEstimate& e :
           {EstimateSpread(g, seeds, opts),
            EstimateBoostedSpread(g, seeds, boost, opts)}) {
        digest.AddBits(e.mean);
        digest.AddBits(e.stddev);
        digest.AddBits(e.stderr_mean);
        digest.Add(e.num_simulations);
      }
      const BoostEstimate e = EstimateBoost(g, seeds, boost, opts);
      digest.AddBits(e.boost);
      digest.AddBits(e.boost_stderr);
      digest.AddBits(e.boosted_spread);
      digest.AddBits(e.base_spread);
      digest.Add(e.num_simulations);
      EXPECT_EQ(digest.value(), 0x1566A5F12C5B2BF0ULL)
          << std::hex << "0x" << digest.value();
    }
  }
  const DirectedGraph g = ErGraph(1017, 8, 14, 0.25, 2.0);
  const std::vector<NodeId> boost = {2, 3, 4};
  Digest digest;
  digest.AddBits(ExactSpread(g, seeds));
  digest.AddBits(ExactBoostedSpread(g, seeds, boost));
  digest.AddBits(ExactBoost(g, seeds, boost));
  EXPECT_EQ(digest.value(), 0xA97D4014F1DAD7CDULL)
      << std::hex << "0x" << digest.value();
}

/// A seed id out of range aborts before the first simulation, in every
/// build, with the message an out-of-range boost id gets.
TEST(SimDeathTest, OutOfRangeSeedAborts) {
  const DirectedGraph g = ErGraph(8, 40, 200, 0.1, 4.0);
  const NodeId n = static_cast<NodeId>(g.num_nodes());
  SimulationOptions opts;
  opts.num_simulations = 100;
  EXPECT_DEATH(EstimateBoost(g, {n}, {}, opts), "node 40 out of range");
  EXPECT_DEATH(EstimateBoost(g, {0, n + 1000}, {1}, opts), "out of range");
  EXPECT_DEATH(ExactBoostedSpread(Fig1Graph(), {3}, {}), "out of range");
}

TEST(MakeNodeBitmapTest, SetsRequestedBits) {
  std::vector<uint8_t> bm = MakeNodeBitmap(5, {1, 3});
  EXPECT_EQ(bm, (std::vector<uint8_t>{0, 1, 0, 1, 0}));
}

/// Property sweep: MC estimates track exact values on random small graphs.
class McVsExact : public ::testing::TestWithParam<int> {};

TEST_P(McVsExact, BoostEstimateMatchesExhaustiveEnumeration) {
  const DirectedGraph g = ErGraph(GetParam() * 1000 + 17, 8, 14,
                                  0.2 + 0.05 * (GetParam() % 4), 2.0);
  const std::vector<NodeId> seeds = {0, 1};
  const std::vector<NodeId> boost = {2, 3, 4};

  const double exact = ExactBoost(g, seeds, boost);
  SimulationOptions opts;
  opts.num_simulations = 150000;
  opts.num_threads = 4;
  opts.seed = GetParam();
  BoostEstimate mc = EstimateBoost(g, seeds, boost, opts);
  EXPECT_NEAR(mc.boost, exact, 6 * mc.boost_stderr + 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Random, McVsExact, ::testing::Range(1, 9));

}  // namespace
}  // namespace kboost
