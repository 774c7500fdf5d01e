#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "src/baselines/high_degree.h"
#include "src/baselines/more_seeds.h"
#include "src/baselines/pagerank.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/sim/ic_model.h"
#include "src/util/rng.h"
#include "tests/digest.h"

namespace kboost {
namespace {

TEST(PageRankTest, ScoresSumToOne) {
  Rng rng(1);
  GraphBuilder b = BuildErdosRenyi(100, 600, rng);
  b.AssignConstantProbability(0.2);
  DirectedGraph g = std::move(b).Build();
  std::vector<double> pr = InfluencePageRank(g);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-6);
  for (double x : pr) EXPECT_GT(x, 0.0);
}

TEST(PageRankTest, InfluencerOutranksFollowers) {
  // Star hub influences many leaves; leaves "vote" for the hub, so the hub
  // must hold the top score.
  GraphBuilder b = BuildOutStar(20);
  b.AssignConstantProbability(0.5);
  DirectedGraph g = std::move(b).Build();
  std::vector<double> pr = InfluencePageRank(g);
  for (NodeId leaf = 1; leaf <= 20; ++leaf) EXPECT_GT(pr[0], pr[leaf]);
}

TEST(PageRankTest, BoostExcludesSeedsAndRespectsK) {
  Rng rng(2);
  GraphBuilder b = BuildErdosRenyi(50, 300, rng);
  b.AssignConstantProbability(0.2);
  DirectedGraph g = std::move(b).Build();
  std::vector<NodeId> picks = PageRankBoost(g, {0, 1}, 10);
  EXPECT_EQ(picks.size(), 10u);
  for (NodeId v : picks) EXPECT_GT(v, 1u);
}

TEST(PageRankTest, DanglingMassDoesNotExplode) {
  // A graph where many nodes have no incoming influence at all.
  GraphBuilder b = BuildDirectedPath(10);
  b.AssignConstantProbability(0.5);
  DirectedGraph g = std::move(b).Build();
  std::vector<double> pr = InfluencePageRank(g);
  EXPECT_NEAR(std::accumulate(pr.begin(), pr.end(), 0.0), 1.0, 1e-6);
}

TEST(HighDegreeTest, GlobalPicksHighestOutProbabilitySum) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.9, 0.95).AddEdge(0, 2, 0.9, 0.95);  // node 0: sum 1.8
  b.AddEdge(3, 1, 0.5, 0.6);                            // node 3: sum 0.5
  DirectedGraph g = std::move(b).Build();
  std::vector<NodeId> picks =
      HighDegreeGlobal(g, {1}, 1, DegreeKind::kOutProbabilitySum);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 0u);
}

TEST(HighDegreeTest, BoostGapKindPrefersBoostableTargets) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5, 0.5);  // no gap into 1
  b.AddEdge(0, 2, 0.2, 0.9);  // large gap into 2
  DirectedGraph g = std::move(b).Build();
  std::vector<NodeId> picks =
      HighDegreeGlobal(g, {0}, 1, DegreeKind::kInBoostGapSum);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], 2u);
}

TEST(HighDegreeTest, DiscountedAvoidsClusteredPicks) {
  // Nodes 0 and 1 point at the same targets; discounting makes the second
  // pick prefer node 2's fresh targets.
  GraphBuilder b(8);
  b.AddEdge(0, 3, 0.9, 0.9).AddEdge(0, 4, 0.9, 0.9);
  b.AddEdge(1, 0, 0.9, 0.9).AddEdge(1, 4, 0.8, 0.8);
  b.AddEdge(2, 5, 0.8, 0.8).AddEdge(2, 6, 0.8, 0.8);
  DirectedGraph g = std::move(b).Build();
  std::vector<NodeId> picks = HighDegreeGlobal(
      g, {7}, 2, DegreeKind::kOutProbabilitySumDiscount);
  ASSERT_EQ(picks.size(), 2u);
  EXPECT_EQ(picks[0], 0u);
  EXPECT_EQ(picks[1], 2u);  // 1's best target (0) is already picked
}

TEST(HighDegreeTest, LocalRestrictsToSeedNeighborhoodFirst) {
  // Seeds at 0; ring 1 = {1, 2}; a high-degree node 5 sits two hops out.
  GraphBuilder b(8);
  b.AddEdge(0, 1, 0.5, 0.6).AddEdge(0, 2, 0.5, 0.6);
  b.AddEdge(2, 5, 0.5, 0.6);
  b.AddEdge(5, 6, 0.9, 0.95).AddEdge(5, 7, 0.9, 0.95);
  DirectedGraph g = std::move(b).Build();
  std::vector<NodeId> local =
      HighDegreeLocal(g, {0}, 1, DegreeKind::kOutProbabilitySum);
  ASSERT_EQ(local.size(), 1u);
  // Ring 1 only contains 1 and 2; 5 is not eligible yet even though its
  // degree is larger.
  EXPECT_TRUE(local[0] == 1u || local[0] == 2u);

  std::vector<NodeId> global =
      HighDegreeGlobal(g, {0}, 1, DegreeKind::kOutProbabilitySum);
  EXPECT_EQ(global[0], 5u);
}

TEST(HighDegreeTest, AllVariantsReturnFourCandidateSets) {
  Rng rng(5);
  GraphBuilder b = BuildErdosRenyi(30, 150, rng);
  b.AssignConstantProbability(0.2);
  b.SetBoostWithBeta(2.0);
  DirectedGraph g = std::move(b).Build();
  auto global = HighDegreeGlobalAll(g, {0}, 5);
  auto local = HighDegreeLocalAll(g, {0}, 5);
  EXPECT_EQ(global.size(), 4u);
  EXPECT_EQ(local.size(), 4u);
  for (const auto& set : global) EXPECT_LE(set.size(), 5u);
}

TEST(MoreSeedsTest, PicksComplementaryNode) {
  // Two disjoint stars; seed owns star A, so the best extra seed is hub B.
  GraphBuilder b(10);
  for (NodeId leaf = 2; leaf <= 5; ++leaf) b.AddEdge(0, leaf, 0.9, 0.9);
  for (NodeId leaf = 6; leaf <= 9; ++leaf) b.AddEdge(1, leaf, 0.9, 0.9);
  DirectedGraph g = std::move(b).Build();
  ImmOptions opts;
  opts.k = 1;
  opts.epsilon = 0.3;
  std::vector<NodeId> more = SelectMoreSeeds(g, {0}, opts);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0], 1u);
}

TEST(MoreSeedsTest, NeverReturnsExistingSeeds) {
  Rng rng(6);
  GraphBuilder b = BuildErdosRenyi(40, 240, rng);
  b.AssignConstantProbability(0.2);
  DirectedGraph g = std::move(b).Build();
  ImmOptions opts;
  opts.k = 5;
  std::vector<NodeId> more = SelectMoreSeeds(g, {0, 1, 2}, opts);
  for (NodeId v : more) EXPECT_GT(v, 2u);
}

/// Pins MoreSeeds' picks on the digg stand-in at scale 0.05, beside 50
/// random seeds, at one and at four threads. The other MoreSeeds tests check
/// properties of a pick, so an RR-set sampling or index change that picks
/// differently would pass them; this one fails instead. Update the constant
/// only for a deliberate change to RR-set sampling or selection.
TEST(MoreSeedsTest, PicksArePinned) {
  const Dataset dataset = MakeDataset(SpecByName("digg", 0.05));
  const std::vector<NodeId> seeds =
      SelectRandomSeeds(dataset.graph, 50, /*seed=*/2017);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ImmOptions options;
    options.k = 20;
    options.seed = 2017;
    options.num_threads = threads;
    Digest digest;
    digest.Add(SelectMoreSeeds(dataset.graph, seeds, options));
    EXPECT_EQ(digest.value(), 0x209299E723BB4AE8ULL)
        << std::hex << "0x" << digest.value();
  }
}

}  // namespace
}  // namespace kboost
