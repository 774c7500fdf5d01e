#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/expt/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/im/coverage.h"
#include "src/im/imm.h"
#include "src/im/rr_set.h"
#include "src/sim/ic_model.h"
#include "src/util/rng.h"
#include "tests/digest.h"

namespace kboost {
namespace {

TEST(RrSetTest, ContainsRootAlways) {
  Rng rng(1);
  GraphBuilder b = BuildErdosRenyi(20, 60, rng);
  b.AssignConstantProbability(0.2);
  DirectedGraph g = std::move(b).Build();
  RrScratch scratch;
  for (int i = 0; i < 50; ++i) {
    std::vector<NodeId> rr;
    GenerateRrSet(g, 7, rng, scratch, rr);
    ASSERT_FALSE(rr.empty());
    EXPECT_EQ(rr[0], 7u);
  }
}

TEST(RrSetTest, DeterministicPathIncludesAllAncestors) {
  // 0 -> 1 -> 2 with p = 1: the RR set of 2 is {2, 1, 0}.
  GraphBuilder b = BuildDirectedPath(3);
  b.AssignConstantProbability(1.0);
  DirectedGraph g = std::move(b).Build();
  Rng rng(2);
  RrScratch scratch;
  std::vector<NodeId> rr;
  GenerateRrSet(g, 2, rng, scratch, rr);
  std::sort(rr.begin(), rr.end());
  EXPECT_EQ(rr, (std::vector<NodeId>{0, 1, 2}));
}

TEST(RrSetTest, ZeroProbabilityYieldsSingleton) {
  GraphBuilder b = BuildDirectedPath(3);
  b.AssignConstantProbability(0.0);
  DirectedGraph g = std::move(b).Build();
  Rng rng(3);
  RrScratch scratch;
  std::vector<NodeId> rr;
  GenerateRrSet(g, 2, rng, scratch, rr);
  EXPECT_EQ(rr, (std::vector<NodeId>{2}));
}

TEST(RrSetTest, MembershipProbabilityEqualsActivationProbability) {
  // For any u, Pr[u in RR(root)] must equal Pr[root activated | S={u}].
  // Path 0 -> 1 -> 2 with p = 0.5: Pr[0 in RR(2)] = 0.25.
  GraphBuilder b = BuildDirectedPath(3);
  b.AssignConstantProbability(0.5);
  DirectedGraph g = std::move(b).Build();
  Rng rng(4);
  RrScratch scratch;
  int hits = 0;
  const int trials = 100000;
  std::vector<NodeId> rr;
  for (int i = 0; i < trials; ++i) {
    rr.clear();
    GenerateRrSet(g, 2, rng, scratch, rr);
    hits += std::count(rr.begin(), rr.end(), 0u) > 0;
  }
  EXPECT_NEAR(hits / static_cast<double>(trials), 0.25, 0.006);
}

TEST(CoverageSelectorTest, GreedyPicksDominatingNode) {
  CoverageSelector sel(4);
  sel.AddSet(std::vector<NodeId>{0, 1});
  sel.AddSet(std::vector<NodeId>{0, 2});
  sel.AddSet(std::vector<NodeId>{0});
  sel.AddSet(std::vector<NodeId>{3});
  auto r = sel.SelectGreedy(1);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 0u);
  EXPECT_EQ(r.covered_sets, 3u);
  EXPECT_DOUBLE_EQ(r.coverage_fraction, 0.75);
}

TEST(CoverageSelectorTest, EmptySetsCountInDenominatorOnly) {
  CoverageSelector sel(2);
  sel.AddSet(std::vector<NodeId>{1});
  sel.AddEmptySet();
  sel.AddEmptySet();
  sel.AddEmptySet();
  auto r = sel.SelectGreedy(1);
  EXPECT_EQ(r.covered_sets, 1u);
  EXPECT_DOUBLE_EQ(r.coverage_fraction, 0.25);
  EXPECT_EQ(sel.num_sets(), 4u);
}

TEST(CoverageSelectorTest, ExclusionSkipsForbiddenNodes) {
  CoverageSelector sel(3);
  sel.AddSet(std::vector<NodeId>{0, 1});
  sel.AddSet(std::vector<NodeId>{0});
  std::vector<uint8_t> excluded = {1, 0, 0};
  auto r = sel.SelectGreedy(1, &excluded);
  ASSERT_EQ(r.selected.size(), 1u);
  EXPECT_EQ(r.selected[0], 1u);
  EXPECT_EQ(r.covered_sets, 1u);
}

TEST(CoverageSelectorTest, StopsWhenNothingLeftToCover) {
  CoverageSelector sel(5);
  sel.AddSet(std::vector<NodeId>{0});
  auto r = sel.SelectGreedy(3);
  EXPECT_EQ(r.selected.size(), 1u);  // nodes 1..4 cover nothing
}

TEST(CoverageSelectorTest, GreedyMatchesOptimalOnSmallInstance) {
  // Optimal 2-cover is {1, 2} (covers 4); plain degree order would pick 0.
  CoverageSelector sel(3);
  sel.AddSet(std::vector<NodeId>{0, 1});
  sel.AddSet(std::vector<NodeId>{0, 1});
  sel.AddSet(std::vector<NodeId>{0, 2});
  sel.AddSet(std::vector<NodeId>{2});
  auto r = sel.SelectGreedy(2);
  EXPECT_EQ(r.covered_sets, 4u);
}

TEST(ImmScheduleTest, StopsEarlyWithHighCoverage) {
  // A fake source where coverage is always 0.9: the first level must
  // terminate the search.
  size_t ensured = 0;
  ImmScheduleCallbacks cb;
  cb.ensure_samples = [&](size_t target) { return ensured = target; };
  cb.select_coverage = [&]() { return 0.9; };
  ImmBounds bounds{0.5, 1.0, 1024, 5};
  ImmScheduleResult r = RunImmSchedule(bounds, cb);
  EXPECT_EQ(r.levels_used, 1);
  EXPECT_GT(r.opt_lower_bound, 100.0);
  EXPECT_EQ(r.num_samples, ensured);
}

TEST(ImmScheduleTest, LowCoverageExhaustsLevels) {
  ImmScheduleCallbacks cb;
  size_t ensured = 0;
  cb.ensure_samples = [&](size_t target) { return ensured = target; };
  cb.select_coverage = [&]() { return 0.0; };
  ImmBounds bounds{0.5, 1.0, 256, 3};
  ImmScheduleResult r = RunImmSchedule(bounds, cb);
  EXPECT_EQ(r.levels_used, bounds.NumSearchLevels());
  EXPECT_DOUBLE_EQ(r.opt_lower_bound, 1.0);
}

TEST(ImmTest, PicksTheObviousHub) {
  // Star: hub 0 -> 40 leaves with p = 0.9. Any sensible IM picks the hub.
  GraphBuilder b = BuildOutStar(40);
  b.AssignConstantProbability(0.9);
  DirectedGraph g = std::move(b).Build();
  ImmOptions opts;
  opts.k = 1;
  opts.epsilon = 0.3;
  ImmResult r = SelectSeedsImm(g, opts);
  ASSERT_EQ(r.seeds.size(), 1u);
  EXPECT_EQ(r.seeds[0], 0u);
  EXPECT_NEAR(r.estimated_spread, 1 + 40 * 0.9, 4.0);
}

TEST(ImmTest, DeterministicAcrossThreadCounts) {
  Rng rng(6);
  GraphBuilder b = BuildErdosRenyi(60, 400, rng);
  b.AssignConstantProbability(0.15);
  DirectedGraph g = std::move(b).Build();
  ImmOptions one;
  one.k = 5;
  one.num_threads = 1;
  one.seed = 99;
  ImmOptions many = one;
  many.num_threads = 8;
  EXPECT_EQ(SelectSeedsImm(g, one).seeds, SelectSeedsImm(g, many).seeds);
}

/// Pins IMM on the benchmark's two instances (influential seeds at seed
/// 2017, as kbench's set-up picks them): the seeds, θ, the examined edges
/// and the bits of the spread estimate, at one and at four threads. Every
/// other IMM test compares runs with each other or with a brute force, so a
/// sampler or index change that picks a different but plausible seed set
/// would pass them; this one fails instead. Update a constant only for a
/// deliberate change to RR-set sampling or selection.
TEST(ImmTest, BenchmarkInstancesArePinned) {
  struct Case {
    const char* dataset;
    double scale;
    size_t k;
    uint64_t want;
  };
  const Case cases[] = {
      {"twitter", 0.01, 10, 0x71141C1D726EFBB5ULL},
      {"digg", 0.05, 50, 0x9BD66D18BBB6F908ULL},
  };
  for (const Case& c : cases) {
    const Dataset dataset = MakeDataset(SpecByName(c.dataset, c.scale));
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(c.dataset) +
                   " threads=" + std::to_string(threads));
      ImmOptions options;
      options.k = c.k;
      options.seed = 2017;
      options.num_threads = threads;
      const ImmResult r = SelectSeedsImm(dataset.graph, options);
      Digest digest;
      digest.Add(r.seeds);
      digest.Add(r.num_rr_sets);
      digest.Add(r.edges_examined);
      digest.AddBits(r.estimated_spread);
      EXPECT_EQ(digest.value(), c.want) << std::hex << "0x" << digest.value();
    }
  }
}

/// IMM's pick must be near-optimal on instances small enough to brute
/// force.
class ImmVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(ImmVsBruteForce, WithinApproximationFactor) {
  Rng rng(GetParam() * 31 + 5);
  GraphBuilder b = BuildErdosRenyi(9, 16, rng);
  b.AssignConstantProbability(0.4);
  DirectedGraph g = std::move(b).Build();

  const size_t k = 2;
  double opt = 0.0;
  for (NodeId a = 0; a < 9; ++a) {
    for (NodeId c = a + 1; c < 9; ++c) {
      opt = std::max(opt, ExactSpread(g, {a, c}));
    }
  }

  ImmOptions opts;
  opts.k = k;
  opts.epsilon = 0.2;
  opts.seed = GetParam();
  ImmResult r = SelectSeedsImm(g, opts);
  const double achieved = ExactSpread(g, r.seeds);
  // Theory: ≥ (1 - 1/e - ε)·OPT w.h.p.; in practice on these tiny graphs
  // greedy is near-exact. Assert the theoretical bound strictly.
  EXPECT_GE(achieved, (1.0 - 1.0 / std::exp(1.0) - 0.2) * opt - 1e-9);
  // And sanity: the estimate is in the right ballpark.
  EXPECT_NEAR(r.estimated_spread, achieved, 0.35 * opt);
}

INSTANTIATE_TEST_SUITE_P(Random, ImmVsBruteForce, ::testing::Range(1, 9));

}  // namespace
}  // namespace kboost
