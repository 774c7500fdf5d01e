#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_graph.h"
#include "src/core/prr_sampler.h"
#include "src/core/prr_store.h"
#include "src/expt/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/sim/boost_model.h"
#include "src/util/rng.h"

namespace kboost {
namespace {

// With p, p' ∈ {0, 1} every edge's sampled status is deterministic:
// (0,0) = blocked, (0,1) = live-upon-boost, (1,1) = live. That makes the
// whole PRR pipeline deterministic and hand-checkable.
constexpr double kBlocked[2] = {0.0, 0.0};
constexpr double kBoostOnly[2] = {0.0, 1.0};
constexpr double kLive[2] = {1.0, 1.0};

DirectedGraph BuildDeterministic(
    NodeId n, const std::vector<std::tuple<NodeId, NodeId, const double*>>&
                  edges) {
  GraphBuilder b(n);
  for (const auto& [u, v, probs] : edges) {
    b.AddEdge(u, v, probs[0], probs[1]);
  }
  return std::move(b).Build();
}

TEST(PrrGeneratorTest, SeedRootIsActivated) {
  DirectedGraph g = BuildDeterministic(2, {{0, 1, kLive}});
  PrrGenerator gen(g, {1});
  Rng rng(1);
  EXPECT_EQ(gen.Generate(1, 3, false, rng).status, PrrStatus::kActivated);
}

TEST(PrrGeneratorTest, LiveSeedPathIsActivated) {
  // s(0) -> r(1), live.
  DirectedGraph g = BuildDeterministic(2, {{0, 1, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  EXPECT_EQ(gen.Generate(1, 3, false, rng).status, PrrStatus::kActivated);
}

TEST(PrrGeneratorTest, NoSeedPathIsHopeless) {
  // s(0) -x- r(1): blocked edge.
  DirectedGraph g = BuildDeterministic(2, {{0, 1, kBlocked}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  EXPECT_EQ(gen.Generate(1, 3, false, rng).status, PrrStatus::kHopeless);
}

TEST(PrrGeneratorTest, SingleBoostGapYieldsCriticalNode) {
  // s(0) -boost-> a(1) -live-> r(2).
  DirectedGraph g =
      BuildDeterministic(3, {{0, 1, kBoostOnly}, {1, 2, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  PrrGenResult r = gen.Generate(2, 2, false, rng);
  ASSERT_EQ(r.status, PrrStatus::kBoostable);
  EXPECT_EQ(r.critical_globals, (std::vector<NodeId>{1}));
  // Compressed: super-seed, root, and node a.
  EXPECT_EQ(r.graph.num_nodes(), 3u);
  EXPECT_EQ(r.graph.num_edges(), 2u);
}

TEST(PrrGeneratorTest, TwoBoostPathIsPrunedByK) {
  // s(0) -boost-> a(1) -boost-> b(2) -live-> r(3): needs two boosts.
  DirectedGraph g = BuildDeterministic(
      4, {{0, 1, kBoostOnly}, {1, 2, kBoostOnly}, {2, 3, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  // k = 1: no path with ≤ 1 boosts reaches a seed.
  EXPECT_EQ(gen.Generate(3, 1, false, rng).status, PrrStatus::kHopeless);
  // k = 2: boostable, but no single node is critical.
  PrrGenResult r = gen.Generate(3, 2, false, rng);
  ASSERT_EQ(r.status, PrrStatus::kBoostable);
  EXPECT_TRUE(r.critical_globals.empty());
  // f_R({a}) = 0, f_R({a, b}) = 1.
  PrrEvaluator eval;
  std::vector<uint8_t> none(4, 0);
  EXPECT_FALSE(eval.IsActivated(r.graph, none.data()));
  std::vector<uint8_t> a_only = MakeNodeBitmap(4, {1});
  EXPECT_FALSE(eval.IsActivated(r.graph, a_only.data()));
  std::vector<uint8_t> both = MakeNodeBitmap(4, {1, 2});
  EXPECT_TRUE(eval.IsActivated(r.graph, both.data()));
}

TEST(PrrGeneratorTest, SuperSeedMergesLiveChain) {
  // s(0) -live-> x(1) -boost-> a(2) -live-> r(3): x joins the super-seed.
  DirectedGraph g = BuildDeterministic(
      4, {{0, 1, kLive}, {1, 2, kBoostOnly}, {2, 3, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  PrrGenResult r = gen.Generate(3, 2, false, rng);
  ASSERT_EQ(r.status, PrrStatus::kBoostable);
  EXPECT_EQ(r.critical_globals, (std::vector<NodeId>{2}));
  // x disappears into the super-seed: {SS, root, a}.
  EXPECT_EQ(r.graph.num_nodes(), 3u);
}

TEST(PrrGeneratorTest, DiamondHasTwoCriticalNodes) {
  // s -boost-> a -live-> r and s -boost-> b -live-> r.
  DirectedGraph g = BuildDeterministic(
      4, {{0, 1, kBoostOnly}, {0, 2, kBoostOnly}, {1, 3, kLive},
          {2, 3, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  PrrGenResult r = gen.Generate(3, 1, false, rng);
  ASSERT_EQ(r.status, PrrStatus::kBoostable);
  std::vector<NodeId> crit = r.critical_globals;
  std::sort(crit.begin(), crit.end());
  EXPECT_EQ(crit, (std::vector<NodeId>{1, 2}));
}

TEST(PrrGeneratorTest, LiveShortcutCompressesChains) {
  // s -boost-> a -live-> c -live-> r: a gets a direct live edge to r and
  // the intermediate c is removed.
  DirectedGraph g = BuildDeterministic(
      4, {{0, 1, kBoostOnly}, {1, 2, kLive}, {2, 3, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  PrrGenResult r = gen.Generate(3, 2, false, rng);
  ASSERT_EQ(r.status, PrrStatus::kBoostable);
  EXPECT_EQ(r.critical_globals, (std::vector<NodeId>{1}));
  EXPECT_EQ(r.graph.num_nodes(), 3u);  // SS, root, a — c compressed away
  EXPECT_EQ(r.graph.num_edges(), 2u);
}

TEST(PrrGeneratorTest, DeadBranchesAreRemoved) {
  // Extra nodes hanging off the PRR subgraph (like v8 in Fig. 3) must not
  // survive compression: d(4) -live-> a(1), d unreachable from seeds.
  DirectedGraph g = BuildDeterministic(
      5, {{0, 1, kBoostOnly}, {1, 3, kLive}, {4, 1, kLive}});
  PrrGenerator gen(g, {0});
  Rng rng(1);
  PrrGenResult r = gen.Generate(3, 2, false, rng);
  ASSERT_EQ(r.status, PrrStatus::kBoostable);
  for (NodeId global : r.graph.global_ids) {
    EXPECT_NE(global, 4u);  // the dead branch is gone
  }
}

/// The twitter stand-in at 323 nodes: mean p ≈ 0.6 with many always-live
/// edges, β = 2. With seed 0 about 5% of samples are boostable, and those
/// explore most of the graph behind a large super-seed set — the regime
/// that dominates sampling cost on the full-size stand-in.
DirectedGraph MakeDenseGraph() {
  return MakeDataset(SpecByName("twitter", 0.001)).graph;
}

/// Marks the nodes of `g` reachable from `start` along out-edges (or
/// in-edges when `backward`), ignoring edge types.
std::vector<uint8_t> Reach(const PrrGraph& g, uint32_t start, bool backward) {
  const std::vector<uint32_t>& offsets =
      backward ? g.in_offsets : g.out_offsets;
  const std::vector<uint32_t>& edges = backward ? g.in_edges : g.out_edges;
  std::vector<uint8_t> seen(g.num_nodes(), 0);
  std::vector<uint32_t> stack = {start};
  seen[start] = 1;
  while (!stack.empty()) {
    const uint32_t u = stack.back();
    stack.pop_back();
    for (uint32_t s = offsets[u]; s < offsets[u + 1]; ++s) {
      const uint32_t t = PrrGraph::EdgeNode(edges[s]);
      if (!seen[t]) {
        seen[t] = 1;
        stack.push_back(t);
      }
    }
  }
  return seen;
}

/// Checks every boostable sample's compressed graph against the reference
/// evaluator and the compression invariants: f_R(∅) = 0, stored criticals
/// equal the evaluator's at B = ∅, super-seed out-edges are boost edges with
/// distinct heads, and every stored node lies on a super-seed→root path.
/// Returns the number of boostable samples checked.
int CheckCompressedSamples(const DirectedGraph& g,
                           const std::vector<NodeId>& seeds, size_t k,
                           int samples) {
  PrrGenerator gen(g, seeds);
  PrrEvaluator eval;
  Rng rng(5);
  std::vector<uint8_t> none(g.num_nodes(), 0);
  std::vector<uint32_t> crit;
  int boostable = 0;
  for (int i = 0; i < samples; ++i) {
    PrrGenResult r = gen.GenerateRandomRoot(k, false, rng);
    if (r.status != PrrStatus::kBoostable) continue;
    ++boostable;
    const PrrGraph& graph = r.graph;
    EXPECT_FALSE(eval.IsActivated(graph, none.data()));
    EXPECT_FALSE(eval.CriticalNodes(graph, none.data(), &crit));
    std::vector<uint32_t> stored = graph.critical_locals;
    std::sort(stored.begin(), stored.end());
    std::sort(crit.begin(), crit.end());
    EXPECT_EQ(stored, crit);

    std::vector<uint8_t> head_seen(graph.num_nodes(), 0);
    for (uint32_t s = graph.out_offsets[PrrGraph::kSuperSeedLocal];
         s < graph.out_offsets[PrrGraph::kSuperSeedLocal + 1]; ++s) {
      const uint32_t packed = graph.out_edges[s];
      EXPECT_TRUE(PrrGraph::EdgeBoost(packed)) << "live super-seed out-edge";
      EXPECT_FALSE(head_seen[PrrGraph::EdgeNode(packed)])
          << "duplicate super-seed fan-out head";
      head_seen[PrrGraph::EdgeNode(packed)] = 1;
    }
    const std::vector<uint8_t> from_super_seed =
        Reach(graph, PrrGraph::kSuperSeedLocal, /*backward=*/false);
    const std::vector<uint8_t> to_root =
        Reach(graph, PrrGraph::kRootLocal, /*backward=*/true);
    for (uint32_t v = 0; v < graph.num_nodes(); ++v) {
      EXPECT_TRUE(from_super_seed[v] && to_root[v])
          << "node " << v << " is on no super-seed→root path";
    }
  }
  return boostable;
}

TEST(PrrGeneratorTest, StoredCriticalsMatchEvaluator) {
  {
    SCOPED_TRACE("sparse, k = 4");
    Rng topo_rng(77);
    GraphBuilder b = BuildErdosRenyi(60, 360, topo_rng);
    b.AssignConstantProbability(0.15);
    b.SetBoostWithBeta(3.0);
    DirectedGraph g = std::move(b).Build();
    EXPECT_GT(CheckCompressedSamples(g, {0, 1, 2}, 4, 400), 10);
  }
  {
    SCOPED_TRACE("dense, k = 100");
    EXPECT_GT(CheckCompressedSamples(MakeDenseGraph(), {0}, 100, 2000),
              10);
  }
}

TEST(PrrGeneratorTest, LbModeCriticalsMatchFullModeDistribution) {
  // LB mode samples different worlds per draw (different rng consumption),
  // so compare the distribution: E[|C_R|] must match between modes.
  Rng topo_rng(78);
  GraphBuilder b = BuildErdosRenyi(50, 250, topo_rng);
  b.AssignConstantProbability(0.12);
  b.SetBoostWithBeta(3.0);
  DirectedGraph g = std::move(b).Build();
  PrrGenerator gen_full(g, {0, 1});
  PrrGenerator gen_lb(g, {0, 1});

  const int trials = 40000;
  double full_sum = 0, lb_sum = 0;
  for (int i = 0; i < trials; ++i) {
    Rng r1(i * 2 + 1), r2(i * 2 + 1);
    PrrGenResult rf = gen_full.Generate(7, 3, false, r1);
    PrrGenResult rl = gen_lb.Generate(7, 3, true, r2);
    if (rf.status == PrrStatus::kBoostable) {
      full_sum += rf.critical_globals.size();
    }
    if (rl.status == PrrStatus::kBoostable ||
        rl.status == PrrStatus::kHopeless) {
      lb_sum += rl.critical_globals.size();
    }
  }
  EXPECT_NEAR(full_sum / trials, lb_sum / trials,
              0.05 * std::max(1.0, full_sum / trials));
}

// ---------------------------------------------------------------------------
// Pinned realizations. Every other test compares samples with each other or
// with an evaluator, so a generator change that draws a different but
// self-consistent sample would pass them all; these fail instead. Update the
// constants only for a deliberate change to sampling.
// ---------------------------------------------------------------------------

/// FNV-1a over 64-bit words: a stable fingerprint.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ = (hash_ ^ ((word >> (8 * byte)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Add(std::span<const uint32_t> words) {
    Add(words.size());
    for (const uint32_t w : words) Add(w);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Adds a store's six arrays, graph by graph.
void AddStore(const PrrStore& store, Digest* digest) {
  digest->Add(store.num_graphs());
  for (size_t id = 0; id < store.num_graphs(); ++id) {
    const PrrGraphView view = store.View(id);
    const uint32_t n = view.num_nodes();
    digest->Add({view.global_ids, n});
    digest->Add({view.out_offsets, n + 1});
    digest->Add({view.out_edges, view.num_edges()});
    digest->Add({view.in_offsets, n + 1});
    digest->Add({view.in_edges, view.num_edges()});
    digest->Add(view.critical());
  }
}

DirectedGraph MakeSparseGraph() {
  Rng topo_rng(7);
  GraphBuilder b = BuildErdosRenyi(80, 500, topo_rng);
  b.AssignConstantProbability(0.12);
  b.SetBoostWithBeta(2.0);
  return std::move(b).Build();
}

/// Digests every PrrGenResult field of `samples` random-root draws from one
/// Rng stream — so each sample's draw count is pinned too — and, in full
/// mode, the sink store the graphs were appended to.
uint64_t GeneratorDigest(const DirectedGraph& g,
                         const std::vector<NodeId>& seeds, size_t k,
                         bool lb_only, int samples) {
  PrrGenerator gen(g, seeds);
  PrrStore store;
  Digest digest;
  Rng rng(2017);
  for (int i = 0; i < samples; ++i) {
    const PrrGenResult r =
        gen.GenerateRandomRoot(k, lb_only, rng, lb_only ? nullptr : &store);
    digest.Add(static_cast<uint64_t>(r.status));
    digest.Add(r.edges_examined);
    digest.Add(r.uncompressed_edges);
    digest.Add(r.store_id);
    digest.Add(r.critical_globals);
  }
  AddStore(store, &digest);
  return digest.value();
}

TEST(PrrGeneratorTest, RealizationIsPinned) {
  const DirectedGraph sparse = MakeSparseGraph();
  const DirectedGraph dense = MakeDenseGraph();
  struct Case {
    const char* name;
    const DirectedGraph* graph;
    std::vector<NodeId> seeds;
    int samples;
    size_t k;
    bool lb_only;
    uint64_t want;
  };
  const Case cases[] = {
      {"sparse", &sparse, {0, 1, 2}, 3000, 1, false, 0xB9449727A81F8B45ULL},
      {"sparse", &sparse, {0, 1, 2}, 3000, 2, false, 0xA7983397FB3E90A7ULL},
      {"sparse", &sparse, {0, 1, 2}, 3000, 100, false, 0x6EEDE34309C13BCBULL},
      {"sparse", &sparse, {0, 1, 2}, 3000, 1, true, 0x1CB93E842C4AAA0DULL},
      {"sparse", &sparse, {0, 1, 2}, 3000, 2, true, 0x1CB93E842C4AAA0DULL},
      {"sparse", &sparse, {0, 1, 2}, 3000, 100, true, 0x1CB93E842C4AAA0DULL},
      {"dense", &dense, {0}, 2000, 1, false, 0xF712D1852E4AF540ULL},
      {"dense", &dense, {0}, 2000, 2, false, 0xDBC5964C867D798FULL},
      {"dense", &dense, {0}, 2000, 100, false, 0xB947A572B93E2781ULL},
      {"dense", &dense, {0}, 2000, 1, true, 0x8948ECF8B8D68A65ULL},
      {"dense", &dense, {0}, 2000, 2, true, 0x8948ECF8B8D68A65ULL},
      {"dense", &dense, {0}, 2000, 100, true, 0x8948ECF8B8D68A65ULL},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(c.k) +
                 (c.lb_only ? " lb" : " full"));
    const uint64_t got =
        GeneratorDigest(*c.graph, c.seeds, c.k, c.lb_only, c.samples);
    EXPECT_EQ(got, c.want) << std::hex << "0x" << got;
  }
}

TEST(PrrSamplerTest, PoolAndStatsArePinned) {
  const DirectedGraph g = MakeDenseGraph();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PrrCollection collection(g.num_nodes());
    PrrSampler sampler(g, {0}, /*k=*/100, /*lb_only=*/false, /*seed=*/11,
                       threads);
    sampler.EnsureSamples(collection, 4000);
    Digest digest;
    AddStore(collection.store(), &digest);
    digest.Add(collection.num_samples());
    digest.Add(collection.num_boostable());
    digest.Add(collection.num_activated());
    digest.Add(collection.num_hopeless());
    digest.Add(sampler.stats().edges_examined);
    digest.Add(sampler.stats().uncompressed_edges);
    digest.Add(sampler.stats().compressed_edges);
    EXPECT_EQ(digest.value(), 0xAA97F22F094AECB6ULL)
        << std::hex << "0x" << digest.value();
  }
}

// ---------------------------------------------------------------------------
// Statistical correctness of the estimators on brute-forceable graphs.
// ---------------------------------------------------------------------------

class PrrEstimatorTest : public ::testing::TestWithParam<int> {};

TEST_P(PrrEstimatorTest, DeltaHatIsUnbiased) {
  Rng topo_rng(GetParam() * 13 + 2);
  GraphBuilder b = BuildErdosRenyi(8, 14, topo_rng);
  b.AssignConstantProbability(0.25);
  b.SetBoostWithBeta(3.0);
  DirectedGraph g = std::move(b).Build();
  const std::vector<NodeId> seeds = {0};

  PrrCollection collection(g.num_nodes());
  PrrSampler sampler(g, seeds, /*k=*/3, /*lb_only=*/false,
                     /*seed=*/GetParam(), /*threads=*/4);
  sampler.EnsureSamples(collection, 150000);

  for (const std::vector<NodeId>& boost :
       {std::vector<NodeId>{1}, {1, 2}, {1, 2, 3}, {5}}) {
    const double exact = ExactBoost(g, seeds, boost);
    const double est = collection.EstimateDelta(boost, 4);
    EXPECT_NEAR(est, exact, 0.03 * g.num_nodes() / std::sqrt(150000.0) * 50 +
                                0.02)
        << "boost set size " << boost.size();
    // Sandwich: μ̂ ≤ Δ̂ on the same samples (f⁻ ≤ f pointwise).
    EXPECT_LE(collection.EstimateMu(boost), est + 1e-9);
  }
}

TEST_P(PrrEstimatorTest, GreedyDeltaCountMatchesReEvaluation) {
  Rng topo_rng(GetParam() * 7 + 3);
  GraphBuilder b = BuildErdosRenyi(40, 200, topo_rng);
  b.AssignConstantProbability(0.15);
  b.SetBoostWithBeta(2.0);
  DirectedGraph g = std::move(b).Build();
  const std::vector<NodeId> seeds = {0, 1};

  PrrCollection collection(g.num_nodes());
  PrrSampler sampler(g, seeds, /*k=*/3, false, GetParam(), 2);
  sampler.EnsureSamples(collection, 20000);

  std::vector<uint8_t> excluded = MakeNodeBitmap(g.num_nodes(), seeds);
  auto greedy = collection.SelectGreedyDelta(3, excluded);
  // The incremental covered-count bookkeeping must agree with a from-scratch
  // evaluation of the returned set.
  EXPECT_NEAR(greedy.delta_hat, collection.EstimateDelta(greedy.nodes, 2),
              1e-9);
  for (NodeId v : greedy.nodes) {
    EXPECT_FALSE(excluded[v]);  // seeds are never boosted
  }
}

INSTANTIATE_TEST_SUITE_P(Random, PrrEstimatorTest, ::testing::Range(1, 7));

TEST(PrrSamplerTest, DeterministicAcrossThreadCounts) {
  Rng topo_rng(91);
  GraphBuilder b = BuildErdosRenyi(40, 200, topo_rng);
  b.AssignConstantProbability(0.2);
  b.SetBoostWithBeta(2.0);
  DirectedGraph g = std::move(b).Build();
  const std::vector<NodeId> seeds = {3};

  PrrCollection c1(g.num_nodes()), c8(g.num_nodes());
  PrrSampler s1(g, seeds, 2, false, 42, 1);
  PrrSampler s8(g, seeds, 2, false, 42, 8);
  s1.EnsureSamples(c1, 5000);
  s8.EnsureSamples(c8, 5000);
  EXPECT_EQ(c1.num_boostable(), c8.num_boostable());
  EXPECT_EQ(c1.num_activated(), c8.num_activated());
  EXPECT_EQ(c1.num_hopeless(), c8.num_hopeless());
  EXPECT_EQ(c1.EstimateDelta({5, 6}, 1), c8.EstimateDelta({5, 6}, 1));
}

TEST(PrrCollectionTest, CountsAllSampleKinds) {
  PrrCollection c(10);
  c.AddNonBoostable(PrrStatus::kActivated);
  c.AddNonBoostable(PrrStatus::kHopeless);
  c.AddBoostableCriticalOnly({1, 2});
  EXPECT_EQ(c.num_samples(), 3u);
  EXPECT_EQ(c.num_activated(), 1u);
  EXPECT_EQ(c.num_hopeless(), 1u);
  EXPECT_EQ(c.num_boostable(), 1u);
  // μ̂({1}) = 10 * (1/3).
  EXPECT_NEAR(c.EstimateMu({1}), 10.0 / 3.0, 1e-12);
  EXPECT_NEAR(c.EstimateMu({5}), 0.0, 1e-12);
}

}  // namespace
}  // namespace kboost
