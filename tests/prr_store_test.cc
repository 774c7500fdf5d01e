#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "src/core/prr_boost.h"
#include "src/core/prr_collection.h"
#include "src/core/prr_graph.h"
#include "src/core/prr_sampler.h"
#include "src/core/prr_store.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/sim/boost_model.h"
#include "src/util/rng.h"

namespace kboost {
namespace {

bool SameGraph(const PrrGraph& a, const PrrGraph& b) {
  return a.global_ids == b.global_ids && a.out_offsets == b.out_offsets &&
         a.out_edges == b.out_edges && a.in_offsets == b.in_offsets &&
         a.in_edges == b.in_edges && a.critical_locals == b.critical_locals;
}

/// Samples boostable graphs from the digg stand-in for store tests.
std::vector<PrrGraph> SampleGraphs(size_t count, uint64_t seed) {
  Dataset dataset = MakeDataset(SpecByName("digg", 0.02));
  std::vector<NodeId> seeds =
      SelectInfluentialSeeds(dataset.graph, 10, 7, 2);
  PrrGenerator gen(dataset.graph, seeds);
  Rng rng(seed);
  std::vector<PrrGraph> graphs;
  while (graphs.size() < count) {
    PrrGenResult r = gen.GenerateRandomRoot(50, /*lb_only=*/false, rng);
    if (r.status == PrrStatus::kBoostable) {
      graphs.push_back(std::move(r.graph));
    }
  }
  return graphs;
}

TEST(PrrStoreTest, RoundTripsGraphsExactly) {
  std::vector<PrrGraph> graphs = SampleGraphs(50, 11);
  PrrStore store;
  for (const PrrGraph& g : graphs) store.Add(g);
  ASSERT_EQ(store.num_graphs(), graphs.size());
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_TRUE(SameGraph(store.ToPrrGraph(i), graphs[i])) << "graph " << i;
  }
}

TEST(PrrStoreTest, ViewMatchesSourceArrays) {
  std::vector<PrrGraph> graphs = SampleGraphs(10, 12);
  PrrStore store;
  for (const PrrGraph& g : graphs) store.Add(g);
  for (size_t i = 0; i < graphs.size(); ++i) {
    const PrrGraphView view = store.View(i);
    ASSERT_EQ(view.num_nodes(), graphs[i].num_nodes());
    ASSERT_EQ(view.num_edges(), graphs[i].num_edges());
    for (uint32_t v = 0; v < view.num_nodes(); ++v) {
      EXPECT_EQ(view.global_ids[v], graphs[i].global_ids[v]);
      EXPECT_EQ(view.out_offsets[v], graphs[i].out_offsets[v]);
      EXPECT_EQ(view.in_offsets[v], graphs[i].in_offsets[v]);
    }
    for (size_t e = 0; e < view.num_edges(); ++e) {
      EXPECT_EQ(view.out_edges[e], graphs[i].out_edges[e]);
      EXPECT_EQ(view.in_edges[e], graphs[i].in_edges[e]);
    }
  }
}

TEST(PrrStoreTest, AppendFromCopiesAcrossStores) {
  std::vector<PrrGraph> graphs = SampleGraphs(20, 13);
  PrrStore shard;
  for (const PrrGraph& g : graphs) shard.Add(g);
  PrrStore merged;
  // Interleave to exercise offset bookkeeping.
  for (size_t i = 0; i < graphs.size(); i += 2) merged.AppendFrom(shard, i);
  for (size_t i = 1; i < graphs.size(); i += 2) merged.AppendFrom(shard, i);
  size_t slot = 0;
  for (size_t i = 0; i < graphs.size(); i += 2, ++slot) {
    EXPECT_TRUE(SameGraph(merged.ToPrrGraph(slot), graphs[i]));
  }
  for (size_t i = 1; i < graphs.size(); i += 2, ++slot) {
    EXPECT_TRUE(SameGraph(merged.ToPrrGraph(slot), graphs[i]));
  }
}

TEST(PrrStoreTest, GeneratorSinkMatchesStandaloneGraphs) {
  Dataset dataset = MakeDataset(SpecByName("digg", 0.02));
  std::vector<NodeId> seeds =
      SelectInfluentialSeeds(dataset.graph, 10, 7, 2);
  PrrGenerator gen_a(dataset.graph, seeds);
  PrrGenerator gen_b(dataset.graph, seeds);
  PrrStore sink;
  size_t boostable = 0;
  for (uint64_t i = 0; i < 400; ++i) {
    Rng rng_a(i * 7919 + 1);
    Rng rng_b(i * 7919 + 1);
    PrrGenResult a = gen_a.GenerateRandomRoot(50, false, rng_a);
    PrrGenResult b = gen_b.GenerateRandomRoot(50, false, rng_b, &sink);
    ASSERT_EQ(a.status, b.status);
    if (a.status != PrrStatus::kBoostable) continue;
    EXPECT_TRUE(SameGraph(sink.ToPrrGraph(b.store_id), a.graph));
    EXPECT_EQ(a.critical_globals, b.critical_globals);
    ++boostable;
  }
  EXPECT_GT(boostable, 0u);
  EXPECT_EQ(sink.num_graphs(), boostable);
}

TEST(PrrStoreTest, ClearKeepsNothing) {
  std::vector<PrrGraph> graphs = SampleGraphs(5, 14);
  PrrStore store;
  for (const PrrGraph& g : graphs) store.Add(g);
  EXPECT_GT(store.MemoryBytes(), 0u);
  store.Clear();
  EXPECT_EQ(store.num_graphs(), 0u);
  EXPECT_EQ(store.total_edges(), 0u);
  // Re-adding after Clear works and round-trips.
  store.Add(graphs[0]);
  EXPECT_TRUE(SameGraph(store.ToPrrGraph(0), graphs[0]));
}

TEST(PrrStoreTest, ClearKeepsCapacity) {
  // The keep-capacity contract the sampler's persistent shard arenas rely
  // on: Clear() drops contents but never releases buffers, so clearing and
  // refilling with the same graphs must leave the reserved footprint
  // bit-for-bit unchanged — no reallocation churn across refresh rounds.
  std::vector<PrrGraph> graphs = SampleGraphs(20, 15);
  PrrStore store;
  for (const PrrGraph& g : graphs) store.Add(g);
  const size_t allocated = store.AllocatedBytes();
  EXPECT_GT(allocated, 0u);
  store.Clear();
  EXPECT_EQ(store.num_graphs(), 0u);
  EXPECT_EQ(store.AllocatedBytes(), allocated);
  for (const PrrGraph& g : graphs) store.Add(g);
  EXPECT_EQ(store.AllocatedBytes(), allocated);
  for (size_t i = 0; i < graphs.size(); ++i) {
    ASSERT_TRUE(SameGraph(store.ToPrrGraph(i), graphs[i])) << "graph " << i;
  }
}

class PrrDeterminismTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_ = MakeDataset(SpecByName("digg", 0.02));
    seeds_ = SelectInfluentialSeeds(dataset_.graph, 10, 7, 2);
    excluded_ = MakeNodeBitmap(dataset_.graph.num_nodes(), seeds_);
  }

  void FillPool(PrrCollection& collection, int threads, size_t target,
                bool lb_only) {
    PrrSampler sampler(dataset_.graph, seeds_, 20, lb_only, /*seed=*/99,
                       threads);
    sampler.EnsureSamples(collection, target);
  }

  Dataset dataset_;
  std::vector<NodeId> seeds_;
  std::vector<uint8_t> excluded_;
};

TEST_F(PrrDeterminismTest, PoolIsIdenticalForAnyThreadCount) {
  PrrCollection serial(dataset_.graph.num_nodes());
  PrrCollection parallel(dataset_.graph.num_nodes());
  FillPool(serial, 1, 3000, /*lb_only=*/false);
  FillPool(parallel, 4, 3000, /*lb_only=*/false);
  ASSERT_EQ(serial.num_samples(), parallel.num_samples());
  ASSERT_EQ(serial.num_boostable(), parallel.num_boostable());
  ASSERT_EQ(serial.store().num_graphs(), parallel.store().num_graphs());
  for (size_t g = 0; g < serial.store().num_graphs(); ++g) {
    ASSERT_TRUE(SameGraph(serial.store().ToPrrGraph(g),
                          parallel.store().ToPrrGraph(g)))
        << "graph " << g;
  }
}

TEST_F(PrrDeterminismTest, ShardedPoolIsIdenticalForAnyThreadCount) {
  // Sample→shard assignment is a pure function of the GLOBAL sample index
  // (sample i → shard i mod S) and each sample's Rng is seeded by that
  // index, so every shard arena must be bit-identical no matter how many
  // workers generated it.
  PrrCollection serial(dataset_.graph.num_nodes(), /*num_shards=*/3);
  PrrCollection parallel(dataset_.graph.num_nodes(), /*num_shards=*/3);
  FillPool(serial, 1, 3000, /*lb_only=*/false);
  FillPool(parallel, 4, 3000, /*lb_only=*/false);
  ASSERT_EQ(serial.num_samples(), parallel.num_samples());
  ASSERT_EQ(serial.num_boostable(), parallel.num_boostable());
  for (size_t s = 0; s < serial.num_shards(); ++s) {
    const PrrStore& a = serial.shard_store(s);
    const PrrStore& b = parallel.shard_store(s);
    ASSERT_EQ(a.num_graphs(), b.num_graphs()) << "shard " << s;
    for (size_t g = 0; g < a.num_graphs(); ++g) {
      ASSERT_TRUE(SameGraph(a.ToPrrGraph(g), b.ToPrrGraph(g)))
          << "shard " << s << " graph " << g;
    }
  }
}

TEST_F(PrrDeterminismTest, ShardCountIsInvisibleInEveryAnswer) {
  // Estimators are additive over samples and selection settles gains before
  // each pick, so partitioning one pool into S arenas must not change a
  // single bit of any answer.
  PrrCollection mono(dataset_.graph.num_nodes());
  PrrCollection sharded(dataset_.graph.num_nodes(), /*num_shards=*/5);
  FillPool(mono, 2, 3000, /*lb_only=*/false);
  FillPool(sharded, 2, 3000, /*lb_only=*/false);
  ASSERT_EQ(mono.num_samples(), sharded.num_samples());
  ASSERT_EQ(sharded.num_stored_graphs(), mono.store().num_graphs());
  PrrCollection::DeltaResult dm = mono.SelectGreedyDelta(15, excluded_, 2);
  PrrCollection::DeltaResult ds = sharded.SelectGreedyDelta(15, excluded_, 2);
  EXPECT_EQ(dm.nodes, ds.nodes);
  EXPECT_EQ(dm.pick_gains, ds.pick_gains);
  EXPECT_EQ(dm.activated_samples, ds.activated_samples);
  EXPECT_EQ(mono.EstimateDelta(dm.nodes, 2), sharded.EstimateDelta(ds.nodes, 2));
  EXPECT_EQ(mono.EstimateMu(dm.nodes), sharded.EstimateMu(ds.nodes));
  PrrCollection::LbResult lm = mono.SelectGreedyLowerBound(15, excluded_);
  PrrCollection::LbResult ls = sharded.SelectGreedyLowerBound(15, excluded_);
  EXPECT_EQ(lm.nodes, ls.nodes);
  EXPECT_EQ(lm.mu_hat, ls.mu_hat);
}

TEST_F(PrrDeterminismTest, SelectGreedyDeltaIsThreadCountInvariant) {
  PrrCollection collection(dataset_.graph.num_nodes());
  FillPool(collection, 3, 3000, /*lb_only=*/false);
  PrrCollection::DeltaResult serial =
      collection.SelectGreedyDelta(15, excluded_, 1);
  PrrCollection::DeltaResult parallel =
      collection.SelectGreedyDelta(15, excluded_, 4);
  EXPECT_EQ(serial.nodes, parallel.nodes);
  EXPECT_EQ(serial.activated_samples, parallel.activated_samples);
  EXPECT_DOUBLE_EQ(serial.delta_hat, parallel.delta_hat);
}

TEST_F(PrrDeterminismTest, LowerBoundSelectionIsStableAcrossPools) {
  PrrCollection a(dataset_.graph.num_nodes());
  PrrCollection b(dataset_.graph.num_nodes());
  FillPool(a, 1, 3000, /*lb_only=*/true);
  FillPool(b, 4, 3000, /*lb_only=*/true);
  PrrCollection::LbResult ra = a.SelectGreedyLowerBound(15, excluded_);
  PrrCollection::LbResult rb = b.SelectGreedyLowerBound(15, excluded_);
  EXPECT_EQ(ra.nodes, rb.nodes);
  EXPECT_DOUBLE_EQ(ra.mu_hat, rb.mu_hat);
}

TEST_F(PrrDeterminismTest, FullPipelineSelectsSameBoostSet) {
  BoostOptions options;
  options.k = 10;
  options.seed = 4242;
  options.max_samples = 20000;
  options.num_threads = 1;
  BoostResult serial = PrrBoost(dataset_.graph, seeds_, options);
  options.num_threads = 4;
  BoostResult parallel = PrrBoost(dataset_.graph, seeds_, options);
  EXPECT_EQ(serial.best_set, parallel.best_set);
  EXPECT_EQ(serial.num_samples, parallel.num_samples);
  EXPECT_DOUBLE_EQ(serial.best_estimate, parallel.best_estimate);
}

/// A graph of `num_nodes` local nodes and no edges: enough to size an eval
/// state's bitmaps.
PrrGraph EdgelessGraph(uint32_t num_nodes) {
  PrrGraph g;
  g.global_ids.push_back(kInvalidNode);
  for (uint32_t v = 1; v < num_nodes; ++v) g.global_ids.push_back(v);
  g.out_offsets.assign(num_nodes + 1, 0);
  g.in_offsets.assign(num_nodes + 1, 0);
  return g;
}

TEST(PrrEvalStateTest, ReattachesToAnotherStoreAtTheSameAddress) {
  // A reloaded pool can land where the dropped one lived, after the same
  // number of mutations. The eval state must still see a different store:
  // keeping the old layout would serve the old pool's bitmaps and write past
  // the arena for the new pool's larger graphs.
  std::optional<PrrStore> slot;
  PrrEvalState state;
  slot.emplace();
  slot->Add(EdgelessGraph(150));  // 3 words per bitmap
  state.Attach(*slot);
  EXPECT_EQ(state.total_words(), 3u * 3u);
  slot.reset();
  slot.emplace();
  slot->Add(EdgelessGraph(350));  // 6 words per bitmap
  state.Attach(*slot);
  EXPECT_EQ(state.total_words(), 3u * 6u);
}

TEST(PrrCollectionTest, EstimateMuWithInterleavedEmptySets) {
  // Empty (non-boostable) samples interleave with boostable ones; set ids
  // handed out by SetsContaining() index the non-empty numbering, so μ̂ must
  // stay correct and in bounds with `hit` sized by num_nonempty_sets().
  PrrCollection c(10);
  c.AddNonBoostable(PrrStatus::kHopeless);
  c.AddBoostableCriticalOnly({1, 2});
  c.AddNonBoostable(PrrStatus::kActivated);
  c.AddNonBoostable(PrrStatus::kHopeless);
  c.AddBoostableCriticalOnly({2, 3});
  c.AddNonBoostable(PrrStatus::kActivated);
  c.AddBoostableCriticalOnly({4});
  ASSERT_EQ(c.num_samples(), 7u);
  ASSERT_EQ(c.coverage().num_nonempty_sets(), 3u);
  // μ̂(B) = n · (#covered) / θ with n = 10, θ = 7.
  EXPECT_NEAR(c.EstimateMu({2}), 10.0 * 2 / 7, 1e-12);
  EXPECT_NEAR(c.EstimateMu({1, 3}), 10.0 * 2 / 7, 1e-12);
  EXPECT_NEAR(c.EstimateMu({4}), 10.0 * 1 / 7, 1e-12);
  EXPECT_NEAR(c.EstimateMu({1, 2, 3, 4}), 10.0 * 3 / 7, 1e-12);
  EXPECT_NEAR(c.EstimateMu({5}), 0.0, 1e-12);
}

}  // namespace
}  // namespace kboost
