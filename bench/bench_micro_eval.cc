// Micro-benchmarks for the Δ̂ evaluation path: the incremental selection
// engine (one per-graph record in the eval state, serial per-pick scan) on a
// monolithic and an S = 4 sharded pool, and the batched
// 64-graphs-per-word estimators. The fixture aborts if the sharded pool's
// answers are not bit-identical to the monolithic pool's; agreement with a
// from-scratch reference greedy on the same pool is asserted by
// tests/incremental_eval_test.cc.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_sampler.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/sim/boost_model.h"

namespace kboost {
namespace {

constexpr size_t kSamples = 20000;
constexpr size_t kBudget = 100;

struct Fixture {
  Fixture() : dataset(MakeDataset(SpecByName("digg", 0.02))) {
    seeds = SelectInfluentialSeeds(dataset.graph, 10, 7, 4);
    excluded = MakeNodeBitmap(dataset.graph.num_nodes(), seeds);
    collection = std::make_unique<PrrCollection>(dataset.graph.num_nodes());
    PrrSampler sampler(dataset.graph, seeds, kBudget, /*lb_only=*/false,
                       /*seed=*/11, /*num_threads=*/4);
    sampler.EnsureSamples(*collection, kSamples);
    lb_set = collection->SelectGreedyLowerBound(kBudget, excluded).nodes;

    // Shard-invariance gate: the same pool sampled into S = 4 arenas must
    // select and estimate exactly what the monolithic S = 1 pool does —
    // sample→shard assignment is a pure function of the global sample index,
    // so the partition must be invisible in every answer.
    sharded_collection =
        std::make_unique<PrrCollection>(dataset.graph.num_nodes(), 4);
    PrrSampler sharded_sampler(dataset.graph, seeds, kBudget,
                               /*lb_only=*/false, /*seed=*/11,
                               /*num_threads=*/4);
    sharded_sampler.EnsureSamples(*sharded_collection, kSamples);
    for (int threads : {1, 4}) {
      const auto mono = collection->SelectGreedyDelta(kBudget, excluded,
                                                      threads, &eval_state);
      const auto sharded = sharded_collection->SelectGreedyDelta(
          kBudget, excluded, threads, &sharded_eval_state);
      if (mono.nodes != sharded.nodes ||
          mono.pick_gains != sharded.pick_gains ||
          mono.activated_samples != sharded.activated_samples ||
          collection->EstimateDelta(lb_set, threads) !=
              sharded_collection->EstimateDelta(lb_set, threads) ||
          collection->EstimateMu(lb_set) !=
              sharded_collection->EstimateMu(lb_set)) {
        std::fprintf(stderr,
                     "FATAL: sharded (S=4) selection diverged from the "
                     "monolithic pool at %d threads\n",
                     threads);
        std::abort();
      }
    }
  }

  Dataset dataset;
  // Persistent eval-state arenas (one PrrEvalState per pool shard): keep the
  // timed selection loop measuring selection (the arenas are kept across
  // runs, not re-allocated), matching how the engine's serial path reuses
  // its SolveContext across a sweep.
  ShardedEvalState eval_state;
  ShardedEvalState sharded_eval_state;
  std::vector<NodeId> seeds;
  std::vector<uint8_t> excluded;
  std::unique_ptr<PrrCollection> collection;
  std::unique_ptr<PrrCollection> sharded_collection;  // same pool, S = 4
  std::vector<NodeId> lb_set;
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// The Δ̂ selection phase exactly as full-mode SolveForBudget runs it after
// the LB order: the Δ̂ greedy over the pool. Arg is the worker count; the
// greedy runs on the calling thread whatever it is, so only 1 is measured.
void BM_DeltaSelectPhase_Incremental(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = f.collection->SelectGreedyDelta(kBudget, f.excluded, threads,
                                                  &f.eval_state);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DeltaSelectPhase_Incremental)->Arg(1)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Same selection phase over the S = 4 sharded pool (bit-identical answers,
// per-shard eval state, per-pick scan over shard index spans).
void BM_DeltaSelectPhase_Sharded(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = f.sharded_collection->SelectGreedyDelta(
        kBudget, f.excluded, threads, &f.sharded_eval_state);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_DeltaSelectPhase_Sharded)->Arg(1)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The sandwich spot check: Δ̂ of a fixed boost set over every stored graph.
void BM_EstimateDelta_Batched(benchmark::State& state) {
  Fixture& f = GetFixture();
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    double d = f.collection->EstimateDelta(f.lb_set, threads);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_EstimateDelta_Batched)->Arg(1)->Arg(4)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EstimateMu(benchmark::State& state) {
  Fixture& f = GetFixture();
  for (auto _ : state) {
    double mu = f.collection->EstimateMu(f.lb_set);
    benchmark::DoNotOptimize(mu);
  }
}
BENCHMARK(BM_EstimateMu);

}  // namespace
}  // namespace kboost
