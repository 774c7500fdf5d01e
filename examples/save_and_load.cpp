// Persistence workflow: synthesize a network once, save it, reload it, and
// run PRR-Boost on the reloaded copy — the round trip a downstream user
// doing repeated experiments on a fixed graph would follow. The second half
// does the same for the expensive part of PRR-Boost itself: a BoostSession
// samples the PRR pool once, snapshots it to disk, and a "second process"
// reloads the pool and serves budget queries without any resampling.

#include <cstdio>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/graph_io.h"
#include "src/io/pool_io.h"
#include "src/sim/boost_model.h"

int main() {
  using namespace kboost;

  Dataset d = MakeDataset(SpecByName("digg", 0.02));
  const std::string path = "/tmp/kboost_digg_standin.txt";
  Status save = SaveEdgeList(d.graph, path);
  if (!save.ok()) {
    std::fprintf(stderr, "save failed: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("saved %s (n=%zu, m=%zu) to %s\n", d.name.c_str(),
              d.graph.num_nodes(), d.graph.num_edges(), path.c_str());

  StatusOr<DirectedGraph> loaded = LoadEdgeList(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  const DirectedGraph& g = loaded.value();
  std::printf("reloaded: n=%zu, m=%zu, avg_p=%.3f\n", g.num_nodes(),
              g.num_edges(), g.AverageProbability());

  std::vector<NodeId> seeds = SelectInfluentialSeeds(g, 10, 1, 0);
  BoostOptions opts;
  opts.k = 25;
  BoostResult r = PrrBoost(g, seeds, opts);
  BoostEstimate mc = EstimateBoost(g, seeds, r.best_set, {});
  std::printf("PRR-Boost on the reloaded graph: k=25 boost %.2f "
              "(MC %.2f +- %.2f)\n",
              r.best_estimate, mc.boost, 2 * mc.boost_stderr);

  // ---- Pool snapshots: sample once, serve anywhere ------------------------
  const std::string pool_path = "/tmp/kboost_digg_pool.bin";
  BoostSession session(g, seeds, opts);
  session.Prepare();  // the expensive part: IMM schedule + PRR sampling
  Status pool_save = session.SavePool(pool_path);
  if (!pool_save.ok()) {
    std::fprintf(stderr, "pool save failed: %s\n",
                 pool_save.ToString().c_str());
    return 1;
  }
  std::printf("saved PRR pool (theta=%zu) to %s\n",
              session.collection().num_samples(), pool_path.c_str());

  StatusOr<std::unique_ptr<BoostSession>> restored =
      LoadPoolSnapshot(g, pool_path, PoolLoadOptions{});
  if (!restored.ok()) {
    std::fprintf(stderr, "pool load failed: %s\n",
                 restored.status().ToString().c_str());
    return 1;
  }
  BoostSession& warm = *restored.value();
  // The reloaded session answers any budget ≤ its pool budget without
  // resampling — here a sweep, each answer selection-only.
  warm.Prepare();
  for (size_t k : {5, 15, 25}) {
    BoostResult sweep = warm.Solve({.k = k}).value();
    std::printf("reloaded pool, k=%2zu: boost %.2f (%zu samples)\n", k,
                sweep.best_estimate, sweep.num_samples);
  }
  return 0;
}
