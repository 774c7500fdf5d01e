#ifndef KBOOST_SIM_IC_MODEL_H_
#define KBOOST_SIM_IC_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/thread_pool.h"

namespace kboost {

/// Tunables for all Monte-Carlo estimators.
struct SimulationOptions {
  size_t num_simulations = 2000;
  int num_threads = DefaultThreadCount();
  uint64_t seed = 42;  ///< base seed; simulation i uses world (seed, i)
};

/// A Monte-Carlo estimate with uncertainty.
struct SpreadEstimate {
  double mean = 0.0;
  double stddev = 0.0;
  double stderr_mean = 0.0;
  size_t num_simulations = 0;
};

/// Reusable per-thread scratch for BFS so repeated simulations allocate
/// nothing. One instance per thread; resized lazily to the graph.
class SimScratch {
 public:
  void Prepare(size_t num_nodes);

  std::vector<uint32_t> visit_mark;  // stamp per node
  uint32_t stamp = 0;
  std::vector<NodeId> queue;
};

/// Runs one IC-model diffusion in the deterministic random world identified
/// by `world_seed`: edge e (global index) is live iff hash(world_seed, e)
/// maps below its probability. `boosted` may be null (no boosting) or an
/// n-sized bitmap; boosted heads use p_boost. Returns the number of
/// activated nodes. Identical world_seed ⇒ identical world, which couples
/// boosted/unboosted runs for low-variance boost estimates. Seed ids are
/// checked only in debug builds here; the estimators check them once in
/// every build before the first simulation.
size_t SimulateDiffusionOnce(const DirectedGraph& graph,
                             const std::vector<NodeId>& seeds,
                             uint64_t world_seed, const uint8_t* boosted,
                             SimScratch& scratch);

/// Expected IC influence spread of `seeds` (no boosting), by Monte Carlo:
/// EstimateBoostedSpread with an empty boost set.
SpreadEstimate EstimateSpread(const DirectedGraph& graph,
                              const std::vector<NodeId>& seeds,
                              const SimulationOptions& options = {});

/// Exact IC influence spread by exhaustive enumeration of live-edge worlds:
/// ExactBoostedSpread with an empty boost set. Requires num_edges <= 24;
/// intended for tests only.
double ExactSpread(const DirectedGraph& graph,
                   const std::vector<NodeId>& seeds);

}  // namespace kboost

#endif  // KBOOST_SIM_IC_MODEL_H_
