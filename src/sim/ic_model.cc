#include "src/sim/ic_model.h"

#include <algorithm>

#include "src/sim/boost_model.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace kboost {

namespace {

/// Maps (world_seed, edge_index) to a uniform double in [0, 1). The same
/// pair always yields the same draw — the heart of the coupled-worlds
/// estimator used by EstimateBoost.
inline double EdgeDraw(uint64_t world_seed, size_t edge_index) {
  uint64_t s = world_seed ^ (0x9E3779B97F4A7C15ULL * (edge_index + 1));
  uint64_t z = SplitMix64(s);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

void SimScratch::Prepare(size_t num_nodes) {
  if (visit_mark.size() < num_nodes) {
    visit_mark.assign(num_nodes, 0);
    stamp = 0;
  }
  ++stamp;
  if (stamp == 0) {  // stamp wrapped; reset marks
    std::fill(visit_mark.begin(), visit_mark.end(), 0);
    stamp = 1;
  }
  queue.clear();
}

size_t SimulateDiffusionOnce(const DirectedGraph& graph,
                             const std::vector<NodeId>& seeds,
                             uint64_t world_seed, const uint8_t* boosted,
                             SimScratch& scratch) {
  scratch.Prepare(graph.num_nodes());
  auto& mark = scratch.visit_mark;
  const uint32_t stamp = scratch.stamp;
  auto& queue = scratch.queue;

  for (NodeId s : seeds) {
    KB_DCHECK(s < graph.num_nodes());
    if (mark[s] != stamp) {
      mark[s] = stamp;
      queue.push_back(s);
    }
  }

  size_t activated = queue.size();
  for (size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    size_t edge_index = graph.OutOffset(u);
    for (const DirectedGraph::OutEdge& e : graph.OutEdges(u)) {
      const size_t idx = edge_index++;
      if (mark[e.to] == stamp) continue;
      const bool use_boost = boosted != nullptr && boosted[e.to];
      const double p = use_boost ? e.p_boost : e.p;
      if (EdgeDraw(world_seed, idx) < p) {
        mark[e.to] = stamp;
        queue.push_back(e.to);
        ++activated;
      }
    }
  }
  return activated;
}

SpreadEstimate EstimateSpread(const DirectedGraph& graph,
                              const std::vector<NodeId>& seeds,
                              const SimulationOptions& options) {
  return EstimateBoostedSpread(graph, seeds, {}, options);
}

double ExactSpread(const DirectedGraph& graph,
                   const std::vector<NodeId>& seeds) {
  return ExactBoostedSpread(graph, seeds, {});
}

}  // namespace kboost
