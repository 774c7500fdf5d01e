#include "src/sim/ic_model.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

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
                             SimScratch& scratch, BoostSemantics semantics) {
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

  const bool boost_head =
      semantics == BoostSemantics::kBoostedAreEasierToInfluence;
  size_t activated = queue.size();
  for (size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    const bool u_boosted = boosted != nullptr && boosted[u];
    size_t edge_index = graph.OutOffset(u);
    for (const DirectedGraph::OutEdge& e : graph.OutEdges(u)) {
      const size_t idx = edge_index++;
      if (mark[e.to] == stamp) continue;
      const bool use_boost = boost_head
                                 ? (boosted != nullptr && boosted[e.to])
                                 : u_boosted;
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
  const size_t sims = options.num_simulations;
  KB_CHECK(sims >= 1);
  const int threads = std::max(1, options.num_threads);

  // Counts are reduced in simulation order, so the estimate is
  // bit-identical at every thread count.
  std::vector<size_t> counts(sims);
  std::vector<SimScratch> scratch(threads);
  ParallelFor(sims, threads, [&](size_t i, int t) {
    uint64_t world = options.seed * 0x100000001B3ULL + i;
    counts[i] = SimulateDiffusionOnce(graph, seeds, world, nullptr, scratch[t]);
  });

  RunningStat total;
  for (size_t count : counts) total.Add(static_cast<double>(count));
  return SpreadEstimate{total.mean(), total.stddev(), total.stderr_mean(),
                        total.count()};
}

double ExactSpread(const DirectedGraph& graph,
                   const std::vector<NodeId>& seeds) {
  const size_t m = graph.num_edges();
  KB_CHECK(m <= 24) << "ExactSpread is exponential in m; m=" << m;
  const size_t n = graph.num_nodes();

  double expected = 0.0;
  std::vector<uint8_t> reached(n);
  std::vector<NodeId> queue;
  for (uint64_t world = 0; world < (1ULL << m); ++world) {
    double prob = 1.0;
    for (NodeId u = 0; u < n && prob > 0.0; ++u) {
      size_t idx = graph.OutOffset(u);
      for (const DirectedGraph::OutEdge& e : graph.OutEdges(u)) {
        const bool live = (world >> idx) & 1;
        prob *= live ? e.p : (1.0 - e.p);
        ++idx;
      }
    }
    if (prob == 0.0) continue;
    std::fill(reached.begin(), reached.end(), 0);
    queue.clear();
    for (NodeId s : seeds) {
      if (!reached[s]) {
        reached[s] = 1;
        queue.push_back(s);
      }
    }
    size_t count = queue.size();
    for (size_t head = 0; head < queue.size(); ++head) {
      NodeId u = queue[head];
      size_t idx = graph.OutOffset(u);
      for (const DirectedGraph::OutEdge& e : graph.OutEdges(u)) {
        const bool live = (world >> idx) & 1;
        ++idx;
        if (live && !reached[e.to]) {
          reached[e.to] = 1;
          queue.push_back(e.to);
          ++count;
        }
      }
    }
    expected += prob * static_cast<double>(count);
  }
  return expected;
}

}  // namespace kboost
