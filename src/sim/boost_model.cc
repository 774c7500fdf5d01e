#include "src/sim/boost_model.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {

/// The one id check of this module, shared by seeds and boost sets.
void CheckNodeIds(size_t num_nodes, const std::vector<NodeId>& nodes) {
  for (NodeId v : nodes) {
    KB_CHECK(v < num_nodes) << "node " << v << " out of range";
  }
}

/// Activated-node counts of simulations 0..sims-1, simulation i in world
/// (seed, i). They are written by index and reduced in that order by the
/// callers, so every estimate is bit-identical at every thread count.
std::vector<size_t> SimulateWorlds(const DirectedGraph& graph,
                                   const std::vector<NodeId>& seeds,
                                   const uint8_t* boosted,
                                   const SimulationOptions& options) {
  const size_t sims = options.num_simulations;
  KB_CHECK(sims >= 1);
  const int threads = std::max(1, options.num_threads);
  std::vector<size_t> counts(sims);
  std::vector<SimScratch> scratch(threads);
  ParallelFor(sims, threads, [&](size_t i, int t) {
    const uint64_t world = options.seed * 0x100000001B3ULL + i;
    counts[i] = SimulateDiffusionOnce(graph, seeds, world, boosted, scratch[t]);
  });
  return counts;
}

}  // namespace

std::vector<uint8_t> MakeNodeBitmap(size_t num_nodes,
                                    const std::vector<NodeId>& nodes) {
  CheckNodeIds(num_nodes, nodes);
  std::vector<uint8_t> bitmap(num_nodes, 0);
  for (NodeId v : nodes) bitmap[v] = 1;
  return bitmap;
}

SpreadEstimate EstimateBoostedSpread(const DirectedGraph& graph,
                                     const std::vector<NodeId>& seeds,
                                     const std::vector<NodeId>& boost_set,
                                     const SimulationOptions& options) {
  CheckNodeIds(graph.num_nodes(), seeds);
  const std::vector<uint8_t> boosted =
      MakeNodeBitmap(graph.num_nodes(), boost_set);
  RunningStat total;
  for (size_t count : SimulateWorlds(graph, seeds, boosted.data(), options)) {
    total.Add(static_cast<double>(count));
  }
  return SpreadEstimate{total.mean(), total.stddev(), total.stderr_mean(),
                        total.count()};
}

BoostEstimate EstimateBoost(const DirectedGraph& graph,
                            const std::vector<NodeId>& seeds,
                            const std::vector<NodeId>& boost_set,
                            const SimulationOptions& options) {
  CheckNodeIds(graph.num_nodes(), seeds);
  const std::vector<uint8_t> boosted =
      MakeNodeBitmap(graph.num_nodes(), boost_set);
  // The same worlds evaluated twice: base edges are a subset of boosted
  // edges, so each difference is a nonnegative, low-variance sample of the
  // boost.
  const std::vector<size_t> base =
      SimulateWorlds(graph, seeds, nullptr, options);
  const std::vector<size_t> with =
      SimulateWorlds(graph, seeds, boosted.data(), options);

  RunningStat diff, with_boost, without_boost;
  for (size_t i = 0; i < base.size(); ++i) {
    diff.Add(static_cast<double>(with[i]) - static_cast<double>(base[i]));
    with_boost.Add(static_cast<double>(with[i]));
    without_boost.Add(static_cast<double>(base[i]));
  }
  BoostEstimate out;
  out.boost = diff.mean();
  out.boost_stderr = diff.stderr_mean();
  out.boosted_spread = with_boost.mean();
  out.base_spread = without_boost.mean();
  out.num_simulations = diff.count();
  return out;
}

double ExactBoostedSpread(const DirectedGraph& graph,
                          const std::vector<NodeId>& seeds,
                          const std::vector<NodeId>& boost_set) {
  const size_t m = graph.num_edges();
  KB_CHECK(m <= 24) << "ExactBoostedSpread is exponential in m; m=" << m;
  const size_t n = graph.num_nodes();
  CheckNodeIds(n, seeds);
  const std::vector<uint8_t> boosted = MakeNodeBitmap(n, boost_set);

  double expected = 0.0;
  std::vector<uint8_t> reached(n);
  std::vector<NodeId> queue;
  for (uint64_t world = 0; world < (1ULL << m); ++world) {
    double prob = 1.0;
    for (NodeId u = 0; u < n && prob > 0.0; ++u) {
      size_t idx = graph.OutOffset(u);
      for (const DirectedGraph::OutEdge& e : graph.OutEdges(u)) {
        const bool live = (world >> idx) & 1;
        const double p = boosted[e.to] ? e.p_boost : e.p;
        prob *= live ? p : (1.0 - p);
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

double ExactBoost(const DirectedGraph& graph, const std::vector<NodeId>& seeds,
                  const std::vector<NodeId>& boost_set) {
  return ExactBoostedSpread(graph, seeds, boost_set) -
         ExactBoostedSpread(graph, seeds, {});
}

}  // namespace kboost
