#include "src/sim/lt_model.h"

#include <algorithm>
#include <cmath>

#include "src/sim/boost_model.h"
#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/stats.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {

/// Per-(world, node) uniform threshold.
inline double NodeThreshold(uint64_t world_seed, NodeId v) {
  uint64_t s = world_seed ^ (0xA24BAED4963EE407ULL * (v + 1));
  uint64_t z = SplitMix64(s);
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// In-weight of edge (from -> v) given v's boost flag, capped later.
inline double EdgeWeight(const DirectedGraph::InEdge& e, bool v_boosted) {
  return v_boosted ? e.p_boost : e.p;
}

}  // namespace

bool IsValidLtGraph(const DirectedGraph& graph) {
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    double sum = 0.0;
    for (const DirectedGraph::InEdge& e : graph.InEdges(v)) sum += e.p;
    if (sum > 1.0 + 1e-6) return false;
  }
  return true;
}

size_t SimulateLtOnce(const DirectedGraph& graph,
                      const std::vector<NodeId>& seeds, uint64_t world_seed,
                      const uint8_t* boosted, SimScratch& scratch) {
  scratch.Prepare(graph.num_nodes());
  auto& mark = scratch.visit_mark;
  const uint32_t stamp = scratch.stamp;
  auto& queue = scratch.queue;

  for (NodeId s : seeds) {
    if (mark[s] != stamp) {
      mark[s] = stamp;
      queue.push_back(s);
    }
  }
  size_t activated = queue.size();

  // Frontier propagation: when u activates, each inactive out-neighbour v
  // re-checks its activated in-weight against its world threshold. A
  // boosted v scales incoming weights to p_boost, capped so the total
  // in-weight never exceeds 1 (keeps thresholds well-defined).
  for (size_t head = 0; head < queue.size(); ++head) {
    NodeId u = queue[head];
    for (const DirectedGraph::OutEdge& out : graph.OutEdges(u)) {
      const NodeId v = out.to;
      if (mark[v] == stamp) continue;
      const bool v_boosted = boosted != nullptr && boosted[v];
      double active_weight = 0.0;
      double total_weight = 0.0;
      for (const DirectedGraph::InEdge& e : graph.InEdges(v)) {
        const double w = EdgeWeight(e, v_boosted);
        total_weight += w;
        if (mark[e.from] == stamp) active_weight += w;
      }
      const double cap = std::max(1.0, total_weight);
      if (active_weight / cap >= NodeThreshold(world_seed, v)) {
        mark[v] = stamp;
        queue.push_back(v);
        ++activated;
      }
    }
  }
  return activated;
}

SpreadEstimate EstimateLtSpread(const DirectedGraph& graph,
                                const std::vector<NodeId>& seeds,
                                const SimulationOptions& options) {
  KB_CHECK(options.num_simulations >= 1);
  const int threads = std::max(1, options.num_threads);
  // Counts are reduced in simulation order, so the estimate is
  // bit-identical at every thread count.
  std::vector<size_t> counts(options.num_simulations);
  std::vector<SimScratch> scratch(threads);
  ParallelFor(options.num_simulations, threads, [&](size_t i, int t) {
    uint64_t world = options.seed * 0x100000001B3ULL + i;
    counts[i] = SimulateLtOnce(graph, seeds, world, nullptr, scratch[t]);
  });
  RunningStat total;
  for (size_t count : counts) total.Add(static_cast<double>(count));
  return SpreadEstimate{total.mean(), total.stddev(), total.stderr_mean(),
                        total.count()};
}

BoostEstimate EstimateLtBoost(const DirectedGraph& graph,
                              const std::vector<NodeId>& seeds,
                              const std::vector<NodeId>& boost_set,
                              const SimulationOptions& options) {
  KB_CHECK(options.num_simulations >= 1);
  const int threads = std::max(1, options.num_threads);
  const std::vector<uint8_t> boosted =
      MakeNodeBitmap(graph.num_nodes(), boost_set);

  struct Accum {
    RunningStat diff, with_boost, without_boost;
    SimScratch scratch;
  };
  std::vector<Accum> acc(threads);
  ParallelFor(options.num_simulations, threads, [&](size_t i, int t) {
    uint64_t world = options.seed * 0x100000001B3ULL + i;
    size_t base = SimulateLtOnce(graph, seeds, world, nullptr, acc[t].scratch);
    size_t with =
        SimulateLtOnce(graph, seeds, world, boosted.data(), acc[t].scratch);
    acc[t].diff.Add(static_cast<double>(with) - static_cast<double>(base));
    acc[t].with_boost.Add(static_cast<double>(with));
    acc[t].without_boost.Add(static_cast<double>(base));
  });
  RunningStat diff, with_boost, without_boost;
  for (const Accum& a : acc) {
    diff.Merge(a.diff);
    with_boost.Merge(a.with_boost);
    without_boost.Merge(a.without_boost);
  }
  BoostEstimate out;
  out.boost = diff.mean();
  out.boost_stderr = diff.stderr_mean();
  out.boosted_spread = with_boost.mean();
  out.base_spread = without_boost.mean();
  out.num_simulations = diff.count();
  return out;
}

double ExactLtSpread(const DirectedGraph& graph,
                     const std::vector<NodeId>& seeds) {
  const size_t n = graph.num_nodes();
  KB_CHECK(n <= 8) << "ExactLtSpread is exponential in n";
  KB_CHECK(IsValidLtGraph(graph)) << "in-weights must sum to <= 1";

  // LT == live-edge model where each node keeps at most one in-edge,
  // edge e with probability w_e and "no edge" with 1 - Σ w. Enumerate all
  // per-node choices recursively.
  std::vector<int> choice(n, -1);  // -1 = none, else index into InEdges(v)
  double expected = 0.0;

  std::vector<NodeId> stack;
  std::vector<uint8_t> reached(n);
  auto evaluate = [&]() -> double {
    std::fill(reached.begin(), reached.end(), 0);
    stack.clear();
    for (NodeId s : seeds) {
      if (!reached[s]) {
        reached[s] = 1;
        stack.push_back(s);
      }
    }
    // v activates iff its chosen in-edge's source activates.
    bool changed = true;
    size_t count = stack.size();
    while (changed) {
      changed = false;
      for (NodeId v = 0; v < n; ++v) {
        if (reached[v] || choice[v] < 0) continue;
        const NodeId src = graph.InEdges(v)[choice[v]].from;
        if (reached[src]) {
          reached[v] = 1;
          ++count;
          changed = true;
        }
      }
    }
    return static_cast<double>(count);
  };

  // Recursive enumeration with explicit stack over node index.
  struct Frame {
    NodeId v;
    int next_choice;  // -1 = none branch, then 0..deg-1
    double prob;
  };
  std::vector<Frame> frames;
  frames.push_back(Frame{0, -1, 1.0});
  while (!frames.empty()) {
    Frame& f = frames.back();
    if (f.v == n) {
      expected += f.prob * evaluate();
      frames.pop_back();
      continue;
    }
    const auto in = graph.InEdges(f.v);
    double none_prob = 1.0;
    for (const auto& e : in) none_prob -= e.p;
    ++f.next_choice;
    // Choices: 0..deg-1 pick that in-edge; deg is the "no edge" branch.
    if (f.next_choice > static_cast<int>(in.size())) {
      frames.pop_back();
      continue;
    }
    double p;
    if (f.next_choice == static_cast<int>(in.size())) {
      choice[f.v] = -1;
      p = std::max(0.0, none_prob);
    } else {
      choice[f.v] = f.next_choice;
      p = in[f.next_choice].p;
    }
    if (p <= 0.0) continue;
    frames.push_back(Frame{static_cast<NodeId>(f.v + 1), -1, f.prob * p});
  }
  return expected;
}

}  // namespace kboost
