#include "src/graph/generators.h"

#include <algorithm>
#include <unordered_set>

#include "src/util/logging.h"

namespace kboost {

GraphBuilder BuildErdosRenyi(NodeId num_nodes, size_t num_edges, Rng& rng) {
  KB_CHECK(num_nodes >= 2);
  const size_t max_edges =
      static_cast<size_t>(num_nodes) * (num_nodes - 1);
  KB_CHECK(num_edges <= max_edges)
      << "m=" << num_edges << " exceeds n(n-1)=" << max_edges;
  GraphBuilder builder(num_nodes);
  std::unordered_set<uint64_t> seen;
  seen.reserve(num_edges * 2);
  while (seen.size() < num_edges) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(num_nodes));
    NodeId v = static_cast<NodeId>(rng.NextBounded(num_nodes));
    if (u == v) continue;
    uint64_t key = (static_cast<uint64_t>(u) << 32) | v;
    if (seen.insert(key).second) builder.AddEdge(u, v);
  }
  return builder;
}

GraphBuilder BuildPreferentialAttachment(NodeId num_nodes, int out_degree,
                                         double reciprocity, Rng& rng) {
  return BuildPreferentialAttachment(num_nodes,
                                     static_cast<double>(out_degree),
                                     reciprocity, rng);
}

GraphBuilder BuildPreferentialAttachment(NodeId num_nodes, double out_degree,
                                         double reciprocity, Rng& rng) {
  KB_CHECK(num_nodes >= 2);
  KB_CHECK(out_degree >= 0.5);
  KB_CHECK(reciprocity >= 0.0 && reciprocity <= 1.0);
  GraphBuilder builder(num_nodes);

  // `attractors` holds one entry per (in-degree + 1) unit of attraction, so a
  // uniform draw from it realizes preferential attachment without a heap.
  std::vector<NodeId> attractors;
  attractors.reserve(static_cast<size_t>(
      num_nodes * (out_degree + 1.5)));
  attractors.push_back(0);  // node 0 starts with baseline attraction

  const int whole = static_cast<int>(out_degree);
  const double frac = out_degree - whole;
  for (NodeId u = 1; u < num_nodes; ++u) {
    int want = whole + (rng.NextBernoulli(frac) ? 1 : 0);
    const int fanout = static_cast<int>(std::min<NodeId>(
        static_cast<NodeId>(std::max(want, 1)), u));
    std::unordered_set<NodeId> chosen;
    chosen.reserve(fanout * 2);
    int guard = 0;
    while (static_cast<int>(chosen.size()) < fanout && guard < fanout * 64) {
      NodeId target = attractors[rng.NextBounded(attractors.size())];
      ++guard;
      if (target == u) continue;
      if (!chosen.insert(target).second) continue;
      builder.AddEdge(u, target);
      attractors.push_back(target);
      if (rng.NextBernoulli(reciprocity)) {
        builder.AddEdge(target, u);
        attractors.push_back(u);
      }
    }
    attractors.push_back(u);  // baseline attraction for the newcomer
  }
  builder.DeduplicateEdges();
  return builder;
}

GraphBuilder BuildDirectedPath(NodeId num_nodes) {
  KB_CHECK(num_nodes >= 1);
  GraphBuilder builder(num_nodes);
  for (NodeId u = 0; u + 1 < num_nodes; ++u) builder.AddEdge(u, u + 1);
  return builder;
}

GraphBuilder BuildOutStar(NodeId num_leaves) {
  GraphBuilder builder(num_leaves + 1);
  for (NodeId leaf = 1; leaf <= num_leaves; ++leaf) builder.AddEdge(0, leaf);
  return builder;
}

}  // namespace kboost
