#ifndef KBOOST_GRAPH_GRAPH_BUILDER_H_
#define KBOOST_GRAPH_GRAPH_BUILDER_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/util/rng.h"

namespace kboost {

/// Accumulates edges and their probabilities, then freezes them into an
/// immutable DirectedGraph. Probabilities are assigned here because a
/// DirectedGraph never changes once built.
class GraphBuilder {
 public:
  /// A staged edge before CSR layout.
  struct Edge {
    NodeId from;
    NodeId to;
    float p;
    float p_boost;
  };

  explicit GraphBuilder(NodeId num_nodes);

  NodeId num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Adds a directed edge with explicit probabilities.
  /// Requires 0 <= p <= p_boost <= 1 and valid node ids.
  GraphBuilder& AddEdge(NodeId from, NodeId to, double p, double p_boost);

  /// Adds a directed edge with p_boost defaulted equal to p (assign a model
  /// or call SetBoostWithBeta later).
  GraphBuilder& AddEdge(NodeId from, NodeId to, double p = 0.0) {
    return AddEdge(from, to, p, p);
  }

  /// Removes duplicate (from, to) pairs, keeping the first occurrence, and
  /// drops self-loops. Returns the number of edges removed.
  size_t DeduplicateEdges();

  // ---- Probability models (Sec. VII "Datasets") -------------------------

  /// Every edge gets base probability p.
  GraphBuilder& AssignConstantProbability(double p);
  /// p drawn i.i.d. Exponential(mean), clamped to [1e-6, 1]. Matches a
  /// learned probability distribution's mean while keeping the heavy skew
  /// observed in Goyal-style learned probabilities.
  GraphBuilder& AssignExponentialProbabilities(double mean, Rng& rng);

  /// Sets p' = 1 - (1-p)^beta on every edge (boosting parameter, Sec. VII).
  GraphBuilder& SetBoostWithBeta(double beta);

  /// Freezes into an immutable CSR graph. Edges are sorted and both
  /// adjacency directions are materialized. The builder is consumed.
  DirectedGraph Build() &&;

 private:
  NodeId num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace kboost

#endif  // KBOOST_GRAPH_GRAPH_BUILDER_H_
