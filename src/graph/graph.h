#ifndef KBOOST_GRAPH_GRAPH_H_
#define KBOOST_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace kboost {

/// Node identifier. Graphs are limited to ~4.2 billion nodes, which covers
/// every social network in the paper with room to spare while halving the
/// memory footprint relative to 64-bit ids.
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// An immutable directed graph in compressed-sparse-row form with *two*
/// influence probabilities per edge: the base probability `p` and the
/// boosted probability `p_boost` (`p'` in the paper, used when the edge's
/// head is a boosted node). Both out-adjacency (forward diffusion, used by
/// the Monte-Carlo simulators) and in-adjacency (reverse sampling, used by
/// RR-sets and PRR-graphs) are materialized.
///
/// Build instances with GraphBuilder; this class never mutates.
class DirectedGraph {
 public:
  /// One outgoing edge as seen from its tail.
  struct OutEdge {
    NodeId to;
    float p;
    float p_boost;
  };
  /// One incoming edge as seen from its head.
  struct InEdge {
    NodeId from;
    float p;
    float p_boost;
  };

  /// Integer draw thresholds for one incoming edge: t = ceil(p · 2^53).
  /// For a 53-bit uniform draw x (NextU64() >> 11), `x < t` is bit-identical
  /// to `NextDouble() < p` — the reverse samplers compare raw integers on
  /// their hot loops instead of converting to double per edge.
  struct InThreshold {
    uint64_t p;
    uint64_t p_boost;
  };

  DirectedGraph() = default;

  /// Number of nodes n. Node ids are [0, n).
  size_t num_nodes() const { return num_nodes_; }
  /// Number of directed edges m.
  size_t num_edges() const { return out_edges_.size(); }

  /// Outgoing edges of u, contiguous, sorted by target id.
  std::span<const OutEdge> OutEdges(NodeId u) const {
    return {out_edges_.data() + out_offsets_[u],
            out_offsets_[u + 1] - out_offsets_[u]};
  }
  /// Incoming edges of v, contiguous, sorted by source id.
  std::span<const InEdge> InEdges(NodeId v) const {
    return {in_edges_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }
  /// Draw thresholds parallel to InEdges(v).
  std::span<const InThreshold> InThresholds(NodeId v) const {
    return {in_thresholds_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  size_t OutDegree(NodeId u) const {
    return out_offsets_[u + 1] - out_offsets_[u];
  }
  /// Global index of u's first outgoing edge in edge-array order. Together
  /// with OutEdges(u) this gives every edge a stable id in [0, m), which the
  /// simulators hash to realize coupled random worlds.
  size_t OutOffset(NodeId u) const { return out_offsets_[u]; }
  size_t InDegree(NodeId v) const {
    return in_offsets_[v + 1] - in_offsets_[v];
  }

  /// Mean of base probabilities over all edges (the "average influence
  /// probability" statistic of Table 1). Returns 0 for edgeless graphs.
  double AverageProbability() const;

  /// Approximate heap footprint in bytes (adjacency arrays + offsets).
  size_t MemoryBytes() const;

 private:
  friend class GraphBuilder;

  size_t num_nodes_ = 0;
  std::vector<size_t> out_offsets_;  // size n+1
  std::vector<OutEdge> out_edges_;   // size m, grouped by source
  std::vector<size_t> in_offsets_;   // size n+1
  std::vector<InEdge> in_edges_;     // size m, grouped by target
  std::vector<InThreshold> in_thresholds_;  // size m, parallel to in_edges_
};

}  // namespace kboost

#endif  // KBOOST_GRAPH_GRAPH_H_
