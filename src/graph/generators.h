#ifndef KBOOST_GRAPH_GENERATORS_H_
#define KBOOST_GRAPH_GENERATORS_H_

#include "src/graph/graph_builder.h"
#include "src/util/rng.h"

namespace kboost {

/// Topology generators. Each returns a GraphBuilder holding edges with
/// unassigned probabilities (p = p' = 0) so that a probability model can be
/// applied before Build(). All generators are deterministic given the Rng.

/// G(n, m): m distinct directed edges chosen uniformly (no self-loops).
/// Requires m <= n*(n-1).
GraphBuilder BuildErdosRenyi(NodeId num_nodes, size_t num_edges, Rng& rng);

/// Directed preferential attachment. Nodes arrive one at a time; each new
/// node emits `out_degree` edges whose targets are chosen proportionally to
/// (in-degree + 1) among earlier nodes. With probability `reciprocity` the
/// reverse edge is added too — social graphs have heavy reciprocation.
/// The result has a power-law in-degree tail, the property that drives
/// PRR-graph size skew in the paper's datasets.
GraphBuilder BuildPreferentialAttachment(NodeId num_nodes, int out_degree,
                                         double reciprocity, Rng& rng);

/// Fractional-fanout variant: each node emits floor(out_degree) edges plus
/// one more with probability frac(out_degree), so the expected edge count
/// matches num_nodes * out_degree * (1 + reciprocity) without integer
/// rounding loss — important for stand-ins near the percolation threshold.
GraphBuilder BuildPreferentialAttachment(NodeId num_nodes, double out_degree,
                                         double reciprocity, Rng& rng);

/// Simple deterministic shapes used heavily in unit tests.
GraphBuilder BuildDirectedPath(NodeId num_nodes);
/// Star with edges hub -> leaf for every leaf.
GraphBuilder BuildOutStar(NodeId num_leaves);

}  // namespace kboost

#endif  // KBOOST_GRAPH_GENERATORS_H_
