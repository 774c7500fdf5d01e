#include "src/graph/graph.h"

namespace kboost {

double DirectedGraph::AverageProbability() const {
  if (out_edges_.empty()) return 0.0;
  double sum = 0.0;
  for (const OutEdge& e : out_edges_) sum += e.p;
  return sum / static_cast<double>(out_edges_.size());
}

size_t DirectedGraph::MemoryBytes() const {
  return out_offsets_.capacity() * sizeof(size_t) +
         in_offsets_.capacity() * sizeof(size_t) +
         out_edges_.capacity() * sizeof(OutEdge) +
         in_edges_.capacity() * sizeof(InEdge) +
         in_thresholds_.capacity() * sizeof(InThreshold);
}

}  // namespace kboost
