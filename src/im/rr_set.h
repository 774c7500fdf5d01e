#ifndef KBOOST_IM_RR_SET_H_
#define KBOOST_IM_RR_SET_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
#include "src/im/coverage.h"
#include "src/util/rng.h"

namespace kboost {

/// Reusable scratch for reverse-reachable-set generation (visited stamps
/// plus the branchless-scan candidate buffer).
class RrScratch {
 public:
  void Prepare(size_t num_nodes);

  std::vector<uint32_t> visit_mark;
  std::vector<uint32_t> candidates;  // unmarked in-edge slots of one node
  uint32_t stamp = 0;
};

/// Generates one Reverse-Reachable set for `root` under the IC model:
/// a backward BFS from root where each incoming edge (u -> v) is live
/// independently with probability p_uv. Appends the reached nodes
/// (including root) to `out`. Returns the number of edges examined (the
/// EPT contribution used in IMM's cost analysis).
size_t GenerateRrSet(const DirectedGraph& graph, NodeId root, Rng& rng,
                     RrScratch& scratch, std::vector<NodeId>& out);

/// Same with a uniformly random root.
size_t GenerateRandomRrSet(const DirectedGraph& graph, Rng& rng,
                           RrScratch& scratch, std::vector<NodeId>& out);

/// Parallel, deterministic RR-set sampler feeding a CoverageSelector — the
/// one behind IMM and MoreSeeds. Sample i (counted over the selector's
/// sets, empty ones included) has a random root drawn from an Rng seeded by
/// (seed, i), so the pool is the same at every thread count.
///
/// Each batch is cut into chunks of consecutive sample indices, which
/// ParallelFor deals out to the workers dynamically; a chunk fills its own
/// flat buffer with its worker's scratch. The batch then joins the selector
/// in chunk order through one AppendSets, whose fill fans back out over the
/// workers, and the chunk buffers are freed before the selector's index
/// next grows. So the selector holds what a serial per-sample AddSet loop
/// would give it.
class RrSampler {
 public:
  /// `blocked`, when non-null, is an n-sized node bitmap (MoreSeeds' seed
  /// set) that must outlive the sampler: a set holding a blocked node joins
  /// the selector as an empty set, in the denominator only.
  RrSampler(const DirectedGraph& graph, uint64_t seed, int num_threads,
            const std::vector<uint8_t>* blocked = nullptr);

  /// Grows `selector` to at least `target` sets; returns its new size.
  size_t EnsureSamples(CoverageSelector& selector, size_t target);

  /// In-edges examined over every set drawn (IMM's EPT work).
  size_t edges_examined() const { return edges_examined_; }

 private:
  const DirectedGraph& graph_;
  uint64_t seed_;
  int num_threads_;
  const std::vector<uint8_t>* blocked_;
  std::vector<RrScratch> scratch_;  // one per worker index
  size_t edges_examined_ = 0;
};

}  // namespace kboost

#endif  // KBOOST_IM_RR_SET_H_
