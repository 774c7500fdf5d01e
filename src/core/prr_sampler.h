#ifndef KBOOST_CORE_PRR_SAMPLER_H_
#define KBOOST_CORE_PRR_SAMPLER_H_

#include <memory>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_graph.h"
#include "src/core/prr_store.h"
#include "src/graph/graph.h"

namespace kboost {

/// Aggregate sampling statistics (drives the paper's Table 2/3 columns).
struct PrrSamplerStats {
  size_t edges_examined = 0;          ///< phase-I work over all samples
  size_t uncompressed_edges = 0;      ///< Σ phase-I edges of boostable samples
  size_t compressed_edges = 0;        ///< Σ compressed edges (full mode)
};

/// Parallel, deterministic PRR-graph sampler. Sample i is generated from an
/// Rng seeded by (seed, i), so pools are identical for any thread count.
///
/// Each batch is cut into chunks of 256 consecutive global sample indices,
/// which ParallelFor deals out to the workers dynamically. A chunk fills its
/// own arena and per-sample records with its worker's generator; the chunk
/// arenas are then appended to the collection's one arena in chunk order,
/// and the records are accounted in global sample order through one
/// AddBoostableRound. So the pool is the one a serial per-sample loop would
/// build, byte for byte, at every thread count.
class PrrSampler {
 public:
  PrrSampler(const DirectedGraph& graph, const std::vector<NodeId>& seeds,
             size_t k, bool lb_only, uint64_t seed, int num_threads);

  PrrSampler(const PrrSampler&) = delete;
  PrrSampler& operator=(const PrrSampler&) = delete;

  /// Grows `collection` to at least `target` samples; returns the new size.
  size_t EnsureSamples(PrrCollection& collection, size_t target);

  const PrrSamplerStats& stats() const { return stats_; }

 private:
  /// One chunk's output, reused (capacity kept) across batches.
  struct Chunk {
    PrrStore store;                       // full mode: the chunk's graphs
    std::vector<PrrStatus> statuses;      // the chunk's samples, in order
    std::vector<size_t> crit_offsets{0};  // boostable samples' critical sets:
    std::vector<NodeId> crit_nodes;       // spans into crit_nodes, in order
    size_t edges_examined = 0;
    size_t uncompressed_edges = 0;
    size_t compressed_edges = 0;

    void Clear();
  };

  const DirectedGraph& graph_;
  std::vector<NodeId> seeds_;
  size_t k_;
  bool lb_only_;
  uint64_t seed_;
  int num_threads_;
  PrrSamplerStats stats_;
  // One generator per worker index, created by that worker on first use.
  std::vector<std::unique_ptr<PrrGenerator>> generators_;
  std::vector<Chunk> chunks_;
  // Boostable refs in global sample order, handed to
  // PrrCollection::AddBoostableRound (capacity reused across batches).
  std::vector<PrrCollection::BoostableSampleRef> round_items_;
};

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_SAMPLER_H_
