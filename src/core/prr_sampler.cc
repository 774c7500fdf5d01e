#include "src/core/prr_sampler.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {
/// Upper bound on per-batch result buffering; keeps memory flat even when
/// the schedule asks for millions of samples at once.
constexpr size_t kBatchSize = 1 << 16;
/// Samples per dynamically dealt work item: small enough to balance uneven
/// sample costs across workers, large enough that a chunk's bookkeeping and
/// arena append are noise next to its sampling.
constexpr size_t kChunkSamples = 256;
}  // namespace

void PrrSampler::Chunk::Clear() {
  store.Clear();
  statuses.clear();
  crit_offsets.assign(1, 0);
  crit_nodes.clear();
  edges_examined = 0;
  uncompressed_edges = 0;
  compressed_edges = 0;
}

PrrSampler::PrrSampler(const DirectedGraph& graph,
                       const std::vector<NodeId>& seeds, size_t k,
                       bool lb_only, uint64_t seed, int num_threads)
    : graph_(graph),
      seeds_(seeds),
      k_(k),
      lb_only_(lb_only),
      seed_(seed),
      num_threads_(std::max(1, num_threads)),
      generators_(static_cast<size_t>(num_threads_)) {}

size_t PrrSampler::EnsureSamples(PrrCollection& collection, size_t target) {
  while (collection.num_samples() < target) {
    const size_t have = collection.num_samples();
    const size_t need = std::min(kBatchSize, target - have);
    const size_t num_chunks = (need + kChunkSamples - 1) / kChunkSamples;
    if (chunks_.size() < num_chunks) chunks_.resize(num_chunks);

    // Generation: chunk c holds batch samples [c·kChunkSamples, ...), each
    // seeded by its global index, so a chunk's output does not depend on
    // which worker drew it. Worker t only ever touches generators_[t].
    ParallelFor(
        num_chunks, num_threads_,
        [&](size_t c, int t) {
          std::unique_ptr<PrrGenerator>& generator = generators_[t];
          if (generator == nullptr) {
            generator = std::make_unique<PrrGenerator>(graph_, seeds_);
          }
          Chunk& chunk = chunks_[c];
          chunk.Clear();
          PrrStore* sink = lb_only_ ? nullptr : &chunk.store;
          const size_t end = std::min(need, (c + 1) * kChunkSamples);
          for (size_t j = c * kChunkSamples; j < end; ++j) {
            uint64_t rs = seed_;
            rs ^= (have + j + 1) * 0x9E3779B97F4A7C15ULL;
            Rng rng(rs);
            const size_t edges_before = sink ? sink->total_edges() : 0;
            PrrGenResult r = generator->GenerateRandomRoot(k_, lb_only_, rng,
                                                           sink);
            chunk.statuses.push_back(r.status);
            chunk.edges_examined += r.edges_examined;
            if (r.status == PrrStatus::kBoostable) {
              chunk.uncompressed_edges += r.uncompressed_edges;
              chunk.crit_nodes.insert(chunk.crit_nodes.end(),
                                      r.critical_globals.begin(),
                                      r.critical_globals.end());
              chunk.crit_offsets.push_back(chunk.crit_nodes.size());
              if (sink != nullptr) {
                chunk.compressed_edges += sink->total_edges() - edges_before;
              }
            }
          }
        },
        /*chunk=*/1);

    // Ordered merge: chunk arenas join the pool's arena in chunk order, and
    // the records are walked in global sample order. Non-boostable samples
    // just bump counters; boostable samples' critical sets are collected as
    // refs and handed to the collection in ONE round call, so the coverage
    // structure grows once.
    PrrStore* arena = collection.mutable_store();
    round_items_.clear();
    for (size_t c = 0; c < num_chunks; ++c) {
      const Chunk& chunk = chunks_[c];
      if (!lb_only_) arena->AppendAll(chunk.store);
      size_t b = 0;
      for (const PrrStatus status : chunk.statuses) {
        if (status != PrrStatus::kBoostable) {
          collection.AddNonBoostable(status);
          continue;
        }
        PrrCollection::BoostableSampleRef ref;
        ref.critical = chunk.crit_nodes.data() + chunk.crit_offsets[b];
        ref.critical_count = static_cast<uint32_t>(chunk.crit_offsets[b + 1] -
                                                   chunk.crit_offsets[b]);
        ++b;
        round_items_.push_back(ref);
      }
      stats_.edges_examined += chunk.edges_examined;
      stats_.uncompressed_edges += chunk.uncompressed_edges;
      stats_.compressed_edges += chunk.compressed_edges;
    }
    collection.AddBoostableRound(round_items_);
  }
  return collection.num_samples();
}

}  // namespace kboost
