#include "src/im/rr_set.h"

#include <algorithm>

#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {
/// Upper bound on one batch's sets, which bounds the chunk buffers held
/// beside the pool when the schedule asks for many sets at once.
constexpr size_t kBatchSets = size_t{1} << 16;
/// Sets per dynamically dealt chunk: an RR set on a dense graph reaches a
/// large share of the nodes, so even a few sets keep a worker busy, and a
/// small chunk balances the short last batches of IMM's schedule.
constexpr size_t kChunkSets = 8;
}  // namespace

void RrScratch::Prepare(size_t num_nodes) {
  if (visit_mark.size() < num_nodes) {
    visit_mark.assign(num_nodes, 0);
    stamp = 0;
  }
  ++stamp;
  if (stamp == 0) {
    std::fill(visit_mark.begin(), visit_mark.end(), 0);
    stamp = 1;
  }
}

size_t GenerateRrSet(const DirectedGraph& graph, NodeId root, Rng& rng,
                     RrScratch& scratch, std::vector<NodeId>& out) {
  KB_DCHECK(root < graph.num_nodes());
  scratch.Prepare(graph.num_nodes());
  auto& mark = scratch.visit_mark;
  auto& candidates = scratch.candidates;
  const uint32_t stamp = scratch.stamp;

  size_t first = out.size();
  out.push_back(root);
  mark[root] = stamp;
  size_t edges_examined = 0;
  for (size_t head = first; head < out.size(); ++head) {
    NodeId v = out[head];
    const std::span<const DirectedGraph::InEdge> in_edges = graph.InEdges(v);
    const std::span<const DirectedGraph::InThreshold> thresholds =
        graph.InThresholds(v);
    const size_t degree = in_edges.size();
    edges_examined += degree;
    // Sized per node, not per graph: one scratch may serve graphs with
    // different degree distributions.
    if (candidates.size() < degree) candidates.resize(degree);
    // Branchless prefilter: collect in-edge slots whose source is unmarked.
    // The draw loop rechecks the mark (its branch is then almost always
    // not-taken, only parallel edges flip it), so the set and order of RNG
    // draws — one per unmarked source, Bernoulli(p) — is exactly the same
    // as the naive check-then-draw loop.
    size_t count = 0;
    for (size_t i = 0; i < degree; ++i) {
      candidates[count] = static_cast<uint32_t>(i);
      count += mark[in_edges[i].from] != stamp;
    }
    for (size_t s = 0; s < count; ++s) {
      const uint32_t i = candidates[s];
      const NodeId from = in_edges[i].from;
      if (mark[from] == stamp) continue;  // marked by a parallel edge
      if ((rng.NextU64() >> 11) < thresholds[i].p) {
        mark[from] = stamp;
        out.push_back(from);
      }
    }
  }
  return edges_examined;
}

size_t GenerateRandomRrSet(const DirectedGraph& graph, Rng& rng,
                           RrScratch& scratch, std::vector<NodeId>& out) {
  NodeId root = static_cast<NodeId>(rng.NextBounded(graph.num_nodes()));
  return GenerateRrSet(graph, root, rng, scratch, out);
}

RrSampler::RrSampler(const DirectedGraph& graph, uint64_t seed,
                     int num_threads, const std::vector<uint8_t>* blocked)
    : graph_(graph),
      seed_(seed),
      num_threads_(std::max(1, num_threads)),
      blocked_(blocked),
      scratch_(static_cast<size_t>(num_threads_)) {}

size_t RrSampler::EnsureSamples(CoverageSelector& selector, size_t target) {
  // Shared state is partitioned, not locked: chunk c is written only by the
  // worker that drew it, scratch_[t] only by worker t, and everything else
  // only on this thread between ParallelFor calls, whose fork/join edges
  // order the accesses.
  struct Chunk {
    std::vector<NodeId> nodes;    // the kept sets, back to back
    std::vector<uint32_t> sizes;  // one per kept set
    size_t empty = 0;             // sets a blocked node hit
    size_t edges = 0;
  };
  while (selector.num_sets() < target) {
    const size_t have = selector.num_sets();
    const size_t need = std::min(kBatchSets, target - have);
    std::vector<Chunk> chunks((need + kChunkSets - 1) / kChunkSets);
    ParallelFor(
        chunks.size(), num_threads_,
        [&](size_t c, int t) {
          Chunk& chunk = chunks[c];
          const size_t end = std::min(need, (c + 1) * kChunkSets);
          for (size_t j = c * kChunkSets; j < end; ++j) {
            uint64_t s = seed_;
            s ^= (have + j + 1) * 0x9E3779B97F4A7C15ULL;
            Rng rng(s);
            const size_t begin = chunk.nodes.size();
            chunk.edges +=
                GenerateRandomRrSet(graph_, rng, scratch_[t], chunk.nodes);
            const bool hit =
                blocked_ != nullptr &&
                std::any_of(chunk.nodes.begin() + begin, chunk.nodes.end(),
                            [&](NodeId v) { return (*blocked_)[v] != 0; });
            if (hit) {
              chunk.nodes.resize(begin);
              ++chunk.empty;
            } else {
              chunk.sizes.push_back(
                  static_cast<uint32_t>(chunk.nodes.size() - begin));
            }
          }
        },
        /*chunk=*/1);

    // Chunk order is sample order: one AppendSets grows the pool once, and
    // the chunks copy themselves into their disjoint spans in parallel.
    std::vector<uint32_t> sizes;
    std::vector<size_t> starts(chunks.size() + 1, 0);
    size_t empty = 0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      const Chunk& chunk = chunks[c];
      sizes.insert(sizes.end(), chunk.sizes.begin(), chunk.sizes.end());
      starts[c + 1] = starts[c] + chunk.nodes.size();
      empty += chunk.empty;
      edges_examined_ += chunk.edges;
    }
    NodeId* base = selector.AppendSets(sizes);
    selector.AddEmptySets(empty);
    ParallelFor(
        chunks.size(), num_threads_,
        [&](size_t c, int /*t*/) {
          std::copy(chunks[c].nodes.begin(), chunks[c].nodes.end(),
                    base + starts[c]);
        },
        /*chunk=*/1);
  }
  return selector.num_sets();
}

}  // namespace kboost
