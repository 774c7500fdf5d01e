#ifndef KBOOST_CORE_PRR_STORE_H_
#define KBOOST_CORE_PRR_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/prr_graph.h"
#include "src/util/status.h"

namespace kboost {

/// Arena storage for compressed PRR-graphs: a CSR-of-CSRs. Instead of one
/// heap-allocated PrrGraph (six vectors) per sample, every graph in the pool
/// shares five flat buffers — global ids, out/in offsets, out/in edges and
/// critical nodes — with per-graph spans recorded in a small meta table.
/// This removes ~6 allocations per boostable sample, keeps the greedy
/// selection's re-evaluation scans on contiguous memory, and makes appending
/// a sampling chunk's arena to the pool's a handful of memcpys.
///
/// Offsets are stored graph-relative (graph i's out_offsets[0] == 0), so a
/// PrrGraphView is drop-in compatible with the former per-graph layout.
///
/// A store is either *owned* (the default: buffers live in its vectors and
/// Append/Add grow them) or *external* (AttachExternal binds it over spans of
/// memory someone else owns — the sections of a loaded snapshot, kept alive
/// by the session that loaded it). Both modes serve the identical read API
/// (View/num_graphs/...); an external store rejects mutation (Append aborts)
/// and Clear() detaches back to an empty owned store. Only the per-graph meta
/// table is materialized for an external store, so attaching is O(num_graphs)
/// instead of O(bytes).
class PrrStore {
 public:
  PrrStore() = default;

  /// Appends one graph given its final flat arrays; returns its id.
  /// `out_offsets`/`in_offsets` must have num_nodes+1 graph-relative entries.
  size_t Append(std::span<const NodeId> global_ids,
                std::span<const uint32_t> out_offsets,
                std::span<const uint32_t> out_edges,
                std::span<const uint32_t> in_offsets,
                std::span<const uint32_t> in_edges,
                std::span<const uint32_t> critical_locals);

  /// Appends a copy of a per-graph PrrGraph (compat path for tests/tools).
  size_t Add(const PrrGraph& graph);

  /// Appends every graph of `other`, in order, after this store's graphs:
  /// six span copies plus a shifted meta table, no re-walk. Offsets are
  /// graph-relative, so they copy verbatim. The sampler's chunk merge.
  void AppendAll(const PrrStore& other);

  /// The eight flat sections of one arena, as externally owned spans.
  /// `num_nodes`/`num_critical` carry one entry per graph; the rest are the
  /// concatenated pools. A v4 snapshot (src/io/pool_io) stores all but
  /// `num_critical` as its arena region, and its set-size section serves as
  /// `num_critical`. The spans must stay valid for the lifetime of the
  /// store they are attached to (for a loaded snapshot: as long as the
  /// session retaining its bytes lives).
  struct ArenaSections {
    std::span<const uint32_t> num_nodes;
    std::span<const uint32_t> num_critical;
    std::span<const NodeId> global_ids;
    std::span<const uint32_t> out_offsets;
    std::span<const uint32_t> in_offsets;
    std::span<const uint32_t> out_edges;
    std::span<const uint32_t> in_edges;
    std::span<const uint32_t> critical;
  };

  /// Binds this (empty) store over externally owned sections without copying.
  /// Always performs the checks that memory safety depends on: section
  /// lengths mutually consistent, offsets graph-relative and monotone
  /// (evaluators index edge pools through them), and the id walk
  /// (ValidateIds) against a serving graph of `num_graph_nodes` nodes.
  /// `deep_validate` additionally rejects a live super-seed out-edge, which
  /// can only make answers wrong. On error the store is Clear()ed.
  Status AttachExternal(const ArenaSections& sections,
                        uint64_t num_graph_nodes, bool deep_validate);

  PrrGraphView View(size_t id) const;

  /// Materializes graph `id` as a standalone PrrGraph (round-trip testing).
  PrrGraph ToPrrGraph(size_t id) const;

  /// Whole-arena section views, independent of ownership mode — the snapshot
  /// writer streams these straight to disk.
  std::span<const NodeId> raw_global_ids() const {
    return external_ ? ext_global_ids_ : std::span<const NodeId>(global_ids_);
  }
  std::span<const uint32_t> raw_out_offsets() const {
    return external_ ? ext_out_offsets_
                     : std::span<const uint32_t>(out_offsets_);
  }
  std::span<const uint32_t> raw_in_offsets() const {
    return external_ ? ext_in_offsets_ : std::span<const uint32_t>(in_offsets_);
  }
  std::span<const uint32_t> raw_out_edges() const {
    return external_ ? ext_out_edges_ : std::span<const uint32_t>(out_edges_);
  }
  std::span<const uint32_t> raw_in_edges() const {
    return external_ ? ext_in_edges_ : std::span<const uint32_t>(in_edges_);
  }
  std::span<const uint32_t> raw_critical() const {
    return external_ ? ext_critical_ : std::span<const uint32_t>(critical_);
  }

  size_t num_graphs() const { return meta_.size(); }
  size_t total_edges() const { return raw_out_edges().size(); }
  size_t total_nodes() const { return raw_global_ids().size(); }
  size_t critical_count(size_t id) const { return meta_[id].num_critical; }
  uint32_t num_nodes(size_t id) const { return meta_[id].num_nodes; }
  /// Redrawn on every mutation (Append/Clear/AttachExternal) from one
  /// process-wide counter, so two stores share a generation only when one is
  /// a copy of the other — never two pools that happen to reuse an address.
  /// Cached per-graph evaluation state (PrrEvalState) keys on it alone.
  uint64_t generation() const { return generation_; }

  /// Bytes actually used by the pool (the paper's Table 2/3 "memory for
  /// boostable PRR-graphs" metric).
  size_t MemoryBytes() const;

  /// Bytes currently *reserved* by the arena's buffers (vector capacity, not
  /// size) — the observable side of the Clear() keep-capacity contract that
  /// sampling batches and pool refreshes rely on: refilling a cleared arena
  /// with comparable content must not change this.
  size_t AllocatedBytes() const;

  /// Drops all graphs but keeps buffer capacity (chunk-arena reuse across
  /// sampling batches). On an external store this detaches the spans,
  /// leaving an empty owned store.
  void Clear();

 private:
  struct Meta {
    uint64_t node_begin = 0;      // into global_ids_
    uint64_t edge_begin = 0;      // into out_edges_ / in_edges_
    uint64_t critical_begin = 0;  // into critical_
    uint32_t num_nodes = 0;
    uint32_t num_critical = 0;
  };

  /// Rebuilds the meta table by prefix sums over per-graph sizes, verifying
  /// the node/offset sections (through the raw_* accessors, so it covers
  /// both ownership modes): lengths consistent with the size table, offsets
  /// graph-relative, monotone and out/in-consistent. Outputs the implied
  /// edge-pool and critical-pool lengths; the caller checks (or reads) those
  /// sections against them. Sets a fresh generation_ on success.
  Status BuildMetaFromSizes(std::span<const uint32_t> num_nodes,
                            std::span<const uint32_t> num_critical,
                            uint64_t* total_edges, uint64_t* total_critical);

  /// O(total_edges) walk, run in parallel over ranges of graphs: every
  /// global id of a local >= 1 must be < num_graph_nodes, every out-edge
  /// head in [1, n), every in-edge tail in [0, n) and every critical id in
  /// [1, n). Every id an evaluator or the pool's inverted index reads
  /// through then stays in bounds. Requires a built meta table.
  Status ValidateIds(uint64_t num_graph_nodes) const;

  /// Every super-seed out-edge must be a boost edge (f_R(∅) = 0). Requires
  /// a built meta table.
  Status ValidateDeep() const;

  std::vector<Meta> meta_;
  std::vector<NodeId> global_ids_;
  // Graph i's offsets occupy [meta.node_begin + i, ... + num_nodes + 1):
  // each graph contributes num_nodes+1 entries to the offset pools.
  std::vector<uint32_t> out_offsets_;
  std::vector<uint32_t> in_offsets_;
  std::vector<uint32_t> out_edges_;
  std::vector<uint32_t> in_edges_;
  std::vector<uint32_t> critical_;
  // External (view) mode: when external_ is set the vectors above are empty
  // and the spans below alias memory owned elsewhere (a loaded snapshot).
  // All spans are over trivially destructible data, so destruction order
  // between a store and its backing mapping is never a correctness issue —
  // only reads must be fenced by the mapping's lifetime.
  bool external_ = false;
  std::span<const NodeId> ext_global_ids_;
  std::span<const uint32_t> ext_out_offsets_;
  std::span<const uint32_t> ext_in_offsets_;
  std::span<const uint32_t> ext_out_edges_;
  std::span<const uint32_t> ext_in_edges_;
  std::span<const uint32_t> ext_critical_;
  uint64_t generation_ = 0;
};

/// Per-run evaluation state for every graph of a PrrStore, the one record of
/// where each graph stands during a Δ̂ selection: a status byte (untouched,
/// live or activated) plus three bitmaps per graph, packed as contiguous
/// uint64 words in one arena — crit (current critical-set membership), fwd
/// (0-weight-reached from the super-seed under the current boost set) and
/// bwd (0-weight-reaches the root). Small graphs need only a handful of
/// words, so a graph's whole state usually fits in one cache line; the three
/// bitmaps of an n-node graph cost about 3n/8 bytes, against the 12n or more
/// its arena stores. Because boosting only ever *opens* edges, fwd/bwd/crit
/// grow monotonically under commits, which is what makes incremental
/// relaxation (PrrIncrementalEvaluator) exact.
///
/// Thread-safety model: a selection run reads and writes its state on the
/// calling thread only, so concurrent runs need one state each and nothing
/// else.
class PrrEvalState {
 public:
  /// Where a graph stands in the current run.
  enum class GraphStatus : uint8_t {
    kUntouched,  ///< no pick has reached it; its words are garbage
    kLive,       ///< touched, not activated; its words are current
    kActivated,  ///< f_R(B) = 1; its words are dead
  };

  /// (Re)binds to `store` and marks every graph untouched. Slot offsets are
  /// rebuilt only when the store's generation differs from the last
  /// Attach's; the words are never cleared here — Touch zeroes a graph's
  /// words when a run first reaches it.
  void Attach(const PrrStore& store);

  GraphStatus status(size_t g) const { return status_[g]; }
  /// First touch this run: zeroes graph g's words and marks it live.
  void Touch(size_t g);
  void MarkActivated(size_t g) { status_[g] = GraphStatus::kActivated; }

  uint32_t words_per_bitmap(size_t g) const {
    return slots_[g].words_per_bitmap;
  }
  uint64_t* crit(size_t g) { return words_.data() + slots_[g].begin; }
  uint64_t* fwd(size_t g) { return crit(g) + slots_[g].words_per_bitmap; }
  uint64_t* bwd(size_t g) {
    return crit(g) + size_t{2} * slots_[g].words_per_bitmap;
  }

  size_t total_words() const { return words_.size(); }

 private:
  struct Slot {
    uint64_t begin = 0;             // into words_
    uint32_t words_per_bitmap = 0;  // ceil(num_nodes/64)
  };

  uint64_t generation_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint64_t> words_;
  std::vector<GraphStatus> status_;
};

/// Unused alias: kbench still names the eval state by its old sharded name.
/// The next benchmark change (ROADMAP item 4) deletes it.
using ShardedEvalState = PrrEvalState;

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_STORE_H_
