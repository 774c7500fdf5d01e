#ifndef KBOOST_CORE_PRR_GRAPH_H_
#define KBOOST_CORE_PRR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/ring_deque.h"
#include "src/util/rng.h"

namespace kboost {

/// Classification of a sampled PRR-graph (Sec. V-A).
enum class PrrStatus {
  kActivated,  ///< a live seed→root path exists; f_R ≡ 0
  kHopeless,   ///< no seed→root path with ≤ k live-upon-boost edges; f_R ≡ 0
  kBoostable,  ///< boosting can flip the root; the interesting case
};

class PrrStore;
struct PrrGraphView;

/// A compressed, boostable Potentially-Reverse-Reachable graph (Def. 3 after
/// the Phase-II compression of Algorithm 1).
///
/// Local node ids: 0 is the super-seed (the contraction of every node that
/// activates without boosting), 1 is the root, and the rest are intermediate
/// nodes. Every edge is either *live* or *live-upon-boost* ("boost"); an
/// edge (u,v) is traversable under boost set B iff it is live, or it is a
/// boost edge and v ∈ B. By construction f_R(∅) = 0: all super-seed
/// out-edges are boost edges.
struct PrrGraph {
  static constexpr uint32_t kSuperSeedLocal = 0;
  static constexpr uint32_t kRootLocal = 1;

  /// Packs an adjacency entry: (neighbour local id << 1) | is_boost.
  static uint32_t PackEdge(uint32_t neighbor, bool boost) {
    return (neighbor << 1) | static_cast<uint32_t>(boost);
  }
  static uint32_t EdgeNode(uint32_t packed) { return packed >> 1; }
  static bool EdgeBoost(uint32_t packed) { return (packed & 1u) != 0; }

  /// local id -> global node id; [0] is kInvalidNode (the super-seed has no
  /// global identity), [1] is the root's global id.
  std::vector<NodeId> global_ids;
  std::vector<uint32_t> out_offsets;  ///< size num_nodes()+1
  std::vector<uint32_t> out_edges;    ///< packed (target, boost)
  std::vector<uint32_t> in_offsets;   ///< size num_nodes()+1
  std::vector<uint32_t> in_edges;     ///< packed (source, boost)
  /// Critical nodes at B = ∅ (local ids): boosting any one of them alone
  /// activates the root. This is C_R, the µ lower bound's coverage set.
  std::vector<uint32_t> critical_locals;

  uint32_t num_nodes() const {
    return static_cast<uint32_t>(global_ids.size());
  }
  size_t num_edges() const { return out_edges.size(); }
  size_t MemoryBytes() const;
  PrrGraphView View() const;
};

/// A non-owning view of one compressed PRR-graph, either standalone
/// (PrrGraph::View) or a span into a PrrStore arena. The layout is identical
/// to PrrGraph — offsets are graph-relative — so all evaluation code runs on
/// views and never cares where the bytes live.
struct PrrGraphView {
  const NodeId* global_ids = nullptr;
  const uint32_t* out_offsets = nullptr;  ///< num_nodes()+1 entries
  const uint32_t* out_edges = nullptr;    ///< packed (target, boost)
  const uint32_t* in_offsets = nullptr;   ///< num_nodes()+1 entries
  const uint32_t* in_edges = nullptr;     ///< packed (source, boost)
  const uint32_t* critical_locals = nullptr;
  uint32_t num_nodes_count = 0;
  uint32_t num_critical_count = 0;

  uint32_t num_nodes() const { return num_nodes_count; }
  size_t num_edges() const { return out_offsets[num_nodes_count]; }
  std::span<const uint32_t> critical() const {
    return {critical_locals, num_critical_count};
  }
};

inline PrrGraphView PrrGraph::View() const {
  PrrGraphView view;
  view.global_ids = global_ids.data();
  view.out_offsets = out_offsets.data();
  view.out_edges = out_edges.data();
  view.in_offsets = in_offsets.data();
  view.in_edges = in_edges.data();
  view.critical_locals = critical_locals.data();
  view.num_nodes_count = num_nodes();
  view.num_critical_count = static_cast<uint32_t>(critical_locals.size());
  return view;
}

/// Result of sampling one PRR-graph.
struct PrrGenResult {
  PrrStatus status = PrrStatus::kHopeless;
  size_t edges_examined = 0;     ///< phase-I work (EPT accounting)
  size_t uncompressed_edges = 0; ///< edges collected by phase I (boostable)
  PrrGraph graph;                ///< filled when boostable, !lb_only, no sink
  /// Id in the sink store when one was passed to Generate (boostable, full
  /// mode); `graph` stays empty then.
  size_t store_id = static_cast<size_t>(-1);
  /// Critical nodes as global ids (boostable; both modes).
  std::vector<NodeId> critical_globals;
};

/// Generates PRR-graphs for one (graph, seed set). Holds O(n) scratch, so
/// create one instance per thread and reuse it across samples.
///
/// `lb_only` mode implements the PRR-Boost-LB shortcut (Sec. V-C): the
/// backward exploration prunes at distance 1 and only the critical-node set
/// is produced — no compressed graph is stored.
class PrrGenerator {
 public:
  PrrGenerator(const DirectedGraph& graph, const std::vector<NodeId>& seeds);

  PrrGenerator(const PrrGenerator&) = delete;
  PrrGenerator& operator=(const PrrGenerator&) = delete;

  /// Samples the PRR-graph rooted at `root` with budget k. Deterministic
  /// given the Rng state. When `sink` is non-null and the sample is
  /// boostable (full mode), the compressed graph is appended to the arena
  /// instead of being materialized as a standalone PrrGraph — the zero-
  /// allocation hot path used by PrrSampler.
  PrrGenResult Generate(NodeId root, size_t k, bool lb_only, Rng& rng,
                        PrrStore* sink = nullptr);

  /// Samples with a uniformly random root.
  PrrGenResult GenerateRandomRoot(size_t k, bool lb_only, Rng& rng,
                                  PrrStore* sink = nullptr);

 private:
  static constexpr uint32_t kInf = static_cast<uint32_t>(-1);

  // Phase-I edges are packed into one u64 — (from << 33) | (to << 1) |
  // boost — so the hot push is a single 8-byte store and the CSR build
  // reads one word per edge.
  static uint64_t PackLocalEdge(uint32_t from, uint32_t to, bool boost) {
    return (static_cast<uint64_t>(from) << 33) |
           (static_cast<uint64_t>(to) << 1) | static_cast<uint64_t>(boost);
  }
  static uint32_t LocalEdgeFrom(uint64_t e) {
    return static_cast<uint32_t>(e >> 33);
  }
  static uint32_t LocalEdgeTo(uint64_t e) {
    return static_cast<uint32_t>(e >> 1);
  }
  static bool LocalEdgeBoost(uint64_t e) { return (e & 1u) != 0; }

  /// Maps a global node to its local id, creating it on first touch.
  uint32_t LocalOf(NodeId global);

  /// Phase II: compress the collected subgraph into reused flat scratch and
  /// emit it into `sink` (when given) or result->graph. Extracts critical
  /// nodes and sets result->status.
  void Compress(uint32_t root_local, size_t k, PrrGenResult* result,
                PrrStore* sink);

  /// Critical-node extraction for lb_only mode (no compression).
  void ExtractCriticalLbOnly(uint32_t root_local, PrrGenResult* result);

  /// Builds the packed local out-CSR over the phase-I subgraph in one
  /// counting-sort pass (entries: (target << 1) | boost). In-adjacency
  /// needs no build at all: edges are collected while expanding their head
  /// node and every node is expanded at most once, so edges_ is naturally
  /// grouped by head — in_run_{start,end}_ record each node's slice.
  void BuildLocalOutCsr();

  const DirectedGraph& graph_;
  std::vector<uint8_t> is_seed_;

  // Global->local mapping with stamps so Generate() is O(|R|), not O(n).
  std::vector<uint32_t> visit_stamp_;
  std::vector<uint32_t> local_index_;
  uint32_t stamp_ = 0;

  // Phase-I state, local-indexed.
  std::vector<NodeId> locals_;     // local -> global
  std::vector<uint32_t> dist_;     // distance to root
  std::vector<uint64_t> edges_;    // collected non-blocked edges (packed)
  std::vector<uint32_t> in_run_start_, in_run_end_;  // in-edge slice per local
  RingDeque<std::pair<uint32_t, uint32_t>> queue_;
  // Branchless-scan survivor buffer, sized to the graph's max in-degree;
  // entries pack (edge slot << 1) | boost.
  std::vector<uint32_t> pass_buf_;

  // Phase-II scratch, local-indexed; reused across samples. The local CSR
  // holds packed (target << 1) | boost entries, not edge indices.
  std::vector<uint32_t> csr_offsets_, csr_edges_;
  std::vector<uint32_t> ds_, dpr_;
  std::vector<uint32_t> new_id_;
  std::vector<uint8_t> flag_;
  // Compact-graph scratch (everything Compress used to heap-allocate per
  // sample): emitted edge list, compact CSRs, reachability marks, renumber
  // map and the final flat arrays handed to the sink.
  std::vector<std::pair<uint32_t, uint32_t>> emit_edges_;  // (node, packed)
  std::vector<uint32_t> cadj_offsets_, cadj_edges_;
  std::vector<uint32_t> cradj_offsets_, cradj_edges_;
  std::vector<uint8_t> fwd_, bwd_;
  std::vector<uint32_t> stack_;
  std::vector<uint32_t> final_id_;
  std::vector<uint32_t> cursor_;
  std::vector<NodeId> g_global_ids_;
  std::vector<uint32_t> g_out_offsets_, g_out_edges_;
  std::vector<uint32_t> g_in_offsets_, g_in_edges_;
  std::vector<uint32_t> g_critical_;
};

/// Evaluates f_R(B) and per-node criticality on compressed PRR-graphs from
/// scratch (a full 0-weight BFS per call). Holds scratch; one instance per
/// thread. This is the reference evaluator: PrrCollection::PrefixDeltaHat
/// runs IsActivated on the graphs each added node can flip, and
/// PrrIncrementalEvaluator is the Δ̂ greedy's variant on the same semantics.
class PrrEvaluator {
 public:
  /// f_R(B): is the root activated under boost set B (given as an n-sized
  /// global bitmap)? Implemented as 0-weight reachability from the
  /// super-seed, where live edges and boost edges into B have weight 0.
  bool IsActivated(const PrrGraphView& g, const uint8_t* boosted_global);
  bool IsActivated(const PrrGraph& g, const uint8_t* boosted_global) {
    return IsActivated(g.View(), boosted_global);
  }

  /// Computes the critical set given B into `out` (local ids): nodes v ∉ B
  /// such that f_R(B ∪ {v}) = 1 while f_R(B) = 0. Returns f_R(B); when it
  /// returns true `out` is left empty.
  bool CriticalNodes(const PrrGraphView& g, const uint8_t* boosted_global,
                     std::vector<uint32_t>* out);
  bool CriticalNodes(const PrrGraph& g, const uint8_t* boosted_global,
                     std::vector<uint32_t>* out) {
    return CriticalNodes(g.View(), boosted_global, out);
  }

 private:
  void ComputeReach(const PrrGraphView& g, const uint8_t* boosted_global);
  /// Grows the reach marks to hold n entries and zeroes the first n.
  void PrepareMarks(uint32_t n);

  std::vector<uint8_t> fwd0_, bwd0_;
  std::vector<uint32_t> queue_;
};

/// Incremental 0-weight-reach maintenance on caller-owned bitmap words (one
/// bit per local node; fwd = reached from the super-seed, bwd = reaches the
/// root, crit = critical-set membership — the PrrEvalState layout). Boosting
/// a node only ever opens edges (the ones pointing into it), so all three
/// bitmaps grow monotonically as the boost set grows: a commit relaxes
/// forward/backward from the newly boosted node instead of recomputing
/// reachability from the super-seed, and the critical set only gains members
/// until the graph activates. One instance per thread.
class PrrIncrementalEvaluator {
 public:
  static bool TestBit(const uint64_t* words, uint32_t i) {
    return (words[i >> 6] >> (i & 63)) & 1;
  }
  static void SetBit(uint64_t* words, uint32_t i) {
    words[i >> 6] |= 1ull << (i & 63);
  }

  /// Fills fwd/bwd with the reach state at B ∩ R = ∅: a live-edge-only BFS
  /// in both directions (boost edges all have weight 1 under the empty
  /// set). On compressed PRR-graphs this is O(root in-degree): the
  /// super-seed's out-edges are all boost edges and live-to-root paths were
  /// collapsed to shortcut edges, but the BFS stays correct for hand-built
  /// graphs that do not keep those invariants.
  void InitEmptyReach(const PrrGraphView& g, uint64_t* fwd, uint64_t* bwd);

  /// Relaxes fwd/bwd after local node `pick` entered the boost set (the
  /// caller's `boosted_global` bitmap must already contain it). Records the
  /// newly reached frontier for AppendNewCriticalFrontier. Returns true when
  /// the root became fwd-reached — the graph activated and its state is
  /// dead (callers mark it covered and never read the bits again).
  bool RelaxCommit(const PrrGraphView& g, const uint8_t* boosted_global,
                   uint32_t pick, uint64_t* fwd, uint64_t* bwd);

  /// Appends to `out` every local node that became critical in the frontier
  /// recorded by the last RelaxCommit — not yet flagged in `crit`, not
  /// boosted, bwd-reached, with a boost in-edge from a fwd-reached tail —
  /// flagging each in `crit`. Criticality is monotone, so frontier scanning
  /// finds exactly the scratch evaluator's new members.
  void AppendNewCriticalFrontier(const PrrGraphView& g,
                                 const uint8_t* boosted_global,
                                 const uint64_t* fwd, const uint64_t* bwd,
                                 uint64_t* crit, std::vector<uint32_t>* out);

  /// Full rebuild for test cross-checks: recomputes fwd/bwd under
  /// `boosted_global` from scratch; returns f_R(B).
  bool RebuildReach(const PrrGraphView& g, const uint8_t* boosted_global,
                    uint64_t* fwd, uint64_t* bwd);

 private:
  std::vector<uint32_t> stack_;
  std::vector<uint32_t> newly_fwd_, newly_bwd_;
};

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_GRAPH_H_
