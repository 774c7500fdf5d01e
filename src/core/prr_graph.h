#ifndef KBOOST_CORE_PRR_GRAPH_H_
#define KBOOST_CORE_PRR_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/graph/graph.h"
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
/// A sample is Algorithm 1 in two phases. Phase I is a backward 0/1-BFS
/// from the root that draws every examined in-edge once, in pop order, and
/// collects the non-blocked edges grouped by head. Phase II (Compress)
/// contracts the super-seed set X — the nodes the seeds activate without
/// boosting — and keeps the nodes on budget-fitting seed→root paths. It
/// runs a backward 0/1-BFS from the root around X over the set D it
/// reaches, a forward 0/1-BFS from X's boost edges inside D, and emits the
/// kept nodes and X's fan-out from D's in-edges. X is never enumerated:
/// only the tails of boost edges into D ask whether they are in X, and a
/// short backward search answers. On a dense graph, where X holds most of
/// the subgraph and D a handful of nodes, compression costs little more
/// than D.
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
  // boost — so the hot push is a single 8-byte store and Compress reads
  // one word per edge.
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

  /// (node << 32) | low: orders by node, then by `low` — an edge slot
  /// (collection order) or a second node. KeyedEdge reads a slot key's edge.
  static uint64_t SortKey(uint32_t node, uint32_t low) {
    return (static_cast<uint64_t>(node) << 32) | low;
  }
  uint64_t KeyedEdge(uint64_t key) const {
    return edges_[static_cast<uint32_t>(key)];
  }

  /// One global node's local id in the sample that last touched it: a
  /// single slot, so phase I's first-touch check is one load.
  struct NodeSlot {
    uint32_t stamp = 0;
    uint32_t local = 0;
  };

  /// A node's collected in-edges: the slice [begin, end) of edges_. Edges
  /// are collected while expanding their head and every node is expanded
  /// at most once, so edges_ is grouped by head and needs no in-CSR build.
  struct InRun {
    uint32_t begin;
    uint32_t end;
  };

  /// Grows the local-indexed phase-I buffers to hold at least `need` locals.
  /// Every node enters the stack and the next level at most once per
  /// sample, so the queue buffers never outgrow the local count.
  void GrowLocals(size_t need);

  /// Phase II: compress the collected subgraph into reused flat scratch and
  /// emit it into `sink` (when given) or result->graph. Extracts critical
  /// nodes and sets result->status. Reads only the edges into D and the
  /// few the X search explores.
  void Compress(uint32_t root_local, size_t k, PrrGenResult* result,
                PrrStore* sink);

  /// Critical-node extraction for lb_only mode (no compression).
  void ExtractCriticalLbOnly(uint32_t root_local, PrrGenResult* result);

  /// Membership in the super-seed set X — the nodes a seed reaches over
  /// live edges of the phase-I subgraph — decided on demand, so a sample
  /// pays only for the part of X its compression asks about.
  /// ResetSuperSeedSet starts a sample with just the seeds known.
  void ResetSuperSeedSet();
  bool InSuperSeedSet(uint32_t v);
  /// Classifies `v` and every node its search explores: a DFS backward over
  /// live in-edges that stops at the first node known to be in X. On a miss
  /// everything explored is outside X. On a hit the DFS path is in X, and
  /// so is each explored node that a recorded live edge chain reaches from
  /// the path; the rest had all their live in-edges recorded and are
  /// outside X. No node is explored twice in a sample.
  void ClassifyFrom(uint32_t v);

  const DirectedGraph& graph_;
  std::vector<uint8_t> is_seed_;

  // Global->local mapping with stamps so Generate() is O(|R|), not O(n).
  std::vector<NodeSlot> slots_;
  uint32_t stamp_ = 0;

  // Phase-I state, local-indexed. The buffers grow on demand to the largest
  // sample and are written through raw pointers; num_locals_ and
  // num_edges_ say how much of them the current sample uses.
  uint32_t num_locals_ = 0;
  uint32_t num_edges_ = 0;
  std::vector<NodeId> locals_;     // local -> global
  std::vector<uint32_t> dist_;     // distance to root
  std::vector<InRun> in_runs_;     // in-edge slice per expanded local
  std::vector<uint64_t> edges_;    // collected non-blocked edges (packed)
  // Phase-I 0/1-BFS queue, one level at a time: live in-neighbours go on
  // `stack_` (popped next, as a deque's push_front would be); boost
  // in-neighbours go on `next_`, which becomes the following level's
  // `fifo_` and is read front to back beneath the stack.
  std::vector<uint32_t> stack_, fifo_, next_;
  std::vector<uint32_t> seed_locals_;  // seeds phase I reached
  // Branchless-scan survivor buffer, sized to the graph's max in-degree;
  // entries pack (source node id << 1) | boost.
  std::vector<uint32_t> pass_buf_;

  // Phase-II scratch, local-indexed; reused across samples.
  enum XState : uint8_t { kUnknown, kInX, kNotInX, kExploring };
  std::vector<XState> x_state_;  // X membership, filled on demand
  std::vector<std::pair<uint32_t, uint32_t>> frames_;  // (node, next slot)
  std::vector<uint32_t> explored_;
  std::vector<uint64_t> live_pairs_;  // (tail << 32) | head, one search
  std::vector<uint32_t> ds_, dpr_;
  std::vector<uint32_t> level_, next_level_;  // per-level BFS stacks
  std::vector<uint32_t> new_id_;
  std::vector<uint32_t> reached_;  // nodes the backward BFS reached
  std::vector<uint32_t> kept_;     // kept intermediates, ascending local id
  std::vector<uint64_t> internal_;  // D's internal edges: (tail << 32) | slot
  std::vector<InRun> out_runs_;     // per node of D: its slice of internal_
  std::vector<uint64_t> fanout_;    // X → D edges: (X tail << 32) | slot
  std::vector<uint8_t> flag_;
  // Compact-graph scratch (everything Compress used to heap-allocate per
  // sample): emitted edge list, compact CSRs, reachability marks, renumber
  // map and the final flat arrays handed to the sink.
  std::vector<std::pair<uint32_t, uint32_t>> emit_edges_;  // (node, packed)
  std::vector<uint32_t> cadj_offsets_, cadj_edges_;
  std::vector<uint32_t> cradj_offsets_, cradj_edges_;
  std::vector<uint8_t> fwd_, bwd_;
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
