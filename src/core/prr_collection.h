#ifndef KBOOST_CORE_PRR_COLLECTION_H_
#define KBOOST_CORE_PRR_COLLECTION_H_

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "src/core/prr_graph.h"
#include "src/core/prr_store.h"
#include "src/graph/graph.h"
#include "src/im/coverage.h"
#include "src/select/greedy.h"
#include "src/util/logging.h"

namespace kboost {

/// The pool R of sampled PRR-graphs plus the estimators built on it:
///   Δ̂_R(B) = n/θ · Σ_R f_R(B)        (Eq. 2)
///   μ̂_R(B) = n/θ · Σ_R 1{B ∩ C_R ≠ ∅}
/// θ counts *all* samples — activated and hopeless PRR-graphs contribute
/// zero terms but stay in the denominator. Full mode stores compressed
/// graphs in PrrStore arenas; LB mode stores only critical sets (inside
/// `coverage()`).
///
/// All stored graphs live in one PrrStore arena, in global sample order:
/// sample i's Rng is seeded by i, and the sampler appends its chunks in
/// index order, so the arena is bit-identical at every sampling width.
/// Estimators are sums over samples and greedy ties break on node ids, so no
/// selection or estimate reads graph numbering either. The Δ̂ greedy and Δ̂
/// estimates run on their caller's thread.
///
/// The node→graphs inverted index they use is a flat CSR built lazily in
/// one counting-sort pass over the arena (the super-seed sentinel at local
/// id 0 is skipped — it has no global identity). Appending samples therefore
/// never grows per-node vectors.
class PrrCollection {
 public:
  explicit PrrCollection(size_t num_graph_nodes);

  /// Adds a boostable sample from a standalone compressed graph; critical
  /// ids are taken from it. (Path for tests and tools — the sampler appends
  /// its chunk arenas and accounts through AddBoostableRound.)
  void AddBoostable(const PrrGraph& graph);

  /// One sampling round's boostable sample, in batch order: its critical
  /// set as global ids, the list PrrGenerator returned (alive through
  /// AddBoostableRound). In full mode the sample's graph is already in this
  /// collection's arena (the sampler appended it via mutable_store).
  struct BoostableSampleRef {
    const NodeId* critical = nullptr;  ///< critical globals
    uint32_t critical_count = 0;       ///< critical set size
  };
  /// Accounts one sampling round: the round's critical sets land in the
  /// coverage structure through ONE grow. Full-mode graphs are *not* copied
  /// here; the sampler already wrote them in place. Bit-identical to the
  /// equivalent sequence of per-sample AddBoostable* calls.
  void AddBoostableRound(std::span<const BoostableSampleRef> items);
  /// LB mode: adds a boostable sample given only its critical set.
  void AddBoostableCriticalOnly(std::span<const NodeId> critical_globals);
  void AddBoostableCriticalOnly(std::initializer_list<NodeId> critical) {
    AddBoostableCriticalOnly(std::span<const NodeId>(critical.begin(),
                                                     critical.size()));
  }
  /// Adds an activated or hopeless sample (denominator only).
  void AddNonBoostable(PrrStatus status);

  size_t num_samples() const { return coverage_.num_sets(); }
  size_t num_boostable() const { return num_boostable_; }
  size_t num_activated() const { return num_activated_; }
  size_t num_hopeless() const { return num_hopeless_; }
  size_t num_graph_nodes() const { return num_graph_nodes_; }

  /// The arena holding every compressed PRR-graph, in sample order (full
  /// mode; empty in LB mode).
  const PrrStore& store() const { return store_; }
  /// Graphs stored in the arena (== num_boostable in full mode).
  size_t num_stored_graphs() const { return store_.num_graphs(); }
  /// Mutable access to the arena — the sampler's append path: each batch's
  /// chunk arenas are appended in sample order, then the batch is accounted
  /// through one AddBoostableRound call. The caller must not interleave
  /// other mutations.
  PrrStore* mutable_store() { return &store_; }

  /// Greedy max-coverage over critical sets (maximizes μ̂) — the
  /// NodeSelectionLB step. Returns the selected nodes, μ̂ of that set, and μ̂
  /// of every prefix: greedy on the submodular μ̂ yields nested solutions, so
  /// one run at k answers every budget k' ≤ k by slicing.
  struct LbResult {
    std::vector<NodeId> nodes;
    double mu_hat = 0.0;
    /// μ̂(nodes[0..i]) for each i — the nested-budget answers.
    std::vector<double> prefix_mu_hat;
    /// Δ̂(nodes[0..i]) for each i; BoostSession::Prepare fills it on full
    /// pools.
    std::vector<double> prefix_delta_hat;
  };
  LbResult SelectGreedyLowerBound(size_t k,
                                  const std::vector<uint8_t>& excluded) const;

  /// Greedy maximization of Δ̂ (the NodeSelection step; full mode only) — a
  /// push-model oracle over the shared src/select lazy-greedy engine,
  /// backed by the incremental evaluation engine: every graph keeps its
  /// status and its fwd, bwd and crit bitmaps in a PrrEvalState, so
  /// committing a pick only relaxes reachability forward/backward from the
  /// newly boosted node instead of recomputing from the super-seed. Each
  /// pick's re-evaluation runs on the calling thread; ties break toward
  /// smaller node ids. If gains hit zero before k picks (no single node
  /// helps), remaining slots are filled by PRR-occurrence counts so the
  /// budget is never silently wasted. The `int`
  /// parameter is unused; kbench still passes a thread count, and the next
  /// benchmark change (ROADMAP item 4) deletes it.
  ///
  /// The answer is nested in k: round i's argmax reads only picks 0..i−1,
  /// and the padding order is sorted independently of k, so the k-node
  /// answer is the k-prefix of the k_max one and `prefix_delta_hat[k−1]` is
  /// its Δ̂. BoostSession::Prepare runs it once, at k_max.
  ///
  /// Concurrency: all mutable state is oracle-local or lives in the
  /// caller-supplied `eval_state`, so
  /// concurrent calls on one collection are safe provided each call brings
  /// its own eval state and the lazily-built indexes were warmed first
  /// (WarmIndexes()). A null `eval_state` uses call-local state.
  struct DeltaResult {
    std::vector<NodeId> nodes;
    /// Marginal Δ̂ gain (in covered samples) of each greedy pick, in
    /// selection order; fallback-filled nodes contribute no entries.
    std::vector<uint64_t> pick_gains;
    size_t activated_samples = 0;  ///< Σ pick_gains on a sampled pool
    double delta_hat = 0.0;
    /// Δ̂(nodes[0..i]) for each i — the twin of LbResult::prefix_mu_hat,
    /// from the activated count after each pick (Σ_{j≤i} pick_gains[j] on a
    /// sampled pool). Entries past the last real pick (the occurrence-count
    /// padding) repeat the total.
    std::vector<double> prefix_delta_hat;
  };
  DeltaResult SelectGreedyDelta(size_t k, const std::vector<uint8_t>& excluded,
                                int /*unused*/ = 1,
                                PrrEvalState* eval_state = nullptr) const;

  /// Δ̂ of every prefix of `order` (entry i is Δ̂_R(order[0..i])), on the
  /// calling thread. Every stored graph has f_R(∅) = 0, so adding v can flip
  /// only the graphs containing v: the reference PrrEvaluator re-runs on the
  /// not-yet-activated ones among them. Full mode only.
  std::vector<double> PrefixDeltaHat(std::span<const NodeId> order) const;
  /// Δ̂_R(B) for an arbitrary boost set (full mode only): the last entry of
  /// PrefixDeltaHat(B), or 0 for an empty set. The `int` parameter is unused
  /// and goes with the next benchmark change, as SelectGreedyDelta's does.
  double EstimateDelta(const std::vector<NodeId>& boost_set,
                       int /*unused*/ = 1) const;
  /// μ̂_R(B) for an arbitrary boost set (works in both modes).
  double EstimateMu(const std::vector<NodeId>& boost_set) const;

  /// Access to the coverage structure driving the IMM schedule.
  const CoverageSelector& coverage() const { return coverage_; }

  /// Arena ids of the graphs whose compressed form contains global node v
  /// (lazily-built CSR — warm with WarmIndexes() before concurrent reads).
  std::span<const uint32_t> GraphsContaining(NodeId v) const {
    EnsureGraphIndex();
    return {index_graphs_.data() + index_offsets_[v],
            index_offsets_[v + 1] - index_offsets_[v]};
  }
  /// Local ids of v inside each graph of GraphsContaining(v) (parallel
  /// span) — saves the incremental engine a per-commit global→local scan.
  std::span<const uint32_t> GraphLocalsContaining(NodeId v) const {
    EnsureGraphIndex();
    return {index_locals_.data() + index_offsets_[v],
            index_offsets_[v + 1] - index_offsets_[v]};
  }
  /// Number of stored graphs containing global node v.
  size_t OccurrenceCount(NodeId v) const {
    return GraphsContaining(v).size();
  }

  /// Pool-snapshot restore: adopts the arena `store` (an LB-only pool passes
  /// an empty one: it stores only critical sets) and binds the coverage node
  /// pool to `coverage_nodes` — the snapshot's critical sets as global ids,
  /// one set per stored graph in stored order (LB: one per boostable
  /// sample) — without copying it, so restoring costs O(num_graphs), not
  /// O(total_critical). `set_sizes` is the matching per-set size table
  /// (length checked against the arena, sum checked against
  /// coverage_nodes); it is only read during the call. The caller must have
  /// validated the ids against the serving graph and must keep the memory
  /// behind the arena and coverage_nodes alive for the collection's lifetime
  /// (a loaded session retains the snapshot bytes). The collection must be
  /// empty.
  void RestorePool(PrrStore&& store, std::span<const uint32_t> set_sizes,
                   std::span<const NodeId> coverage_nodes,
                   size_t num_activated, size_t num_hopeless);
  /// Accounts non-boostable samples in bulk (denominator only).
  void AddNonBoostableCounts(size_t num_activated, size_t num_hopeless);

  /// Bytes held by stored PRR-graphs (the paper's Table 2/3 "memory for
  /// boostable PRR-graphs").
  size_t StoredGraphBytes() const;

  /// Builds every lazily-constructed inverted index (the node→graphs CSR
  /// here, node→samples inside the coverage structure) now. The lazy builds
  /// inside the const accessors are NOT thread-safe, so a pool that will
  /// serve concurrent readers must be warmed once, from one thread, before
  /// serving starts — BoostSession::Prepare does. After warming, every
  /// read-only query path (SelectGreedyLowerBound, SelectGreedyDelta with
  /// per-call eval state, PrefixDeltaHat, EstimateDelta, EstimateMu,
  /// GraphsContaining) is safe to run concurrently. The `int` parameter is
  /// unused and goes with the next benchmark change, as SelectGreedyDelta's
  /// does.
  void WarmIndexes(int /*unused*/ = 1) const;

 private:
  /// Builds the node→graph CSR (one counting-sort pass over the arena) and
  /// critical_counts_.
  void EnsureGraphIndex() const;

  size_t num_graph_nodes_;
  PrrStore store_;                 // full-mode storage, in sample order
  CoverageSelector coverage_;      // critical sets, denominator = θ
  size_t num_boostable_ = 0;
  size_t num_activated_ = 0;
  size_t num_hopeless_ = 0;
  size_t lb_critical_bytes_ = 0;   // LB-mode critical-set accounting
  std::vector<NodeId> critical_scratch_;
  // The lazily-built inverted index: global node v -> arena ids of the
  // graphs whose compressed form contains it, at [index_offsets_[v],
  // index_offsets_[v + 1]) of index_graphs_, with v's local id inside each
  // at the same slots of index_locals_.
  mutable std::vector<size_t> index_offsets_;
  mutable std::vector<uint32_t> index_graphs_;
  mutable std::vector<uint32_t> index_locals_;
  // Per node, the number of stored critical sets holding it (the Δ̂
  // greedy's initial gains); built with the index.
  mutable std::vector<uint32_t> critical_counts_;
  mutable bool graph_index_built_ = false;
};

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_COLLECTION_H_
