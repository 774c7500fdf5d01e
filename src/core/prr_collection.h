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
/// The pool is sharded: S independent PrrStore arenas, with samples assigned
/// round-robin by *global sample index* (sample i lands in shard i mod S).
/// The assignment depends on nothing but the index, so for a fixed S the
/// shard arenas are bit-identical at every thread count, and since the
/// estimators average over samples, every selection and estimate is
/// bit-identical across shard counts too (the union of shards is the same
/// multiset of samples; greedy ties break on node ids, never on sample or
/// graph numbering). Sharding only decides how wide sampling, index builds
/// and snapshot I/O can go; the Δ̂ greedy runs on its caller's thread at
/// every S.
///
/// The per-shard node→graphs inverted index used by the greedy is a flat CSR
/// built lazily in one counting-sort pass over each arena (the super-seed
/// sentinel at local id 0 is skipped — it has no global identity). Appending
/// samples therefore never grows per-node vectors.
class PrrCollection {
 public:
  /// Upper bound on the shard count (BoostOptions::Validate enforces the
  /// [1, kMaxShards] range for --shards).
  static constexpr int kMaxShards = 1024;

  explicit PrrCollection(size_t num_graph_nodes, int num_shards = 1);

  /// Adds a boostable sample from a standalone compressed graph; critical
  /// ids are taken from it. (Compat path for tests and tools — the sampler
  /// writes shard arenas directly and accounts through AddBoostableRound.)
  /// Lands in the shard the next round-robin sample index maps to.
  void AddBoostable(const PrrGraph& graph);
  /// Adds a boostable sample by bulk-copying graph `shard_id` out of an
  /// external arena (per-sample compat path; same shard choice as
  /// AddBoostable).
  void AddBoostableFromStore(const PrrStore& shard, size_t shard_id);

  /// One sampling round's boostable sample, in batch order. Full mode
  /// references a graph the sampler already wrote into this collection's
  /// shard arena `shard` (via mutable_shard_store); LB mode references a
  /// flat critical-set span (alive through AddBoostableRound).
  struct BoostableSampleRef {
    uint32_t shard = 0;                ///< full mode: shard arena index
    uint32_t shard_graph_id = 0;       ///< graph id within that arena
    const NodeId* critical = nullptr;  ///< LB mode: critical globals
    uint32_t critical_count = 0;       ///< LB mode: critical set size
  };
  /// Accounts one sampling round: the round's critical sets land in the
  /// coverage structure through ONE grow — the per-sample fill (critical-id
  /// translation in full mode, flat copies in LB mode) runs on `num_threads`
  /// workers over disjoint spans. Full-mode graphs are *not* copied here;
  /// they were already written in place by the sampler. Bit-identical to the
  /// equivalent sequence of per-sample AddBoostable* calls for every thread
  /// count.
  void AddBoostableRound(std::span<const BoostableSampleRef> items,
                         bool lb_only, int num_threads);
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

  size_t num_shards() const { return stores_.size(); }
  /// Shard arena `s` (full mode).
  const PrrStore& shard_store(size_t s) const { return stores_[s]; }
  /// All shard arenas (snapshot I/O, eval-state attach).
  std::span<const PrrStore> shards() const { return stores_; }
  /// Graphs stored across all shards (== num_boostable in full mode).
  size_t num_stored_graphs() const;
  /// Mutable access to shard arena `s` — the sampler's direct-write path:
  /// the shard's generation task appends graphs straight into the persistent
  /// arena (no staging copy, no merge), then the batch is accounted through
  /// one AddBoostableRound call. The caller must own the shard exclusively
  /// while writing and must not interleave other mutations.
  PrrStore* mutable_shard_store(size_t s) { return &stores_[s]; }

  /// The arena holding all compressed PRR-graphs — compat accessor for
  /// single-shard pools (tests, tools, reference implementations).
  const PrrStore& store() const {
    KB_DCHECK(stores_.size() == 1);
    return stores_[0];
  }

  /// Greedy max-coverage over critical sets (maximizes μ̂) — the
  /// NodeSelectionLB step. Returns the selected nodes, μ̂ of that set, and μ̂
  /// of every prefix: greedy on the submodular μ̂ yields nested solutions, so
  /// one run at k answers every budget k' ≤ k by slicing.
  struct LbResult {
    std::vector<NodeId> nodes;
    double mu_hat = 0.0;
    /// μ̂(nodes[0..i]) for each i — the nested-budget answers.
    std::vector<double> prefix_mu_hat;
  };
  LbResult SelectGreedyLowerBound(size_t k,
                                  const std::vector<uint8_t>& excluded) const;

  /// Greedy maximization of Δ̂ (the NodeSelection step; full mode only) — a
  /// push-model oracle over the shared src/select lazy-greedy engine,
  /// backed by the incremental evaluation engine: every graph keeps its
  /// status and crit bitmap, plus fwd/bwd reach bitmaps when small enough,
  /// in a PrrEvalState (one arena per shard), so committing a pick only
  /// relaxes reachability forward/backward from the newly boosted node
  /// instead of recomputing from the super-seed. Each pick's re-evaluation
  /// walks its graphs shard by shard on the calling thread; ties break
  /// toward smaller node ids, so the selected set is identical for every
  /// shard count. `num_threads` only sizes a cold index build. If gains hit
  /// zero before k picks (no single node helps), remaining slots are filled
  /// by PRR-occurrence counts so the budget is never silently wasted.
  ///
  /// Concurrency: all query-time mutable state is oracle-local or lives in
  /// the caller-supplied `eval_state` (one PrrEvalState per shard), so
  /// concurrent calls on one collection are safe — and bit-identical to the
  /// serial loop — provided each call brings its own eval state and the
  /// lazily-built indexes were warmed first (WarmIndexes(), done by
  /// BoostSession::Prepare). Throughput comes from concurrent queries, not
  /// from splitting one. A null `eval_state` uses call-local state
  /// (correct, but re-allocates the bitmap arenas every call). `stop`, if
  /// non-null, is polled between greedy rounds AND every bounded stride of
  /// the per-pick re-evaluation scan — a single huge pick stops promptly on
  /// cancellation or a passed deadline; the partial result carries
  /// `cancelled`/`deadline_exceeded` and must be discarded, not served.
  struct DeltaResult {
    std::vector<NodeId> nodes;
    /// Marginal Δ̂ gain (in covered samples) of each greedy pick, in
    /// selection order; fallback-filled nodes contribute no entries.
    std::vector<uint64_t> pick_gains;
    size_t activated_samples = 0;
    double delta_hat = 0.0;
    bool cancelled = false;
    bool deadline_exceeded = false;
  };
  DeltaResult SelectGreedyDelta(size_t k, const std::vector<uint8_t>& excluded,
                                int num_threads = 1,
                                ShardedEvalState* eval_state = nullptr,
                                StopToken* stop = nullptr) const;

  /// Δ̂_R(B) for an arbitrary boost set (full mode only).
  double EstimateDelta(const std::vector<NodeId>& boost_set,
                       int num_threads = 1) const;
  /// μ̂_R(B) for an arbitrary boost set (works in both modes).
  double EstimateMu(const std::vector<NodeId>& boost_set) const;

  /// Access to the coverage structure driving the IMM schedule.
  const CoverageSelector& coverage() const { return coverage_; }

  /// Shard-local ids of the graphs in shard `s` whose compressed form
  /// contains global node v (lazily-built per-shard CSR — warm with
  /// WarmIndexes() before concurrent reads).
  std::span<const uint32_t> ShardGraphsContaining(size_t s, NodeId v) const {
    EnsureGraphIndex(1);
    const ShardIndex& index = shard_index_[s];
    return {index.graphs.data() + index.node_offsets[v],
            index.node_offsets[v + 1] - index.node_offsets[v]};
  }
  /// Local ids of v inside each graph of ShardGraphsContaining(s, v)
  /// (parallel span) — saves the incremental engine a per-commit
  /// global→local scan.
  std::span<const uint32_t> ShardGraphLocalsContaining(size_t s,
                                                       NodeId v) const {
    EnsureGraphIndex(1);
    const ShardIndex& index = shard_index_[s];
    return {index.locals.data() + index.node_offsets[v],
            index.node_offsets[v + 1] - index.node_offsets[v]};
  }
  /// Number of stored graphs (across all shards) containing global node v.
  size_t OccurrenceCount(NodeId v) const;

  /// Pool-snapshot restore: adopts the shard arenas (pass none for an
  /// LB-only pool, which stores only critical sets) and binds the coverage
  /// node pool to `coverage_nodes` — the snapshot's critical sets as global
  /// ids, one set per stored graph in shard-major stored order (LB: one per
  /// boostable sample) — without copying it, so restoring costs
  /// O(num_graphs), not O(total_critical). `set_sizes` is the matching
  /// per-set size table (length checked against the stores, sum checked
  /// against coverage_nodes); it is only read during the call. Coverage
  /// numbering may differ from a freshly-sampled pool's (shard-major vs.
  /// sample order), but every estimator and selection depends only on set
  /// membership, never on set numbering, so answers stay bit-identical. The
  /// caller must have validated the ids against the serving graph and must
  /// keep the memory behind the arenas and coverage_nodes alive for the
  /// collection's lifetime (a loaded session retains the snapshot bytes).
  /// The collection must be empty.
  void RestorePool(std::vector<PrrStore>&& stores,
                   std::span<const uint32_t> set_sizes,
                   std::span<const NodeId> coverage_nodes,
                   size_t num_activated, size_t num_hopeless);
  /// Accounts non-boostable samples in bulk (denominator only).
  void AddNonBoostableCounts(size_t num_activated, size_t num_hopeless);

  /// Bytes held by stored PRR-graphs (the paper's Table 2/3 "memory for
  /// boostable PRR-graphs").
  size_t StoredGraphBytes() const;

  /// Builds every lazily-constructed inverted index (per-shard node→graphs
  /// CSRs here, node→samples inside the coverage structure) now, fanning the
  /// per-shard builds out over `num_threads` workers. The lazy builds inside
  /// the const accessors are NOT thread-safe, so a pool that will serve
  /// concurrent readers must be warmed once, from one thread, before serving
  /// starts — PrrBoostEngine::Prepare does. After warming, every read-only
  /// query path (SelectGreedyLowerBound, SelectGreedyDelta with per-call
  /// eval state, EstimateDelta, EstimateMu, ShardGraphsContaining) is safe
  /// to run concurrently.
  void WarmIndexes(int num_threads = 1) const;

 private:
  /// Per-shard lazily-built inverted index: global node -> shard-local graph
  /// ids whose compressed form contains it, plus v's local id inside each
  /// (parallel arrays).
  struct ShardIndex {
    std::vector<size_t> node_offsets;
    std::vector<uint32_t> graphs;
    std::vector<uint32_t> locals;
  };

  /// Builds all per-shard node→graph CSRs (one counting-sort pass each,
  /// shards in parallel on `num_threads` workers) and critical_counts_.
  void EnsureGraphIndex(int num_threads) const;
  /// The shard the next round-robin sample index maps to (compat add paths).
  size_t NextSampleShard() const {
    return coverage_.num_sets() % stores_.size();
  }

  size_t num_graph_nodes_;
  std::vector<PrrStore> stores_;   // full-mode storage, one arena per shard
  CoverageSelector coverage_;      // critical sets, denominator = θ
  size_t num_boostable_ = 0;
  size_t num_activated_ = 0;
  size_t num_hopeless_ = 0;
  size_t lb_critical_bytes_ = 0;   // LB-mode critical-set accounting
  std::vector<NodeId> critical_scratch_;
  mutable std::vector<ShardIndex> shard_index_;
  // Per node, the number of stored critical sets holding it (the Δ̂
  // greedy's initial gains); built with shard_index_.
  mutable std::vector<uint32_t> critical_counts_;
  mutable bool graph_index_built_ = false;
};

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_COLLECTION_H_
