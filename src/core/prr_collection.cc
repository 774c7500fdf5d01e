#include "src/core/prr_collection.h"

#include <algorithm>
#include <bit>

#include "src/select/greedy.h"
#include "src/sim/boost_model.h"
#include "src/util/fault.h"
#include "src/util/thread_pool.h"

namespace kboost {

PrrCollection::PrrCollection(size_t num_graph_nodes, int num_shards)
    : num_graph_nodes_(num_graph_nodes),
      stores_(static_cast<size_t>(std::max(1, num_shards))),
      coverage_(num_graph_nodes) {
  KB_CHECK(num_shards >= 1 && num_shards <= kMaxShards)
      << "num_shards " << num_shards << " outside [1, " << kMaxShards << "]";
}

size_t PrrCollection::num_stored_graphs() const {
  size_t total = 0;
  for (const PrrStore& store : stores_) total += store.num_graphs();
  return total;
}

size_t PrrCollection::StoredGraphBytes() const {
  size_t total = lb_critical_bytes_;
  for (const PrrStore& store : stores_) total += store.MemoryBytes();
  return total;
}

size_t PrrCollection::OccurrenceCount(NodeId v) const {
  EnsureGraphIndex(1);
  size_t count = 0;
  for (const ShardIndex& index : shard_index_) {
    count += index.node_offsets[v + 1] - index.node_offsets[v];
  }
  return count;
}

void PrrCollection::AddBoostable(const PrrGraph& graph) {
  PrrStore& store = stores_[NextSampleShard()];
  const size_t id = store.Add(graph);
  const PrrGraphView view = store.View(id);
  critical_scratch_.clear();
  for (uint32_t c : view.critical()) {
    critical_scratch_.push_back(view.global_ids[c]);
  }
  coverage_.AddSet(critical_scratch_);
  graph_index_built_ = false;
  ++num_boostable_;
}

void PrrCollection::AddBoostableFromStore(const PrrStore& shard,
                                          size_t shard_id) {
  PrrStore& store = stores_[NextSampleShard()];
  const size_t id = store.AppendFrom(shard, shard_id);
  const PrrGraphView view = store.View(id);
  critical_scratch_.clear();
  for (uint32_t c : view.critical()) {
    critical_scratch_.push_back(view.global_ids[c]);
  }
  coverage_.AddSet(critical_scratch_);
  graph_index_built_ = false;
  ++num_boostable_;
}

void PrrCollection::AddBoostableCriticalOnly(
    std::span<const NodeId> critical_globals) {
  coverage_.AddSet(critical_globals);
  lb_critical_bytes_ += critical_globals.size() * sizeof(NodeId);
  ++num_boostable_;
}

void PrrCollection::AddNonBoostable(PrrStatus status) {
  KB_DCHECK(status != PrrStatus::kBoostable);
  coverage_.AddEmptySet();
  if (status == PrrStatus::kActivated) {
    ++num_activated_;
  } else {
    ++num_hopeless_;
  }
}

void PrrCollection::EnsureGraphIndex(int num_threads) const {
  if (graph_index_built_) return;
  shard_index_.resize(stores_.size());
  // Each shard's CSR touches only that shard's arrays, so the per-shard
  // counting-sort builds are independent work items.
  ParallelFor(
      stores_.size(), num_threads,
      [&](size_t s, int /*t*/) {
        const PrrStore& store = stores_[s];
        ShardIndex& index = shard_index_[s];
        const size_t num_graphs = store.num_graphs();
        index.node_offsets.assign(num_graph_nodes_ + 1, 0);
        // Counting-sort pass: local id 0 is the super-seed sentinel (no
        // global identity) and is skipped consistently in both passes.
        for (size_t g = 0; g < num_graphs; ++g) {
          const PrrGraphView view = store.View(g);
          for (uint32_t v = PrrGraph::kRootLocal; v < view.num_nodes(); ++v) {
            ++index.node_offsets[view.global_ids[v] + 1];
          }
        }
        for (size_t v = 0; v < num_graph_nodes_; ++v) {
          index.node_offsets[v + 1] += index.node_offsets[v];
        }
        index.graphs.resize(index.node_offsets[num_graph_nodes_]);
        index.locals.resize(index.node_offsets[num_graph_nodes_]);
        std::vector<size_t> cursor(index.node_offsets.begin(),
                                   index.node_offsets.end() - 1);
        for (size_t g = 0; g < num_graphs; ++g) {
          const PrrGraphView view = store.View(g);
          for (uint32_t v = PrrGraph::kRootLocal; v < view.num_nodes(); ++v) {
            const size_t slot = cursor[view.global_ids[v]]++;
            index.graphs[slot] = static_cast<uint32_t>(g);
            index.locals[slot] = v;
          }
        }
      },
      /*chunk=*/1);
  // The Δ̂ greedy's initial gains: how many stored critical sets hold each
  // node.
  critical_counts_.assign(num_graph_nodes_, 0);
  for (const PrrStore& store : stores_) {
    for (size_t g = 0; g < store.num_graphs(); ++g) {
      const PrrGraphView view = store.View(g);
      for (uint32_t c : view.critical()) ++critical_counts_[view.global_ids[c]];
    }
  }
  graph_index_built_ = true;
}

void PrrCollection::WarmIndexes(int num_threads) const {
  EnsureGraphIndex(num_threads);
  coverage_.WarmIndex();
}

void PrrCollection::AddBoostableRound(
    std::span<const BoostableSampleRef> items, bool lb_only, int num_threads) {
  const size_t count = items.size();
  if (count == 0) return;
  std::vector<uint32_t> sizes(count);
  if (lb_only) {
    size_t total = 0;
    for (size_t i = 0; i < count; ++i) {
      sizes[i] = items[i].critical_count;
      total += items[i].critical_count;
    }
    lb_critical_bytes_ += total * sizeof(NodeId);
  } else {
    // Graphs already sit in their shard arenas (the sampler's direct-write
    // path); only the critical sets still need to reach the coverage
    // structure.
    for (size_t i = 0; i < count; ++i) {
      sizes[i] = static_cast<uint32_t>(
          stores_[items[i].shard].critical_count(items[i].shard_graph_id));
    }
    graph_index_built_ = false;
  }
  NodeId* base = coverage_.AppendSets(sizes);
  std::vector<size_t> offsets(count + 1, 0);
  for (size_t i = 0; i < count; ++i) offsets[i + 1] = offsets[i] + sizes[i];
  ParallelFor(
      count, num_threads,
      [&](size_t i, int /*t*/) {
        NodeId* dst = base + offsets[i];
        if (lb_only) {
          std::copy(items[i].critical, items[i].critical + sizes[i], dst);
        } else {
          const PrrGraphView view =
              stores_[items[i].shard].View(items[i].shard_graph_id);
          for (uint32_t c = 0; c < sizes[i]; ++c) {
            dst[c] = view.global_ids[view.critical_locals[c]];
          }
        }
      },
      /*chunk=*/64);
  num_boostable_ += count;
}

void PrrCollection::RestorePool(std::vector<PrrStore>&& stores,
                                std::span<const uint32_t> set_sizes,
                                std::span<const NodeId> coverage_nodes,
                                size_t num_activated, size_t num_hopeless) {
  KB_CHECK(num_samples() == 0) << "snapshot restore into a non-empty pool";
  if (stores.empty()) {
    lb_critical_bytes_ = coverage_nodes.size_bytes();
  } else {
    KB_CHECK(stores.size() == stores_.size())
        << "restoring " << stores.size() << " arenas into a pool of "
        << stores_.size() << " shards";
    stores_ = std::move(stores);
    KB_CHECK(set_sizes.size() == num_stored_graphs())
        << "coverage size table covers " << set_sizes.size() << " of "
        << num_stored_graphs() << " stored graphs";
  }
  coverage_.BindExternalSets(set_sizes, coverage_nodes);
  num_boostable_ = set_sizes.size();
  graph_index_built_ = false;
  AddNonBoostableCounts(num_activated, num_hopeless);
}

void PrrCollection::AddNonBoostableCounts(size_t num_activated,
                                          size_t num_hopeless) {
  coverage_.AddEmptySets(num_activated + num_hopeless);
  num_activated_ += num_activated;
  num_hopeless_ += num_hopeless;
}

PrrCollection::LbResult PrrCollection::SelectGreedyLowerBound(
    size_t k, const std::vector<uint8_t>& excluded) const {
  CoverageSelector::Result cov = coverage_.SelectGreedy(k, &excluded);
  LbResult result;
  result.nodes = std::move(cov.selected);
  // Nested-budget answers: μ̂ of each greedy prefix from the per-pick gains,
  // with the same n·covered/θ expression EstimateMu uses.
  result.prefix_mu_hat.reserve(cov.pick_gains.size());
  uint64_t covered = 0;
  for (uint64_t gain : cov.pick_gains) {
    covered += gain;
    result.prefix_mu_hat.push_back(static_cast<double>(num_graph_nodes_) *
                                   static_cast<double>(covered) /
                                   static_cast<double>(num_samples()));
  }
  result.mu_hat =
      result.prefix_mu_hat.empty() ? 0.0 : result.prefix_mu_hat.back();
  return result;
}

namespace {

/// Push-model oracle for the Δ̂ greedy: a node's gain is the number of
/// not-yet-activated PRR-graphs it is currently critical in. Gains move both
/// ways as B grows (Δ̂ is not submodular), so Commit re-evaluates exactly the
/// PRR-graphs containing the pick and reports every node whose gain moved.
///
/// Commit runs on the calling thread. Each graph's status and bitmaps live
/// in its shard's PrrEvalState — the one record of the graph this run —
/// initialized lazily on first touch (live-edge-only reach at B ∩ R = ∅ plus
/// the stored critical set) and relaxed forward/backward from the pick
/// afterwards. Because boosting only opens edges, reach and criticality grow
/// monotonically until a graph activates — so commits credit only newly
/// critical nodes, and debit a graph's crit bitmap exactly once, on
/// activation. Graphs too large for reach bitmaps fall back to the scratch
/// evaluator's full recompute, diffed against crit.
///
/// Gains start from the pool's per-node critical-set counts and settle in
/// place. They are sums over graphs, so neither the shard partition nor the
/// scan order shows in the selected set. Excluded nodes keep a gain too: the
/// greedy loop never reads it. Every gain *increase* is reported (required
/// for lazy-greedy correctness); decreases ride along for free.
class DeltaOracle final : public SelectionOracle {
 public:
  DeltaOracle(const PrrCollection& collection,
              std::span<const uint32_t> initial_gains, ShardedEvalState* state,
              StopToken* stop)
      : collection_(collection),
        stop_(stop),
        boosted_(collection.num_graph_nodes(), 0),
        gains_(initial_gains.begin(), initial_gains.end()),
        state_(state) {
    state_->Attach(collection.shards());
  }

  size_t num_candidates() const override { return gains_.size(); }
  uint64_t InitialGain(NodeId v) const override { return gains_[v]; }
  uint64_t CurrentGain(NodeId v) const override { return gains_[v]; }

  void Commit(NodeId pick, std::vector<NodeId>* touched) override {
    boosted_[pick] = 1;
    gains_[pick] = 0;
    // Deadline/cancel polling inside the pick: a single pick's scan can span
    // the whole pool, so the token is re-polled every kStopStride graphs
    // (counted across shards, activated graphs included), between graphs so
    // no bitmap is left torn. The abandoned gain table is discarded by the
    // caller, never served.
    size_t position = 0;
    for (size_t s = 0; s < collection_.num_shards(); ++s) {
      const PrrStore& store = collection_.shard_store(s);
      PrrEvalState& state = state_->shard(s);
      const std::span<const uint32_t> graphs =
          collection_.ShardGraphsContaining(s, pick);
      const std::span<const uint32_t> locals =
          collection_.ShardGraphLocalsContaining(s, pick);
      for (size_t i = 0; i < graphs.size(); ++i, ++position) {
        if (stop_ != nullptr && position % kStopStride == 0) {
          MaybeInjectFaultDelay(FaultSite::kPickStride);
          if (stop_->ShouldStop()) return;
        }
        CommitGraph(store.View(graphs[i]), state, graphs[i], locals[i],
                    touched);
      }
    }
  }

  size_t activated() const { return activated_; }
  std::vector<uint8_t>& boosted() { return boosted_; }

 private:
  /// Graphs between full stop-token polls in the per-pick scan. Small enough
  /// that even tiny PRR-graphs (~3 nodes on the paper's workloads) bound the
  /// time between polls to microseconds; large enough that the clock read
  /// (a vDSO call) stays noise.
  static constexpr size_t kStopStride = 32;

  /// Re-evaluates graph g, which contains the pick at local id `local`.
  void CommitGraph(const PrrGraphView& view, PrrEvalState& state, uint32_t g,
                   uint32_t local, std::vector<NodeId>* touched) {
    using GraphStatus = PrrEvalState::GraphStatus;
    if (state.status(g) == GraphStatus::kActivated) return;
    const bool first_touch = state.status(g) == GraphStatus::kUntouched;
    uint64_t* crit = state.crit(g);
    if (first_touch) {
      // B ∩ R = {pick} (an earlier pick inside R would have touched it), so
      // the empty-set state plus one relax is exact. The stored critical set
      // is the ∅-state membership.
      state.Touch(g);
      for (uint32_t c : view.critical()) {
        PrrIncrementalEvaluator::SetBit(crit, c);
      }
    }
    bool activated = false;
    if (!state.has_reach(g)) {
      activated = ScratchCommit(view, crit, state.words_per_bitmap(g), touched);
    } else {
      uint64_t* fwd = state.fwd(g);
      uint64_t* bwd = state.bwd(g);
      if (first_touch) inc_.InitEmptyReach(view, fwd, bwd);
      activated =
          PrrIncrementalEvaluator::TestBit(fwd, PrrGraph::kRootLocal) ||
          inc_.RelaxCommit(view, boosted_.data(), local, fwd, bwd);
      if (!activated) {
        fresh_.clear();
        inc_.AppendNewCriticalFrontier(view, boosted_.data(), fwd, bwd, crit,
                                       &fresh_);
        // Newly critical nodes are never boosted (the evaluator checks).
        for (uint32_t c : fresh_) {
          const NodeId global = view.global_ids[c];
          ++gains_[global];
          touched->push_back(global);
        }
      }
    }
    if (!activated) return;
    state.MarkActivated(g);
    ++activated_;
    for (uint32_t w = 0; w < state.words_per_bitmap(g); ++w) {
      Settle(view, crit[w], w * 64, -1, touched);
    }
  }

  /// Full-recompute fallback for graphs without reach bitmaps: settles the
  /// difference between the old critical set (crit) and the new one, and
  /// leaves crit holding the new one. Returns true when the graph activated;
  /// crit then still holds the old set, for the activation debit.
  bool ScratchCommit(const PrrGraphView& view, uint64_t* crit, uint32_t words,
                     std::vector<NodeId>* touched) {
    if (evaluator_.CriticalNodes(view, boosted_.data(), &fresh_)) return true;
    next_.assign(words, 0);
    for (uint32_t c : fresh_) PrrIncrementalEvaluator::SetBit(next_.data(), c);
    for (uint32_t w = 0; w < words; ++w) {
      Settle(view, crit[w] & ~next_[w], w * 64, -1, touched);
      Settle(view, next_[w] & ~crit[w], w * 64, +1, touched);
      crit[w] = next_[w];
    }
    return false;
  }

  /// Moves the gain of every non-boosted node in `bits` (one crit word whose
  /// bit 0 is local id `base`) by `delta`, reporting each.
  void Settle(const PrrGraphView& view, uint64_t bits, uint32_t base,
              int delta, std::vector<NodeId>* touched) {
    for (; bits != 0; bits &= bits - 1) {
      const NodeId global =
          view.global_ids[base + static_cast<uint32_t>(std::countr_zero(bits))];
      if (boosted_[global]) continue;
      gains_[global] =
          static_cast<uint32_t>(static_cast<int64_t>(gains_[global]) + delta);
      touched->push_back(global);
    }
  }

  const PrrCollection& collection_;
  StopToken* stop_;
  std::vector<uint8_t> boosted_;
  std::vector<uint32_t> gains_;
  ShardedEvalState* state_;
  PrrIncrementalEvaluator inc_;
  PrrEvaluator evaluator_;
  std::vector<uint32_t> fresh_;  // one graph's newly critical locals
  std::vector<uint64_t> next_;   // scratch recompute's new crit words
  size_t activated_ = 0;
};

}  // namespace

PrrCollection::DeltaResult PrrCollection::SelectGreedyDelta(
    size_t k, const std::vector<uint8_t>& excluded, int num_threads,
    ShardedEvalState* eval_state, StopToken* stop) const {
  DeltaResult result;
  if (k == 0 || num_samples() == 0) return result;
  // `num_threads` only sizes a cold index build; the greedy itself runs on
  // this thread.
  EnsureGraphIndex(num_threads);

  // Callers that serve queries concurrently pass per-query eval state (from
  // their SolveContext); the call-local fallback keeps one-shot callers
  // correct at the cost of rebuilding the bitmap arenas.
  ShardedEvalState local_state;
  DeltaOracle oracle(*this, critical_counts_,
                     eval_state != nullptr ? eval_state : &local_state, stop);
  GreedyResult greedy = RunLazyGreedy(oracle, k, &excluded, stop);
  result.nodes = std::move(greedy.selected);
  result.pick_gains = std::move(greedy.gains);
  result.activated_samples = oracle.activated();
  result.cancelled = greedy.cancelled;
  result.deadline_exceeded = greedy.deadline_exceeded;
  if (result.cancelled || result.deadline_exceeded) {
    result.delta_hat = static_cast<double>(num_graph_nodes_) *
                       static_cast<double>(result.activated_samples) /
                       static_cast<double>(num_samples());
    return result;
  }

  // Budget left but no single-node gains: fall back to PRR-occurrence
  // counts (nodes present in many boostable PRR-graphs are the best
  // remaining heuristic candidates). Occurrence counts sum over shards, so
  // the fill order is shard-count-invariant.
  if (result.nodes.size() < k) {
    std::vector<uint8_t>& boosted = oracle.boosted();
    std::vector<NodeId> order;
    order.reserve(num_graph_nodes_);
    std::vector<size_t> occurrences(num_graph_nodes_, 0);
    for (NodeId v = 0; v < num_graph_nodes_; ++v) {
      if (boosted[v] || excluded[v]) continue;
      occurrences[v] = OccurrenceCount(v);
      if (occurrences[v] > 0) order.push_back(v);
    }
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return occurrences[a] > occurrences[b] ||
             (occurrences[a] == occurrences[b] && a < b);
    });
    for (NodeId v : order) {
      if (result.nodes.size() >= k) break;
      boosted[v] = 1;
      result.nodes.push_back(v);
    }
  }

  result.delta_hat = static_cast<double>(num_graph_nodes_) *
                     static_cast<double>(result.activated_samples) /
                     static_cast<double>(num_samples());
  return result;
}

double PrrCollection::EstimateDelta(const std::vector<NodeId>& boost_set,
                                    int num_threads) const {
  if (num_samples() == 0) return 0.0;
  const std::vector<uint8_t> boosted =
      MakeNodeBitmap(num_graph_nodes_, boost_set);
  // Batched evaluation: activation bits for 64 graphs land in one word per
  // worker-owned chunk; the count is a popcount reduction, no atomics. The
  // per-shard counts are summed — addition makes the result shard-count-
  // invariant.
  PrrBatchEvaluator batch;
  size_t activated = 0;
  for (const PrrStore& store : stores_) {
    activated += batch.CountActivated(store, boosted.data(), num_threads);
  }
  return static_cast<double>(num_graph_nodes_) *
         static_cast<double>(activated) /
         static_cast<double>(num_samples());
}

double PrrCollection::EstimateMu(const std::vector<NodeId>& boost_set) const {
  if (num_samples() == 0) return 0.0;
  // Count samples whose critical set intersects B, via the coverage
  // structure's per-node sample lists. Set ids from SetsContaining() index
  // the *non-empty* sample numbering even when empty samples interleave, so
  // `hit` is sized by num_nonempty_sets() — never by num_sets(). Hits are
  // packed 64 samples per word: the inner loop is a branchless OR, and the
  // covered total is one popcount scan.
  std::vector<uint64_t> hit((coverage_.num_nonempty_sets() + 63) / 64, 0);
  for (NodeId v : boost_set) {
    KB_CHECK(v < num_graph_nodes_);
    for (uint32_t set_id : coverage_.SetsContaining(v)) {
      hit[set_id >> 6] |= 1ull << (set_id & 63);
    }
  }
  size_t covered = 0;
  for (const uint64_t w : hit) covered += std::popcount(w);
  return static_cast<double>(num_graph_nodes_) * static_cast<double>(covered) /
         static_cast<double>(num_samples());
}

}  // namespace kboost
