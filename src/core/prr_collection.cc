#include "src/core/prr_collection.h"

#include <algorithm>
#include <bit>

#include "src/select/greedy.h"
#include "src/util/thread_pool.h"

namespace kboost {

PrrCollection::PrrCollection(size_t num_graph_nodes)
    : num_graph_nodes_(num_graph_nodes), coverage_(num_graph_nodes) {}

size_t PrrCollection::StoredGraphBytes() const {
  return lb_critical_bytes_ + store_.MemoryBytes();
}

void PrrCollection::AddBoostable(const PrrGraph& graph) {
  const PrrGraphView view = store_.View(store_.Add(graph));
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

void PrrCollection::EnsureGraphIndex() const {
  if (graph_index_built_) return;
  const size_t num_graphs = store_.num_graphs();
  index_offsets_.assign(num_graph_nodes_ + 1, 0);
  // Counting-sort pass: local id 0 is the super-seed sentinel (no global
  // identity) and is skipped consistently in both passes.
  for (size_t g = 0; g < num_graphs; ++g) {
    const PrrGraphView view = store_.View(g);
    for (uint32_t v = PrrGraph::kRootLocal; v < view.num_nodes(); ++v) {
      ++index_offsets_[view.global_ids[v] + 1];
    }
  }
  for (size_t v = 0; v < num_graph_nodes_; ++v) {
    index_offsets_[v + 1] += index_offsets_[v];
  }
  index_graphs_.resize(index_offsets_[num_graph_nodes_]);
  index_locals_.resize(index_offsets_[num_graph_nodes_]);
  std::vector<size_t> cursor(index_offsets_.begin(), index_offsets_.end() - 1);
  // The Δ̂ greedy's initial gains ride along: how many stored critical sets
  // hold each node.
  critical_counts_.assign(num_graph_nodes_, 0);
  for (size_t g = 0; g < num_graphs; ++g) {
    const PrrGraphView view = store_.View(g);
    for (uint32_t v = PrrGraph::kRootLocal; v < view.num_nodes(); ++v) {
      const size_t slot = cursor[view.global_ids[v]]++;
      index_graphs_[slot] = static_cast<uint32_t>(g);
      index_locals_[slot] = v;
    }
    for (uint32_t c : view.critical()) ++critical_counts_[view.global_ids[c]];
  }
  graph_index_built_ = true;
}

void PrrCollection::WarmIndexes(int /*unused*/) const {
  EnsureGraphIndex();
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
    // Graphs already sit in the arena (the sampler appended them); only the
    // critical sets still need to reach the coverage structure.
    for (size_t i = 0; i < count; ++i) {
      sizes[i] =
          static_cast<uint32_t>(store_.critical_count(items[i].graph_id));
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
          const PrrGraphView view = store_.View(items[i].graph_id);
          for (uint32_t c = 0; c < sizes[i]; ++c) {
            dst[c] = view.global_ids[view.critical_locals[c]];
          }
        }
      },
      /*chunk=*/64);
  num_boostable_ += count;
}

void PrrCollection::RestorePool(PrrStore&& store,
                                std::span<const uint32_t> set_sizes,
                                std::span<const NodeId> coverage_nodes,
                                size_t num_activated, size_t num_hopeless) {
  KB_CHECK(num_samples() == 0) << "snapshot restore into a non-empty pool";
  if (store.num_graphs() == 0) {
    // An LB-only pool: its critical sets are all it stores. (A full pool
    // without graphs has no critical sets, so this counts 0 bytes for it.)
    lb_critical_bytes_ = coverage_nodes.size_bytes();
  } else {
    store_ = std::move(store);
    KB_CHECK(set_sizes.size() == store_.num_graphs())
        << "coverage size table covers " << set_sizes.size() << " of "
        << store_.num_graphs() << " stored graphs";
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
/// in the PrrEvalState — the one record of the graph this run —
/// initialized lazily on first touch (live-edge-only reach at B ∩ R = ∅ plus
/// the stored critical set) and relaxed forward/backward from the pick
/// afterwards. Because boosting only opens edges, reach and criticality grow
/// monotonically until a graph activates — so commits credit only newly
/// critical nodes, and debit a graph's crit bitmap exactly once, on
/// activation.
///
/// Gains start from the pool's per-node critical-set counts and settle in
/// place. They are sums over graphs, so the scan order does not show in the
/// selected set. Excluded nodes keep a gain too: the greedy loop never reads
/// it. Every gain *increase* is reported (required for lazy-greedy
/// correctness); decreases ride along for free.
class DeltaOracle final : public SelectionOracle {
 public:
  DeltaOracle(const PrrCollection& collection,
              std::span<const uint32_t> initial_gains, PrrEvalState* state)
      : collection_(collection),
        boosted_(collection.num_graph_nodes(), 0),
        gains_(initial_gains.begin(), initial_gains.end()),
        state_(state) {
    state_->Attach(collection.store());
  }

  size_t num_candidates() const override { return gains_.size(); }
  uint64_t InitialGain(NodeId v) const override { return gains_[v]; }
  uint64_t CurrentGain(NodeId v) const override { return gains_[v]; }

  void Commit(NodeId pick, std::vector<NodeId>* touched) override {
    boosted_[pick] = 1;
    gains_[pick] = 0;
    const PrrStore& store = collection_.store();
    const std::span<const uint32_t> graphs =
        collection_.GraphsContaining(pick);
    const std::span<const uint32_t> locals =
        collection_.GraphLocalsContaining(pick);
    for (size_t i = 0; i < graphs.size(); ++i) {
      CommitGraph(store.View(graphs[i]), *state_, graphs[i], locals[i],
                  touched);
    }
    activated_after_.push_back(activated_);
  }

  size_t activated() const { return activated_; }
  /// Graphs activated after each commit, in commit order.
  const std::vector<size_t>& activated_after() const {
    return activated_after_;
  }
  std::vector<uint8_t>& boosted() { return boosted_; }

 private:
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
    uint64_t* fwd = state.fwd(g);
    uint64_t* bwd = state.bwd(g);
    if (first_touch) inc_.InitEmptyReach(view, fwd, bwd);
    const bool activated =
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
      return;
    }
    // Activated: debit every non-boosted node of its crit bitmap, once.
    state.MarkActivated(g);
    ++activated_;
    for (uint32_t w = 0; w < state.words_per_bitmap(g); ++w) {
      for (uint64_t bits = crit[w]; bits != 0; bits &= bits - 1) {
        const NodeId global = view.global_ids
            [w * 64 + static_cast<uint32_t>(std::countr_zero(bits))];
        if (boosted_[global]) continue;
        --gains_[global];
        touched->push_back(global);
      }
    }
  }

  const PrrCollection& collection_;
  std::vector<uint8_t> boosted_;
  std::vector<uint32_t> gains_;
  PrrEvalState* state_;
  PrrIncrementalEvaluator inc_;
  std::vector<uint32_t> fresh_;  // one graph's newly critical locals
  size_t activated_ = 0;
  std::vector<size_t> activated_after_;
};

}  // namespace

PrrCollection::DeltaResult PrrCollection::SelectGreedyDelta(
    size_t k, const std::vector<uint8_t>& excluded, int /*unused*/,
    PrrEvalState* eval_state) const {
  DeltaResult result;
  if (k == 0 || num_samples() == 0) return result;
  EnsureGraphIndex();

  PrrEvalState local_state;
  DeltaOracle oracle(*this, critical_counts_,
                     eval_state != nullptr ? eval_state : &local_state);
  GreedyResult greedy = RunLazyGreedy(oracle, k, &excluded);
  result.nodes = std::move(greedy.selected);
  result.pick_gains = std::move(greedy.gains);
  result.activated_samples = oracle.activated();
  // Each prefix's Δ̂ is what a run stopped after that pick reports: the same
  // commits, so the same activated count and the same n·count/θ expression.
  const auto delta_hat = [&](size_t activated) {
    return static_cast<double>(num_graph_nodes_) *
           static_cast<double>(activated) / static_cast<double>(num_samples());
  };
  for (const size_t activated : oracle.activated_after()) {
    result.prefix_delta_hat.push_back(delta_hat(activated));
  }
  result.delta_hat = delta_hat(result.activated_samples);

  // Budget left but no single-node gains: fall back to PRR-occurrence
  // counts (nodes present in many boostable PRR-graphs are the best
  // remaining heuristic candidates). The fill order never reads k, so
  // padding keeps the answer nested.
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
    result.prefix_delta_hat.resize(result.nodes.size(), result.delta_hat);
  }
  return result;
}

std::vector<double> PrrCollection::PrefixDeltaHat(
    std::span<const NodeId> order) const {
  if (num_samples() == 0) return std::vector<double>(order.size(), 0.0);
  EnsureGraphIndex();
  // Boosting only opens edges, so an activated graph stays activated and is
  // never re-evaluated.
  std::vector<uint8_t> activated(store_.num_graphs(), 0);
  std::vector<uint8_t> boosted(num_graph_nodes_, 0);
  PrrEvaluator evaluator;
  std::vector<double> prefix;
  prefix.reserve(order.size());
  size_t count = 0;
  for (const NodeId v : order) {
    KB_CHECK(v < num_graph_nodes_) << "node " << v << " out of range";
    boosted[v] = 1;
    for (const uint32_t g : GraphsContaining(v)) {
      if (activated[g] == 0 &&
          evaluator.IsActivated(store_.View(g), boosted.data())) {
        activated[g] = 1;
        ++count;
      }
    }
    prefix.push_back(static_cast<double>(num_graph_nodes_) *
                     static_cast<double>(count) /
                     static_cast<double>(num_samples()));
  }
  return prefix;
}

double PrrCollection::EstimateDelta(const std::vector<NodeId>& boost_set,
                                    int /*unused*/) const {
  const std::vector<double> prefix = PrefixDeltaHat(boost_set);
  return prefix.empty() ? 0.0 : prefix.back();
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
