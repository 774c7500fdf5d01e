#ifndef KBOOST_IM_COVERAGE_H_
#define KBOOST_IM_COVERAGE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace kboost {

/// Greedy maximum-coverage engine shared by IMM (over RR-sets), PRR-Boost-LB
/// (over critical-node sets), and MoreSeeds (over marginal RR-sets).
///
/// Each sample is a set of node ids that "cover" it; selecting node v covers
/// every sample containing v. Samples may be empty — they still count in the
/// denominator of coverage fractions, which is how non-boostable PRR-graphs
/// and RR-sets already reached by existing seeds enter the estimates.
///
/// Storage is fully flat: samples are appended to one nodes/offsets pair,
/// and the node→samples inverted index is a CSR that is brought up to date
/// lazily, extended by the samples appended since its last update: old runs
/// shift right in place and only the new samples are scattered, so a pool
/// that grows through IMM's levels indexes each sample once. Appending is a
/// bulk copy (no per-node vector growth), so a sampler can fill a whole
/// batch's sets on many workers.
class CoverageSelector {
 public:
  explicit CoverageSelector(size_t num_nodes);

  /// Appends one sample set. Node ids must be < num_nodes and distinct.
  /// Aborts on a selector whose node pool is externally bound
  /// (BindExternalSets).
  void AddSet(std::span<const NodeId> nodes);
  /// Bulk-appends `sizes.size()` sets whose node counts the caller already
  /// knows, growing the flat pool once, and returns the base of the reserved
  /// node region: set i's nodes must be written at the prefix-sum offset of
  /// `sizes[0..i)`, before the index is next read. The spans are disjoint,
  /// so the fill may run on many workers — the samplers' batch path, which
  /// replaces one serialized AddSet call per sample. Equivalent to AddSet
  /// called `sizes.size()` times in order (zero-size entries count as
  /// non-empty sets of size 0, exactly as AddSet({}) does).
  NodeId* AppendSets(std::span<const uint32_t> sizes);
  /// Binds the flat sample-node pool to externally owned read-only memory —
  /// the critical sets of a loaded pool snapshot — appending `sizes.size()`
  /// sets whose nodes are the consecutive prefix-sum spans of `nodes`,
  /// without copying a byte. Only the per-set offsets (O(sets)) are
  /// materialized. `nodes` must stay valid for the selector's lifetime (for
  /// a snapshot: as long as the session retaining its bytes lives), its ids
  /// must already be validated < num_nodes, and the sizes must sum to
  /// exactly nodes.size() (checked). A bound selector rejects
  /// further node-carrying appends (AddSet/AppendSets abort); empty sets may
  /// still be added.
  void BindExternalSets(std::span<const uint32_t> sizes,
                        std::span<const NodeId> nodes);
  /// Appends an empty sample (counts toward totals only).
  void AddEmptySet() { ++num_sets_; }
  /// Appends `count` empty samples at once (pool-snapshot restore).
  void AddEmptySets(size_t count) { num_sets_ += count; }

  size_t num_sets() const { return num_sets_; }
  size_t num_nonempty_sets() const { return set_offsets_.size() - 1; }
  size_t num_nodes() const { return num_nodes_; }

  /// Nodes of non-empty sample `i` (adapters and pool-snapshot IO).
  std::span<const NodeId> SetNodes(size_t i) const {
    return flat_nodes().subspan(set_offsets_[i],
                                set_offsets_[i + 1] - set_offsets_[i]);
  }

  struct Result {
    std::vector<NodeId> selected;
    /// Sets newly covered by each pick (selection order); prefix sums give
    /// the coverage of every nested budget from one run.
    std::vector<uint64_t> pick_gains;
    size_t covered_sets = 0;
    /// covered_sets / num_sets (0 when no samples).
    double coverage_fraction = 0.0;
  };

  /// Greedily selects up to k nodes maximizing the number of covered samples
  /// — a pull-model (CELF) adapter over the shared src/select lazy-greedy
  /// engine. `excluded`, if non-null, is an n-sized bitmap of forbidden
  /// candidates (e.g. the seed set). Stops early when no remaining candidate
  /// covers anything new; ties break toward the smaller node id. Const: can
  /// be re-run with different k on the same samples.
  Result SelectGreedy(size_t k, const std::vector<uint8_t>* excluded = nullptr)
      const;

  /// Brings the node→samples CSR up to date now. The lazy update inside the
  /// const accessors is NOT thread-safe, so anything that hands this
  /// selector to concurrent readers (a prepared serving pool) must warm the
  /// index first — PrrCollection::WarmIndexes / BoostSession::Prepare do.
  void WarmIndex() const { EnsureIndex(); }

  /// Number of samples that contain node v (i.e. singleton coverage).
  size_t SetCount(NodeId v) const {
    EnsureIndex();
    return node_offsets_[v + 1] - node_offsets_[v];
  }

  /// Ids (into the non-empty sample numbering) of samples containing v.
  std::span<const uint32_t> SetsContaining(NodeId v) const {
    EnsureIndex();
    return {node_sets_.data() + node_offsets_[v],
            node_offsets_[v + 1] - node_offsets_[v]};
  }

 private:
  /// Extends the node→samples CSR by the sets appended since its last run
  /// (a first build is the same extension of an empty index). The new sets
  /// are cut into ranges balanced by entry count; each range counts and
  /// then scatters its sets with cursors of its own, on its own worker, and
  /// old runs shift right in place, so every node's run stays in ascending
  /// set order — bit for bit a from-scratch build. Not thread-safe; call
  /// before handing spans to parallel readers.
  void EnsureIndex() const;

  /// std::allocator whose value-less construct default-initializes, so
  /// resize() leaves new elements unwritten: the pages of a grown flat array
  /// are first touched by the parallel fill that follows, not by a serial
  /// zeroing pass.
  template <typename T>
  struct FillLaterAllocator : std::allocator<T> {
    template <typename U>
    struct rebind {
      using other = FillLaterAllocator<U>;
    };
    FillLaterAllocator() = default;
    template <typename U>
    FillLaterAllocator(const FillLaterAllocator<U>& /*other*/) noexcept {}
    template <typename U>
    void construct(U* p) noexcept {
      ::new (static_cast<void*>(p)) U;
    }
  };
  template <typename T>
  using FillLaterVector = std::vector<T, FillLaterAllocator<T>>;

  /// The flat node pool, whichever mode owns it.
  std::span<const NodeId> flat_nodes() const {
    return external_ ? ext_set_nodes_ : std::span<const NodeId>(set_nodes_);
  }

  size_t num_nodes_;
  size_t num_sets_ = 0;
  // Flattened sample storage: nodes of sample i are
  // flat_nodes()[set_offsets_[i] .. set_offsets_[i+1]).
  std::vector<size_t> set_offsets_{0};
  FillLaterVector<NodeId> set_nodes_;
  // External (view) mode: when external_ is set, set_nodes_ is empty and the
  // span below aliases memory owned elsewhere (a loaded snapshot's critical
  // sets). Same lifetime contract as PrrStore's external spans: the data
  // is trivially destructible, only reads must be fenced by the owner.
  bool external_ = false;
  std::span<const NodeId> ext_set_nodes_;
  // Inverted CSR over the first indexed_sets_ non-empty sets: samples
  // containing node v are node_sets_[node_offsets_[v] .. node_offsets_[v+1]).
  mutable std::vector<size_t> node_offsets_;
  mutable FillLaterVector<uint32_t> node_sets_;
  mutable size_t indexed_sets_ = 0;
};

}  // namespace kboost

#endif  // KBOOST_IM_COVERAGE_H_
