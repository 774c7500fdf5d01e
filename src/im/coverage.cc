#include "src/im/coverage.h"

#include <algorithm>

#include "src/select/greedy.h"
#include "src/util/logging.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {
/// Fewest new entries an index range takes. A range also costs an n-sized
/// cursor array, so it takes at least n entries too: below that, a fan-out
/// costs more than it saves.
constexpr size_t kMinRangeEntries = size_t{1} << 14;

/// Elements one worker copies when a flat array moves to a larger buffer.
constexpr size_t kCopyBlock = size_t{1} << 18;

/// Resizes a flat array that grows in rounds, leaving new elements
/// unwritten for the fill that follows. When it must reallocate, it
/// reserves twice the new size: IMM's levels each about double the pool,
/// which std::vector's own policy (twice the old size) fits exactly, so the
/// next top-up, however small, would move the whole array again. The old
/// elements are copied over on the workers, so the fresh pages are first
/// touched in parallel; the reserved tail stays untouched until a round
/// fills it.
template <typename Vector>
void GrowTo(Vector& array, size_t size) {
  if (size <= array.capacity()) {
    array.resize(size);
    return;
  }
  Vector grown;
  grown.reserve(2 * size);
  grown.resize(size);
  const size_t old_size = array.size();
  ParallelFor(
      (old_size + kCopyBlock - 1) / kCopyBlock, DefaultThreadCount(),
      [&](size_t b, int /*t*/) {
        const size_t begin = b * kCopyBlock;
        const size_t end = std::min(old_size, begin + kCopyBlock);
        std::copy(array.begin() + begin, array.begin() + end,
                  grown.begin() + begin);
      },
      /*chunk=*/1);
  array.swap(grown);
}
}  // namespace

CoverageSelector::CoverageSelector(size_t num_nodes)
    : num_nodes_(num_nodes), node_offsets_(num_nodes + 1, 0) {}

void CoverageSelector::AddSet(std::span<const NodeId> nodes) {
  KB_CHECK(!external_) << "AddSet on an externally bound selector";
#ifndef NDEBUG
  for (NodeId v : nodes) KB_DCHECK(v < num_nodes_);
#endif
  set_nodes_.insert(set_nodes_.end(), nodes.begin(), nodes.end());
  set_offsets_.push_back(set_nodes_.size());
  ++num_sets_;
}

NodeId* CoverageSelector::AppendSets(std::span<const uint32_t> sizes) {
  KB_CHECK(!external_) << "AppendSets on an externally bound selector";
  size_t total = 0;
  for (uint32_t s : sizes) total += s;
  const size_t base = set_nodes_.size();
  GrowTo(set_nodes_, base + total);
  set_offsets_.reserve(set_offsets_.size() + sizes.size());
  size_t offset = base;
  for (uint32_t s : sizes) {
    offset += s;
    set_offsets_.push_back(offset);
  }
  num_sets_ += sizes.size();
  return set_nodes_.data() + base;
}

void CoverageSelector::BindExternalSets(std::span<const uint32_t> sizes,
                                        std::span<const NodeId> nodes) {
  KB_CHECK(set_nodes_.empty() && !external_)
      << "BindExternalSets over existing sample storage";
  external_ = true;
  ext_set_nodes_ = nodes;
  // One fused pass: prefix-sum straight into the offsets table (this runs
  // on every mmap warm start, so no separate sum pass and no per-element
  // push_back bookkeeping).
  const size_t old_size = set_offsets_.size();
  set_offsets_.resize(old_size + sizes.size());
  size_t* out = set_offsets_.data() + old_size;
  size_t offset = 0;
  for (const uint32_t s : sizes) {
    offset += s;
    *out++ = offset;
  }
  KB_CHECK(offset == nodes.size())
      << "coverage sizes sum to " << offset << " but the bound node pool holds "
      << nodes.size();
  num_sets_ += sizes.size();
}

void CoverageSelector::EnsureIndex() const {
  const size_t sets = num_nonempty_sets();
  if (indexed_sets_ == sets) return;
  const std::span<const NodeId> nodes = flat_nodes();
  const size_t n = num_nodes_;
  const size_t first = set_offsets_[indexed_sets_];
  const size_t added = set_offsets_[sets] - first;

  // Ranges [bounds[r], bounds[r + 1]) of the new sets, balanced by entries.
  const size_t ranges = std::clamp<size_t>(
      added / std::max(n, kMinRangeEntries), 1,
      static_cast<size_t>(DefaultThreadCount()));
  std::vector<size_t> bounds(ranges + 1, sets);
  bounds[0] = indexed_sets_;
  for (size_t r = 1; r < ranges; ++r) {
    const size_t target = first + added * r / ranges;
    bounds[r] = static_cast<size_t>(
        std::lower_bound(set_offsets_.begin() + indexed_sets_,
                         set_offsets_.begin() + sets, target) -
        set_offsets_.begin());
  }
  // cursors[r·n + v]: range r's count of v, then its next slot for v.
  std::vector<size_t> cursors(ranges * n, 0);
  ParallelFor(
      ranges, static_cast<int>(ranges),
      [&](size_t r, int /*t*/) {
        size_t* count = cursors.data() + r * n;
        const size_t end = set_offsets_[bounds[r + 1]];
        for (size_t s = set_offsets_[bounds[r]]; s < end; ++s) {
          ++count[nodes[s]];
        }
      },
      /*chunk=*/1);

  // Last node first: v's run moves right by the entries added to nodes
  // below it, past the end of every run still unmoved. Its new entries then
  // follow its old ones, range by range.
  GrowTo(node_sets_, node_offsets_[n] + added);
  size_t shift = added;
  size_t old_end = node_offsets_[n];
  for (size_t v = n; v-- > 0;) {
    size_t add = 0;
    for (size_t r = 0; r < ranges; ++r) add += cursors[r * n + v];
    shift -= add;
    const size_t old_begin = node_offsets_[v];
    if (shift != 0) {
      std::copy_backward(node_sets_.begin() + old_begin,
                         node_sets_.begin() + old_end,
                         node_sets_.begin() + old_end + shift);
    }
    size_t slot = old_end + shift;
    for (size_t r = 0; r < ranges; ++r) {
      const size_t count = cursors[r * n + v];
      cursors[r * n + v] = slot;
      slot += count;
    }
    node_offsets_[v + 1] = slot;
    old_end = old_begin;
  }

  ParallelFor(
      ranges, static_cast<int>(ranges),
      [&](size_t r, int /*t*/) {
        size_t* cursor = cursors.data() + r * n;
        for (size_t i = bounds[r]; i < bounds[r + 1]; ++i) {
          for (size_t s = set_offsets_[i]; s < set_offsets_[i + 1]; ++s) {
            node_sets_[cursor[nodes[s]]++] = static_cast<uint32_t>(i);
          }
        }
      },
      /*chunk=*/1);
  indexed_sets_ = sets;
}

namespace {

/// Pull-model (CELF) oracle over the selector's inverted CSR: a gain is the
/// number of still-uncovered samples containing the candidate, recomputed
/// lazily when the shared greedy loop surfaces a stale heap entry.
class CoverageOracle final : public SelectionOracle {
 public:
  explicit CoverageOracle(const CoverageSelector& selector)
      : selector_(selector), covered_(selector.num_nonempty_sets(), 0) {}

  size_t num_candidates() const override { return selector_.num_nodes(); }
  uint64_t InitialGain(NodeId v) const override {
    return selector_.SetCount(v);
  }
  uint64_t CurrentGain(NodeId v) const override {
    uint64_t gain = 0;
    for (uint32_t set_id : selector_.SetsContaining(v)) {
      gain += !covered_[set_id];
    }
    return gain;
  }
  void Commit(NodeId v, std::vector<NodeId>* /*touched*/) override {
    for (uint32_t set_id : selector_.SetsContaining(v)) covered_[set_id] = 1;
  }

 private:
  const CoverageSelector& selector_;
  std::vector<uint8_t> covered_;
};

}  // namespace

CoverageSelector::Result CoverageSelector::SelectGreedy(
    size_t k, const std::vector<uint8_t>* excluded) const {
  Result result;
  if (k == 0 || num_sets_ == 0) return result;
  EnsureIndex();

  CoverageOracle oracle(*this);
  GreedyResult greedy = RunLazyGreedy(oracle, k, excluded);
  result.selected = std::move(greedy.selected);
  result.pick_gains = std::move(greedy.gains);
  result.covered_sets = greedy.total_gain;
  result.coverage_fraction =
      static_cast<double>(result.covered_sets) / static_cast<double>(num_sets_);
  return result;
}

}  // namespace kboost
