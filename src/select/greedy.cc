#include "src/select/greedy.h"

#include <queue>

#include "src/util/logging.h"

namespace kboost {

namespace {

/// A heap entry is *fresh* when recorded at the current epoch (one epoch per
/// commit): its gain is exact, so the top fresh entry is a true argmax. Stale
/// entries are refreshed through CurrentGain and re-pushed — classic CELF for
/// pull oracles, an O(1) cache read for push oracles.
struct Entry {
  uint64_t gain;
  NodeId node;
  uint32_t epoch;
};

struct EntryLess {
  bool operator()(const Entry& a, const Entry& b) const {
    return a.gain < b.gain || (a.gain == b.gain && a.node > b.node);
  }
};

}  // namespace

namespace {

/// Stamps the stop reason into the result; returns true when tripped.
bool StampStop(const StopToken* stop, GreedyResult* result) {
  if (stop == nullptr || !stop->stopped()) return false;
  result->cancelled = stop->cancelled();
  result->deadline_exceeded = stop->deadline_exceeded();
  return true;
}

}  // namespace

GreedyResult RunLazyGreedy(SelectionOracle& oracle, size_t k,
                           const std::vector<uint8_t>* excluded,
                           StopToken* stop) {
  GreedyResult result;
  const size_t n = oracle.num_candidates();
  if (k == 0 || n == 0) return result;
  KB_DCHECK(excluded == nullptr || excluded->size() == n);

  std::priority_queue<Entry, std::vector<Entry>, EntryLess> heap;
  for (NodeId v = 0; v < n; ++v) {
    if (excluded != nullptr && (*excluded)[v]) continue;
    const uint64_t gain = oracle.InitialGain(v);
    if (gain > 0) heap.push(Entry{gain, v, 0});
  }

  uint32_t epoch = 0;
  std::vector<uint8_t> chosen(n, 0);
  std::vector<NodeId> touched;
  while (result.selected.size() < k && !heap.empty()) {
    if (stop != nullptr && stop->ShouldStop()) {
      StampStop(stop, &result);
      break;
    }
    const Entry top = heap.top();
    heap.pop();
    if (chosen[top.node]) continue;
    if (top.epoch != epoch) {
      const uint64_t gain = oracle.CurrentGain(top.node);
      if (gain > 0) heap.push(Entry{gain, top.node, epoch});
      continue;
    }
    // Fresh maximum: commit. Push-model oracles report the candidates whose
    // gains moved; their settled values enter the heap at the new epoch.
    chosen[top.node] = 1;
    result.selected.push_back(top.node);
    result.gains.push_back(top.gain);
    result.total_gain += top.gain;
    touched.clear();
    oracle.Commit(top.node, &touched);
    // A push-model oracle's Commit scans many graphs and polls the token
    // every stride; when it tripped mid-pick its gain table may be
    // partially settled, so stop HERE — the partial result is discarded by
    // the serving layer, never served.
    if (StampStop(stop, &result)) break;
    ++epoch;
    for (NodeId v : touched) {
      if (chosen[v]) continue;
      if (excluded != nullptr && (*excluded)[v]) continue;
      const uint64_t gain = oracle.CurrentGain(v);
      if (gain > 0) heap.push(Entry{gain, v, epoch});
    }
  }
  return result;
}

}  // namespace kboost
