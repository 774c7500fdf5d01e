#ifndef KBOOST_SELECT_GREEDY_H_
#define KBOOST_SELECT_GREEDY_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace kboost {

/// The coverage-oracle concept behind every greedy maximization in the
/// library: a candidate universe [0, num_candidates) where each candidate has
/// a non-negative integer marginal gain against the current selection.
///
/// Two update disciplines are supported by the same selection loop:
///
/// - *Pull* (CELF): `Commit` leaves `touched` empty; the picker re-evaluates
///   stale heap entries lazily through `CurrentGain` when they surface. Sound
///   whenever gains are non-increasing as the selection grows (submodular
///   objectives — coverage over RR-sets or critical sets).
/// - *Push*: `Commit` updates its cached gains eagerly and reports the
///   candidates whose gain changed via `touched`; the picker re-inserts those
///   with fresh values. Required when gains can move both ways (the Δ̂
///   objective, whose marginal gains are not monotone in the boost set).
///   Correctness requires every gain *increase* to be reported — an
///   unreported increase leaves only under-valued heap entries for that
///   candidate, so a lesser candidate could commit ahead of it. Decreases
///   may go unreported: a stale over-valued entry surfaces, is refreshed
///   through `CurrentGain`, and re-enters at its true value (DeltaOracle
///   exploits this by reporting only frontier events — new criticals and
///   per-activation debits — rather than whole critical sets).
class SelectionOracle {
 public:
  virtual ~SelectionOracle() = default;

  /// Size of the candidate universe (candidate ids are node ids).
  virtual size_t num_candidates() const = 0;
  /// Marginal gain of v against the empty selection (heap seeding).
  virtual uint64_t InitialGain(NodeId v) const = 0;
  /// Exact marginal gain of v against the current selection. Must be cheap
  /// for push-model oracles (a cached read); pull-model oracles may scan.
  virtual uint64_t CurrentGain(NodeId v) const = 0;
  /// Applies pick v to the selection. Push-model oracles append every
  /// candidate whose cached gain changed; pull-model oracles leave `touched`
  /// untouched. Duplicates in `touched` are tolerated.
  virtual void Commit(NodeId v, std::vector<NodeId>* touched) = 0;
};

/// Outcome of RunLazyGreedy: picks in selection order plus the marginal gain
/// each pick realized. `gains[i]` is exact, so prefix objective values (and
/// therefore nested-budget answers for submodular objectives) fall out of one
/// run: objective(selected[0..i]) = Σ_{j≤i} gains[j].
struct GreedyResult {
  std::vector<NodeId> selected;
  std::vector<uint64_t> gains;  ///< marginal gain of each pick, same order
  uint64_t total_gain = 0;
};

/// The one lazy-greedy (CELF) selection loop: up to k rounds, each committing
/// a candidate of maximum current marginal gain. Ties break toward the
/// smaller node id, making the selection deterministic and independent of
/// heap insertion order (and hence of the order an oracle reports touched
/// candidates in).
/// Candidates flagged in `excluded` (n-sized bitmap, may be null) and
/// candidates with zero gain are never picked; the loop stops early when no
/// positive-gain candidate remains. Round i reads only picks 0..i−1 and
/// never k, so the k-pick result is the k-prefix of any longer run.
GreedyResult RunLazyGreedy(SelectionOracle& oracle, size_t k,
                           const std::vector<uint8_t>* excluded = nullptr);

}  // namespace kboost

#endif  // KBOOST_SELECT_GREEDY_H_
