#ifndef KBOOST_SELECT_GREEDY_H_
#define KBOOST_SELECT_GREEDY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace kboost {

/// Absolute steady-clock time in nanoseconds — the representation request
/// deadlines travel in (steady so a wall-clock step never expires or revives
/// a request; absolute so queue wait and solve time draw down one budget).
inline int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cooperative stop signal for one solve: the request's cancel flag and
/// absolute deadline, plus the tripped state and its reason. The greedy loop
/// polls ShouldStop() once per round; a push-model oracle whose single
/// Commit can be huge (the Δ̂ per-pick re-evaluation scan) polls it again
/// every bounded stride of that scan, so even a one-pick solve stops
/// promptly. Both run on the solving thread; only the cancel flag is written
/// from elsewhere. Once tripped, a token stays tripped (stopped() is one
/// relaxed load).
///
/// The first reason to trip wins and is stable; reading the clock costs a
/// vDSO call, so per-item code should gate ShouldStop() behind a stride and
/// use stopped() in between.
class StopToken {
 public:
  StopToken() = default;
  /// `cancel` may be null; `deadline_ns` is absolute SteadyNowNanos() time,
  /// 0 = no deadline. The flag must outlive the token.
  StopToken(const std::atomic<bool>* cancel, int64_t deadline_ns)
      : cancel_(cancel), deadline_ns_(deadline_ns) {}

  /// Full poll: the tripped flag, then the cancel flag, then the clock.
  bool ShouldStop() {
    if (stopped()) return true;
    if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) {
      Trip(kCancelled);
      return true;
    }
    if (deadline_ns_ > 0 && SteadyNowNanos() >= deadline_ns_) {
      Trip(kDeadline);
      return true;
    }
    return false;
  }

  /// Already tripped? One relaxed load — cheap enough for per-item checks.
  bool stopped() const { return why_.load(std::memory_order_relaxed) != 0; }
  bool cancelled() const {
    return why_.load(std::memory_order_relaxed) == kCancelled;
  }
  bool deadline_exceeded() const {
    return why_.load(std::memory_order_relaxed) == kDeadline;
  }
  bool has_deadline() const { return deadline_ns_ > 0; }

 private:
  static constexpr int kCancelled = 1;
  static constexpr int kDeadline = 2;

  // Mutex-free by design: the token is one sticky tri-state (why_) plus two
  // immutable-after-construction fields, polled and tripped on the solving
  // thread; the cancel flag it watches is the only thing another thread
  // writes. The CAS in Trip() keeps "first reason wins" — nothing here
  // guards other data, so there is no capability to annotate.
  void Trip(int reason) {
    int expected = 0;  // first reason wins; later trips keep it stable
    why_.compare_exchange_strong(expected, reason, std::memory_order_relaxed);
  }

  const std::atomic<bool>* cancel_ = nullptr;
  int64_t deadline_ns_ = 0;
  std::atomic<int> why_{0};
};

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
  /// Set when the loop stopped because the stop token tripped on the
  /// request's cancel flag; `selected` holds the picks committed before the
  /// trip was observed (the last pick may be partially committed when the
  /// oracle tripped the token mid-Commit — callers discard on stop).
  bool cancelled = false;
  /// Set when the loop stopped because the stop token's deadline passed;
  /// same partial-result caveats as `cancelled`.
  bool deadline_exceeded = false;
};

/// The one lazy-greedy (CELF) selection loop: up to k rounds, each committing
/// a candidate of maximum current marginal gain. Ties break toward the
/// smaller node id, making the selection deterministic and independent of
/// heap insertion order (and hence of the order an oracle reports touched
/// candidates in).
/// Candidates flagged in `excluded` (n-sized bitmap, may be null) and
/// candidates with zero gain are never picked; the loop stops early when no
/// positive-gain candidate remains. `stop`, if non-null, is polled each loop
/// iteration AND after every Commit (a push-model oracle may trip it
/// mid-pick from its per-pick scan); when it trips the loop returns the
/// partial result with `cancelled` or `deadline_exceeded` set.
GreedyResult RunLazyGreedy(SelectionOracle& oracle, size_t k,
                           const std::vector<uint8_t>* excluded = nullptr,
                           StopToken* stop = nullptr);

}  // namespace kboost

#endif  // KBOOST_SELECT_GREEDY_H_
