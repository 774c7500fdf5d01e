#ifndef KBOOST_CORE_BOOST_SESSION_H_
#define KBOOST_CORE_BOOST_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/prr_boost.h"
#include "src/core/solve_context.h"
#include "src/util/status.h"

namespace kboost {

/// The serving-layer entry point: one prepared PRR-graph pool, many budget
/// queries. Where PrrBoost()/PrrBoostLb() sample a fresh pool per call, a
/// BoostSession samples once at its maximum budget (`options.k`, the session
/// budget) and then answers any budget k ≤ budget() with selection work
/// only:
///
/// - LB mode: greedy on μ̂ yields nested solutions, so every budget's answer
///   is a prefix slice of one cached greedy order.
/// - Full mode: the Δ̂ greedy is nested too — round i's argmax reads only
///   picks 0..i−1, never k, and its padding order is sorted independently
///   of k — so B_Δ is a slice of a second cached order, and the sandwich
///   compare reads both orders' cached prefix Δ̂.
///
/// Either way a query is O(k) after Prepare(). Two query surfaces share that
/// machinery:
///
/// - SolveForBudget(k): the serial sweep API. Samples lazily and aborts on a
///   bad budget. NOT safe to call from more than one thread.
/// - Solve(spec): the concurrent serving API. Requires Prepare() (which
///   freezes the pool read-only), validates the request and returns
///   StatusOr. Any number of threads may Solve() against one prepared
///   session simultaneously, with results bit-identical to the serial loop.
///   BoostService (src/serve) serves a registry of named prepared sessions
///   through exactly this surface.
///
/// Results answered from an existing pool carry pool_reused = true and
/// pool_budget = budget(), recording that the sampling constants correspond
/// to the larger budget (the paper's budget-reuse heuristic).
///
/// Prepared pools can be snapshotted to disk and restored in another
/// process via SavePool / LoadPoolSnapshot (src/io/pool_io.h), enabling
/// warm restarts and cross-process serving against one prepared index.
class BoostSession {
 public:
  /// Fallible construction — the blessed path for anything driven by
  /// external input. Validates `options` (BoostOptions::Validate), the
  /// graph size, and that `seeds` is non-empty with every id in range;
  /// returns InvalidArgument/OutOfRange instead of aborting.
  static StatusOr<std::unique_ptr<BoostSession>> Create(
      const DirectedGraph& graph, std::vector<NodeId> seeds,
      const BoostOptions& options, bool lb_only = false);

  /// Trusting constructor for in-process callers with known-good arguments;
  /// KB_CHECKs the same predicates Create() reports as Status.
  /// `options.k` is the session budget — the largest k the session can
  /// answer. `lb_only` selects the PRR-Boost-LB pipeline (no stored graphs).
  BoostSession(const DirectedGraph& graph, std::vector<NodeId> seeds,
               const BoostOptions& options, bool lb_only = false);

  /// Samples the pool at budget() via the IMM schedule, warms every lazily
  /// built read-only index and caches both greedy orders, making the
  /// session ready for concurrent Solve() calls. Idempotent; also called
  /// lazily by SolveForBudget — call eagerly to front-load the expensive
  /// part (e.g. at server startup or before SavePool).
  void Prepare();

  /// Serial sweep path: answers the k-boosting problem for any
  /// 1 ≤ k ≤ budget() without resampling. Not thread-safe.
  BoostResult SolveForBudget(size_t k);

  /// Concurrent serving path: answers `spec` against the prepared pool,
  /// touching no session-owned mutable state. Safe to call from any number
  /// of threads once Prepare() has run; bit-identical to SolveForBudget for
  /// the same (k, mode). It fails only on a request it cannot answer (the
  /// statuses of PrrBoostEngine::Solve): an O(k) slice has nothing to
  /// cancel or time out. `context` is unused; delete it with the next
  /// benchmark change.
  StatusOr<BoostResult> Solve(const SolveSpec& spec,
                              SolveContext* context = nullptr) const {
    return engine_.Solve(spec, context);
  }

  /// The largest budget this session can answer (options.k).
  size_t budget() const { return engine_.options().k; }
  bool lb_only() const { return engine_.lb_only(); }
  /// Whether the pool has been sampled (or adopted from a snapshot).
  bool prepared() const { return engine_.sampled(); }
  /// Whether Prepare() has run — the precondition of concurrent Solve().
  bool serving_ready() const { return engine_.serving_ready(); }

  const DirectedGraph& graph() const { return engine_.graph(); }
  const std::vector<NodeId>& seeds() const { return engine_.seeds(); }
  const BoostOptions& options() const { return engine_.options(); }
  /// The wrapped engine, for pool estimators (EstimateDelta/EstimateMu) and
  /// snapshot restore.
  PrrBoostEngine& engine() { return engine_; }
  const PrrBoostEngine& engine() const { return engine_; }

  /// Samples (if needed) and snapshots the pool to `path`; convenience for
  /// SavePoolSnapshot (src/io/pool_io.h).
  Status SavePool(const std::string& path);

  /// Pins an external resource to this session's lifetime. The snapshot
  /// loader (src/io/pool_io.h) uses this to keep the bytes a restored pool
  /// aliases alive for as long as the session exists — and, since
  /// BoostService pool entries hold the session by shared_ptr, for as long
  /// as any in-flight request still references it.
  void RetainResource(std::shared_ptr<const void> resource) {
    retained_.push_back(std::move(resource));
  }

 private:
  PrrBoostEngine engine_;
  std::vector<std::shared_ptr<const void>> retained_;
};

}  // namespace kboost

#endif  // KBOOST_CORE_BOOST_SESSION_H_
