#ifndef KBOOST_CORE_BOOST_SESSION_H_
#define KBOOST_CORE_BOOST_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/prr_boost.h"
#include "src/core/prr_collection.h"
#include "src/core/prr_sampler.h"
#include "src/core/solve_context.h"
#include "src/graph/graph.h"
#include "src/util/status.h"

namespace kboost {

/// One PRR-graph pool, from sampling (or snapshot adoption) to answers. A
/// session samples once at its maximum budget (`options.k`, the session
/// budget), and Prepare() caches both greedy orders there:
///
/// - LB mode: greedy on μ̂ yields nested solutions, so every budget's answer
///   is a prefix slice of one cached greedy order.
/// - Full mode: the Δ̂ greedy is nested too — round i's argmax reads only
///   picks 0..i−1, never k, and its padding order is sorted independently
///   of k — so B_Δ is a slice of a second cached order, and the sandwich
///   compare reads both orders' cached prefix Δ̂.
///
/// So Solve(spec) answers any budget k ≤ budget() with an O(k) slice. After
/// Prepare() the session is read-only: any number of threads may Solve()
/// against it at once, and BoostService (src/serve) serves a registry of
/// named prepared sessions through exactly this call. PrrBoost()/
/// PrrBoostLb() are one session answering its own budget.
///
/// Every answer carries pool_budget = budget(): the sampling constants
/// correspond to the pool's budget, and a smaller k reuses that pool (the
/// paper's budget-reuse heuristic).
///
/// Pools can be snapshotted to disk and restored in another process via
/// SavePool / LoadPoolSnapshot (src/io/pool_io.h), for warm restarts and
/// cross-process serving against one pool.
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
  /// answer. `lb_only` selects the PRR-Boost-LB pipeline: distance-1
  /// sampling and no stored PRR-graphs.
  BoostSession(const DirectedGraph& graph, std::vector<NodeId> seeds,
               const BoostOptions& options, bool lb_only = false);

  /// Samples the pool at budget() via the IMM schedule (SamplingLB over μ̂).
  /// Idempotent; a no-op on an adopted pool.
  void EnsureSampled();

  /// Makes the session ready for concurrent const Solve() calls: samples
  /// the pool (if needed), builds every lazily-constructed read-only index,
  /// and caches both greedy orders at the pool budget — the μ̂ (LB) order
  /// with μ̂ and (full pools) Δ̂ of every prefix, and (full pools) the Δ̂
  /// order with Δ̂ of every prefix. Idempotent.
  void Prepare();

  /// Answers `spec` against the prepared pool without touching any
  /// session-owned mutable state: validates, passes the kSolveStart fault
  /// site, then slices the two cached orders. Fails with FailedPrecondition
  /// before Prepare(), and InvalidArgument for a budget outside
  /// [1, budget()], an out-of-range spec.num_threads, or a full-mode request
  /// against an LB pool; an O(k) slice has nothing else to fail on.
  /// `context` is unused; delete it with the next benchmark change.
  StatusOr<BoostResult> Solve(const SolveSpec& spec,
                              SolveContext* context = nullptr) const;

  /// The sampled or adopted pool (valid once prepared()).
  const PrrCollection& collection() const { return *collection_; }
  /// Aggregate sampling statistics of the pool (valid once prepared()).
  const PrrSamplerStats& stats() const { return stats_; }
  /// Whether sampling stopped at BoostOptions::max_samples.
  bool samples_capped() const { return samples_capped_; }
  /// Δ̂ on the pool for any boost set (full mode only).
  double EstimateDelta(const std::vector<NodeId>& boost_set) const;
  /// μ̂ on the pool for any boost set.
  double EstimateMu(const std::vector<NodeId>& boost_set) const;

  /// The largest budget this session can answer (options.k).
  size_t budget() const { return options_.k; }
  bool lb_only() const { return lb_only_; }
  /// Whether the session holds a pool, sampled or adopted from a snapshot.
  bool prepared() const { return sampled_; }
  /// Whether Prepare() has run — the precondition of Solve().
  bool serving_ready() const { return serving_ready_; }

  const DirectedGraph& graph() const { return graph_; }
  const std::vector<NodeId>& seeds() const { return seeds_; }
  const BoostOptions& options() const { return options_; }

  /// The session itself, under the name of the engine it once wrapped:
  /// kbench still calls it. The next benchmark change (ROADMAP item 4)
  /// deletes both overloads.
  BoostSession& engine() { return *this; }
  const BoostSession& engine() const { return *this; }

  /// Pool-snapshot restore (src/io/pool_io): adopts an already-filled pool
  /// and marks sampling done. The session must not have sampled yet.
  void AdoptPool(std::unique_ptr<PrrCollection> collection,
                 const PrrSamplerStats& stats, bool samples_capped);

  /// Pins an external resource to this session's lifetime. The snapshot
  /// loader (src/io/pool_io.h) uses this to keep the bytes a restored pool
  /// aliases alive for as long as the session exists — and, since
  /// BoostService pool entries hold the session by shared_ptr, for as long
  /// as any in-flight request still references it.
  void RetainResource(std::shared_ptr<const void> resource) {
    retained_.push_back(std::move(resource));
  }

  /// Samples (if needed) and snapshots the pool to `path`; convenience for
  /// SavePoolSnapshot (src/io/pool_io.h).
  Status SavePool(const std::string& path);

 private:
  /// The k-prefixes of the cached orders, plus the sandwich compare on full
  /// answers. `lb_answer` selects the LB-slice answer (LB pools, or
  /// SolveMode::kLbOnly on a full pool).
  BoostResult SolvePrepared(size_t k, bool lb_answer) const;

  const DirectedGraph& graph_;
  std::vector<NodeId> seeds_;
  BoostOptions options_;
  bool lb_only_;
  std::vector<uint8_t> excluded_;  // seeds cannot be boosted
  std::unique_ptr<PrrCollection> collection_;
  bool sampled_ = false;
  bool samples_capped_ = false;
  bool serving_ready_ = false;
  PrrSamplerStats stats_;
  PrrCollection::LbResult lb_order_;        // μ̂ greedy order at options_.k
  PrrCollection::DeltaResult delta_order_;  // Δ̂ greedy order (full pools)
  std::vector<std::shared_ptr<const void>> retained_;
};

/// Unused alias: kbench still names the session by the engine class it
/// once wrapped. The next benchmark change (ROADMAP item 4) deletes it.
using PrrBoostEngine = BoostSession;

}  // namespace kboost

#endif  // KBOOST_CORE_BOOST_SESSION_H_
