#ifndef KBOOST_CORE_PRR_BOOST_H_
#define KBOOST_CORE_PRR_BOOST_H_

#include <memory>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_sampler.h"
#include "src/core/solve_context.h"
#include "src/graph/graph.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace kboost {

/// Tunables for PRR-Boost / PRR-Boost-LB (the paper uses ε = 0.5, ℓ = 1).
struct BoostOptions {
  size_t k = 100;       ///< boost-set budget
  double epsilon = 0.5; ///< sampling slack ε
  double ell = 1.0;     ///< success probability 1 - n^-ℓ
  uint64_t seed = 42;
  /// Sampling width: how many workers draw the pool and fill its critical
  /// sets; the pool is bit-identical at every width. A snapshot records it
  /// as provenance only. kbench still sets it, so it stays until the next
  /// benchmark change (ROADMAP item 4) deletes it for DefaultThreadCount().
  int num_threads = DefaultThreadCount();
  /// Hard cap on the PRR-graph pool size θ (0 = no cap). When the IMM
  /// schedule asks for more, sampling stops at the cap and
  /// BoostResult::samples_capped is set; the (1-1/e-ε) guarantee then no
  /// longer formally holds, but selection quality degrades gracefully.
  /// Useful when OPT is tiny relative to n (θ = λ*/OPT explodes).
  size_t max_samples = 0;

  /// The one place option validation lives: k ≥ 1, ε ∈ (0,1), ℓ > 0,
  /// num_threads ∈ [1, ThreadPool::kMaxWorkers]. Fallible entry points
  /// (BoostSession::Create, the CLI's --threads) defer here; the trusting
  /// constructors KB_CHECK the same predicate.
  Status Validate() const;
};

/// What a query wants answered from a prepared pool.
enum class SolveMode {
  /// The pool's native pipeline: sandwich (full pools) or LB (LB pools).
  kAuto = 0,
  /// Force the full sandwich answer; invalid against an LB-only pool.
  kFull,
  /// Answer from the cached μ̂ greedy order only, on any pool including full
  /// ones: B_µ and μ̂(B_µ), with no Δ̂ and no sandwich compare.
  kLbOnly,
};

/// A single budget query against a prepared pool — the request-level knobs
/// of the serving API.
struct SolveSpec {
  size_t k = 0;  ///< budget; must be in [1, pool budget]
  SolveMode mode = SolveMode::kAuto;
  /// Unused: a prepared solve runs on its caller's thread end to end, so
  /// concurrency comes from concurrent queries. Still range-checked (0, or
  /// [1, ThreadPool::kMaxWorkers]) because kbench sets it; delete it with
  /// the next change to the benchmark.
  int num_threads = 0;
};

/// Everything Algorithm 2 produces, plus the statistics the paper reports.
struct BoostResult {
  /// B_sa — the sandwich pick (PRR-Boost) or B_µ (PRR-Boost-LB).
  std::vector<NodeId> best_set;
  /// Δ̂(best_set) in full mode; μ̂(B_µ) in LB mode (Δ̂ needs stored graphs).
  double best_estimate = 0.0;

  std::vector<NodeId> lb_set;      ///< B_µ from NodeSelectionLB
  double lb_mu_hat = 0.0;          ///< μ̂(B_µ)
  double lb_delta_hat = 0.0;       ///< Δ̂(B_µ) (full mode only)
  std::vector<NodeId> delta_set;   ///< B_Δ from NodeSelection (full mode)
  double delta_delta_hat = 0.0;    ///< Δ̂(B_Δ) (full mode only)

  // Pool provenance. `pool_budget` is the budget the IMM schedule sampled
  // the pool at; a BoostSession answering SolveForBudget(k) for k <
  // pool_budget reuses that pool, so the (1-1/e-ε) constants formally
  // correspond to pool_budget (selection quality for the smaller budget is
  // the paper's budget-reuse heuristic). `pool_reused` is set when the call
  // answered from an existing pool without sampling.
  size_t pool_budget = 0;
  bool pool_reused = false;

  // Sampling statistics (Tables 2/3, Figs. 6/11).
  size_t num_samples = 0;    ///< θ
  bool samples_capped = false;  ///< hit BoostOptions::max_samples
  size_t num_boostable = 0;
  size_t num_activated = 0;
  size_t num_hopeless = 0;
  double avg_uncompressed_edges = 0.0;
  double avg_compressed_edges = 0.0;
  double compression_ratio = 0.0;
  size_t stored_graph_bytes = 0;
  size_t edges_examined = 0;
  double sampling_seconds = 0.0;
  double selection_seconds = 0.0;
};

/// Shared machinery behind PRR-Boost and PRR-Boost-LB. Exposed so the
/// experiment harness can reuse the sampled pool (e.g. to evaluate the
/// sandwich ratio μ(B)/Δ_S(B) on perturbed boost sets, Fig. 7/9/12).
class PrrBoostEngine {
 public:
  /// `lb_only` selects the PRR-Boost-LB pipeline: distance-1 sampling and
  /// no stored PRR-graphs.
  PrrBoostEngine(const DirectedGraph& graph, std::vector<NodeId> seeds,
                 const BoostOptions& options, bool lb_only);

  /// Runs SamplingLB (IMM schedule over μ̂), then the node-selection steps,
  /// and returns the assembled result. Idempotent: the pool is sampled once.
  /// Equivalent to SolveForBudget(options.k).
  BoostResult Run();

  /// Samples the pool at options.k via the IMM schedule. Idempotent; called
  /// lazily by SolveForBudget/Run, or eagerly (BoostSession::Prepare).
  void EnsureSampled();

  /// Makes the engine ready for concurrent const Solve() calls: samples the
  /// pool (if needed), builds every lazily-constructed read-only index, and
  /// caches both greedy orders at the pool budget — the μ̂ (LB) order with μ̂
  /// and (full pools) Δ̂ of every prefix, and (full pools) the Δ̂ order with
  /// Δ̂ of every prefix. Idempotent. After Prepare() the engine's query
  /// surface is strictly read-only, which is the thread-safety contract
  /// Solve() relies on, and a solve runs no greedy: it slices the two orders.
  void Prepare();
  /// Whether Prepare() has run (a snapshot-adopted pool still needs it).
  bool serving_ready() const { return serving_ready_; }

  /// Answers the k-boosting problem for any budget k ≤ options.k on the
  /// already-sampled pool — selection only, no resampling. Both greedy
  /// orders are nested in k (round i reads only picks 0..i−1, never k), so
  /// every answer is the k-prefix of the two cached orders plus their cached
  /// prefix estimates; the first call caches them.
  /// The returned result carries pool_budget/pool_reused provenance.
  /// Serial convenience path: samples lazily and KB_CHECKs the budget — NOT
  /// safe to call concurrently.
  BoostResult SolveForBudget(size_t k);

  /// The concurrent serving path: answers `spec` against the prepared pool
  /// without touching any engine-owned mutable state. Any number of threads
  /// may call Solve() simultaneously on one prepared engine, with results
  /// bit-identical to the serial SolveForBudget loop. Validates, passes the
  /// kSolveStart fault site, then slices. Fails with FailedPrecondition
  /// before Prepare(), and InvalidArgument for an out-of-range budget or
  /// spec.num_threads or a full-mode request against an LB pool. `context`
  /// is unused; delete it with the next benchmark change.
  StatusOr<BoostResult> Solve(const SolveSpec& spec,
                              SolveContext* context = nullptr) const;

  /// The sampled pool (valid after Run()).
  const PrrCollection& collection() const { return *collection_; }
  /// Δ̂ on the pool for any boost set (full mode only).
  double EstimateDelta(const std::vector<NodeId>& boost_set) const;
  /// μ̂ on the pool for any boost set.
  double EstimateMu(const std::vector<NodeId>& boost_set) const;

  const DirectedGraph& graph() const { return graph_; }
  const std::vector<NodeId>& seeds() const { return seeds_; }
  const BoostOptions& options() const { return options_; }
  bool lb_only() const { return lb_only_; }
  bool sampled() const { return sampled_; }
  bool samples_capped() const { return samples_capped_; }
  /// Aggregate sampling statistics of the pool (valid once sampled).
  const PrrSamplerStats& stats() const { return stats_; }

  /// Pool-snapshot restore (src/io/pool_io): adopts an already-filled pool
  /// and marks sampling done, so every SolveForBudget answers from it.
  /// The engine must not have sampled yet.
  void AdoptPool(std::unique_ptr<PrrCollection> collection,
                 const PrrSamplerStats& stats, bool samples_capped);

 private:
  /// Caches the two greedy orders at the pool budget (see Prepare()).
  /// Idempotent.
  void CacheGreedyOrders();

  /// The one selection core both solve paths share: slices of the cached
  /// orders, plus the sandwich compare on full answers. Requires a sampled
  /// pool and cached orders; reads them const. `lb_answer` selects the
  /// LB-slice answer (LB pools, or SolveMode::kLbOnly on a full pool).
  /// Timing/provenance fields are left for the caller.
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
  bool orders_ready_ = false;
  PrrCollection::LbResult lb_order_;        // μ̂ greedy order at options_.k
  PrrCollection::DeltaResult delta_order_;  // Δ̂ greedy order (full pools)
};

/// PRR-Boost (Algorithm 2): sandwich approximation over {B_µ, B_Δ}.
/// Returns a (1 − 1/e − ε)·µ(B*)/Δ_S(B*) approximation w.p. ≥ 1 − n^-ℓ.
BoostResult PrrBoost(const DirectedGraph& graph,
                     const std::vector<NodeId>& seeds,
                     const BoostOptions& options);

/// PRR-Boost-LB (Sec. V-C): lower-bound-only variant; same guarantee,
/// faster sampling, much smaller memory footprint.
BoostResult PrrBoostLb(const DirectedGraph& graph,
                       const std::vector<NodeId>& seeds,
                       const BoostOptions& options);

}  // namespace kboost

#endif  // KBOOST_CORE_PRR_BOOST_H_
