#ifndef KBOOST_CORE_PRR_BOOST_H_
#define KBOOST_CORE_PRR_BOOST_H_

#include <vector>

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

  /// The budget the IMM schedule sampled the pool at. A session answering
  /// k < pool_budget reuses that pool, so the (1-1/e-ε) constants formally
  /// correspond to pool_budget (selection quality for the smaller budget is
  /// the paper's budget-reuse heuristic).
  size_t pool_budget = 0;

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
};

/// PRR-Boost (Algorithm 2): sandwich approximation over {B_µ, B_Δ}. One
/// BoostSession (src/core/boost_session.h) answering its own budget; a
/// caller with several budgets, or a need for the pool, holds the session.
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
