#ifndef KBOOST_SIM_BOOST_MODEL_H_
#define KBOOST_SIM_BOOST_MODEL_H_

#include <vector>

#include "src/graph/graph.h"
#include "src/sim/ic_model.h"

namespace kboost {

/// Monte-Carlo estimate of the *boost* Δ_S(B) together with the boosted and
/// base spreads it was derived from.
struct BoostEstimate {
  double boost = 0.0;          ///< E[σ_S(B) − σ_S(∅)], coupled estimator
  double boost_stderr = 0.0;   ///< standard error of `boost`
  double boosted_spread = 0.0; ///< E[σ_S(B)]
  double base_spread = 0.0;    ///< E[σ_S(∅)]
  size_t num_simulations = 0;
};

/// Expected influence spread σ_S(B) under the influence-boosting model
/// (Def. 1): boosted nodes are influenced through incoming edges with
/// p_boost instead of p.
SpreadEstimate EstimateBoostedSpread(const DirectedGraph& graph,
                                     const std::vector<NodeId>& seeds,
                                     const std::vector<NodeId>& boost_set,
                                     const SimulationOptions& options = {});

/// Estimates Δ_S(B) with coupled random worlds: each simulation evaluates
/// the same live-edge world with and without boosting, so the per-sample
/// difference is nonnegative and the estimator's variance is far below that
/// of two independent spread estimates.
BoostEstimate EstimateBoost(const DirectedGraph& graph,
                            const std::vector<NodeId>& seeds,
                            const std::vector<NodeId>& boost_set,
                            const SimulationOptions& options = {});

/// Exact σ_S(B) by exhaustive world enumeration; requires m <= 24 (tests).
double ExactBoostedSpread(const DirectedGraph& graph,
                          const std::vector<NodeId>& seeds,
                          const std::vector<NodeId>& boost_set);

/// Exact Δ_S(B); requires m <= 24 (tests).
double ExactBoost(const DirectedGraph& graph, const std::vector<NodeId>& seeds,
                  const std::vector<NodeId>& boost_set);

/// Expands a node list into an n-sized 0/1 bitmap. Duplicate ids allowed.
std::vector<uint8_t> MakeNodeBitmap(size_t num_nodes,
                                    const std::vector<NodeId>& nodes);

}  // namespace kboost

#endif  // KBOOST_SIM_BOOST_MODEL_H_
