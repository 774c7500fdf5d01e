#include "src/core/prr_boost.h"

#include <string>

#include "src/core/boost_session.h"

namespace kboost {

Status BoostOptions::Validate() const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument("epsilon must be in (0, 1), got " +
                                   std::to_string(epsilon));
  }
  if (!(ell > 0.0)) {
    return Status::InvalidArgument("ell must be > 0, got " +
                                   std::to_string(ell));
  }
  if (num_threads < 1 || num_threads > ThreadPool::kMaxWorkers) {
    return Status::InvalidArgument(
        "num_threads (--threads) must be in [1, " +
        std::to_string(ThreadPool::kMaxWorkers) + "], got " +
        std::to_string(num_threads));
  }
  return Status::Ok();
}

BoostResult PrrBoost(const DirectedGraph& graph,
                     const std::vector<NodeId>& seeds,
                     const BoostOptions& options) {
  BoostSession session(graph, seeds, options, /*lb_only=*/false);
  session.Prepare();
  return session.Solve({.k = options.k}).value();
}

BoostResult PrrBoostLb(const DirectedGraph& graph,
                       const std::vector<NodeId>& seeds,
                       const BoostOptions& options) {
  BoostSession session(graph, seeds, options, /*lb_only=*/true);
  session.Prepare();
  return session.Solve({.k = options.k}).value();
}

}  // namespace kboost
