#include "src/core/boost_session.h"

#include "src/io/pool_io.h"

namespace kboost {

StatusOr<std::unique_ptr<BoostSession>> BoostSession::Create(
    const DirectedGraph& graph, std::vector<NodeId> seeds,
    const BoostOptions& options, bool lb_only) {
  if (Status s = options.Validate(); !s.ok()) return s;
  if (graph.num_nodes() < 2) {
    return Status::InvalidArgument(
        "the boosting problem needs a graph with at least 2 nodes, got " +
        std::to_string(graph.num_nodes()));
  }
  if (seeds.empty()) {
    return Status::InvalidArgument(
        "the k-boosting problem requires a non-empty seed set");
  }
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return Status::OutOfRange("seed " + std::to_string(s) +
                                " out of range for a graph with " +
                                std::to_string(graph.num_nodes()) + " nodes");
    }
  }
  return std::make_unique<BoostSession>(graph, std::move(seeds), options,
                                        lb_only);
}

BoostSession::BoostSession(const DirectedGraph& graph,
                           std::vector<NodeId> seeds,
                           const BoostOptions& options, bool lb_only)
    : engine_(graph, std::move(seeds), options, lb_only) {}

void BoostSession::Prepare() { engine_.Prepare(); }

BoostResult BoostSession::SolveForBudget(size_t k) {
  return engine_.SolveForBudget(k);
}

Status BoostSession::SavePool(const std::string& path) {
  engine_.EnsureSampled();
  return SavePoolSnapshot(*this, path, PoolSaveOptions{}).status();
}

}  // namespace kboost
