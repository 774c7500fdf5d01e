#include "src/core/boost_session.h"

#include <algorithm>
#include <cmath>

#include "src/io/pool_io.h"
#include "src/select/imm_schedule.h"
#include "src/sim/boost_model.h"
#include "src/util/fault.h"
#include "src/util/logging.h"

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
    : graph_(graph),
      seeds_(std::move(seeds)),
      options_(options),
      lb_only_(lb_only) {
  KB_CHECK(graph_.num_nodes() >= 2);
  KB_CHECK(options_.Validate().ok()) << options_.Validate().ToString();
  KB_CHECK(!seeds_.empty()) << "the k-boosting problem requires seeds";
  excluded_ = MakeNodeBitmap(graph_.num_nodes(), seeds_);
  collection_ = std::make_unique<PrrCollection>(graph_.num_nodes());
}

void BoostSession::EnsureSampled() {
  if (sampled_) return;
  const size_t n = graph_.num_nodes();
  // Algorithm 2 line 1: ℓ' = ℓ(1 + log3 / log n) so that the three failure
  // events (sampling, LB selection, sandwich comparison) union-bound.
  ImmBounds bounds;
  bounds.epsilon = options_.epsilon;
  bounds.ell = options_.ell *
               (1.0 + std::log(3.0) / std::log(static_cast<double>(n)));
  bounds.n = n;
  bounds.k = options_.k;

  // The sampler lives only as long as the schedule: its per-worker
  // generators and chunk arenas are scratch, not part of the pool.
  PrrSampler sampler(graph_, seeds_, options_.k, lb_only_, options_.seed,
                     options_.num_threads);
  ImmScheduleCallbacks callbacks;
  callbacks.ensure_samples = [&](size_t target) {
    if (options_.max_samples > 0 && target > options_.max_samples) {
      target = options_.max_samples;
      samples_capped_ = true;
    }
    return sampler.EnsureSamples(*collection_, target);
  };
  callbacks.select_coverage = [&]() {
    return collection_->coverage()
        .SelectGreedy(options_.k, &excluded_)
        .coverage_fraction;
  };
  RunImmSchedule(bounds, callbacks);
  stats_ = sampler.stats();
  sampled_ = true;
}

void BoostSession::AdoptPool(std::unique_ptr<PrrCollection> collection,
                             const PrrSamplerStats& stats,
                             bool samples_capped) {
  KB_CHECK(!sampled_) << "cannot adopt a pool after sampling";
  KB_CHECK(collection != nullptr &&
           collection->num_graph_nodes() == graph_.num_nodes());
  collection_ = std::move(collection);
  stats_ = stats;
  samples_capped_ = samples_capped;
  sampled_ = true;
}

void BoostSession::Prepare() {
  if (serving_ready_) return;
  EnsureSampled();
  // Concurrent const Solve() calls must never take a lazy-build path: warm
  // every inverted index and cache both greedy orders with their prefix
  // estimates now, while this thread still has the session exclusively.
  collection_->WarmIndexes();
  // NodeSelectionLB at the full pool budget: maximize μ̂ by greedy
  // max-coverage over critical sets. Every smaller budget's LB answer is a
  // prefix of it.
  lb_order_ = collection_->SelectGreedyLowerBound(options_.k, excluded_);
  if (!lb_only_) {
    // Δ̂ of every LB prefix in one pass, so the sandwich compare reads Δ̂(B_µ)
    // instead of re-evaluating the pool.
    lb_order_.prefix_delta_hat = collection_->PrefixDeltaHat(lb_order_.nodes);
    // NodeSelection at the full pool budget: greedy on Δ̂ directly. It is
    // nested in k too (see SelectGreedyDelta), so this one run answers
    // every budget.
    delta_order_ = collection_->SelectGreedyDelta(options_.k, excluded_);
  }
  serving_ready_ = true;
}

BoostResult BoostSession::SolvePrepared(size_t k, bool lb_answer) const {
  BoostResult result;
  result.pool_budget = options_.k;

  const size_t take = std::min(k, lb_order_.nodes.size());
  result.lb_set.assign(lb_order_.nodes.begin(), lb_order_.nodes.begin() + take);
  result.lb_mu_hat = take > 0 ? lb_order_.prefix_mu_hat[take - 1] : 0.0;

  if (lb_answer) {
    result.best_set = result.lb_set;
    result.best_estimate = result.lb_mu_hat;
  } else {
    // NodeSelection's answer, B_Δ: the k-prefix of the cached Δ̂ order.
    const size_t take_delta = std::min(k, delta_order_.nodes.size());
    result.delta_set.assign(delta_order_.nodes.begin(),
                            delta_order_.nodes.begin() + take_delta);
    result.delta_delta_hat =
        take_delta > 0 ? delta_order_.prefix_delta_hat[take_delta - 1] : 0.0;
    result.lb_delta_hat =
        take > 0 ? lb_order_.prefix_delta_hat[take - 1] : 0.0;
    // Sandwich pick: the better of B_µ and B_Δ under Δ̂ (Alg. 2 line 5).
    if (result.lb_delta_hat >= result.delta_delta_hat) {
      result.best_set = result.lb_set;
      result.best_estimate = result.lb_delta_hat;
    } else {
      result.best_set = result.delta_set;
      result.best_estimate = result.delta_delta_hat;
    }
  }

  // Statistics.
  result.num_samples = collection_->num_samples();
  result.samples_capped = samples_capped_;
  result.num_boostable = collection_->num_boostable();
  result.num_activated = collection_->num_activated();
  result.num_hopeless = collection_->num_hopeless();
  result.edges_examined = stats_.edges_examined;
  result.stored_graph_bytes = collection_->StoredGraphBytes();
  if (result.num_boostable > 0) {
    result.avg_uncompressed_edges =
        static_cast<double>(stats_.uncompressed_edges) /
        static_cast<double>(result.num_boostable);
    result.avg_compressed_edges =
        static_cast<double>(stats_.compressed_edges) /
        static_cast<double>(result.num_boostable);
    if (result.avg_compressed_edges > 0) {
      result.compression_ratio =
          result.avg_uncompressed_edges / result.avg_compressed_edges;
    }
  }
  return result;
}

StatusOr<BoostResult> BoostSession::Solve(const SolveSpec& spec,
                                          SolveContext* /*context*/) const {
  if (!serving_ready_) {
    return Status::FailedPrecondition(
        "pool is not prepared for serving; call Prepare() first");
  }
  if (spec.k < 1 || spec.k > options_.k) {
    return Status::InvalidArgument(
        "budget " + std::to_string(spec.k) + " outside the pool's range [1, " +
        std::to_string(options_.k) + "]");
  }
  bool lb_answer = lb_only_;
  switch (spec.mode) {
    case SolveMode::kAuto:
      break;
    case SolveMode::kLbOnly:
      lb_answer = true;
      break;
    case SolveMode::kFull:
      if (lb_only_) {
        return Status::InvalidArgument(
            "full-mode request against an LB-only pool (Δ̂ needs stored "
            "PRR-graphs)");
      }
      break;
  }
  if (spec.num_threads < 0 || spec.num_threads > ThreadPool::kMaxWorkers) {
    return Status::InvalidArgument(
        "request num_threads must be 0 or in [1, " +
        std::to_string(ThreadPool::kMaxWorkers) + "], got " +
        std::to_string(spec.num_threads));
  }
  MaybeInjectFaultDelay(FaultSite::kSolveStart);
  return SolvePrepared(spec.k, lb_answer);
}

double BoostSession::EstimateDelta(const std::vector<NodeId>& boost_set) const {
  KB_CHECK(!lb_only_) << "Δ̂ needs stored PRR-graphs (full mode)";
  return collection_->EstimateDelta(boost_set);
}

double BoostSession::EstimateMu(const std::vector<NodeId>& boost_set) const {
  return collection_->EstimateMu(boost_set);
}

Status BoostSession::SavePool(const std::string& path) {
  EnsureSampled();
  return SavePoolSnapshot(*this, path, PoolSaveOptions{}).status();
}

}  // namespace kboost
