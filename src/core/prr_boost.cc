#include "src/core/prr_boost.h"

#include <algorithm>
#include <cmath>

#include "src/im/imm.h"
#include "src/sim/boost_model.h"
#include "src/util/fault.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

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
  if (num_shards < 1 || num_shards > PrrCollection::kMaxShards) {
    return Status::InvalidArgument(
        "num_shards (--shards) must be in [1, " +
        std::to_string(PrrCollection::kMaxShards) + "], got " +
        std::to_string(num_shards));
  }
  return Status::Ok();
}

PrrBoostEngine::PrrBoostEngine(const DirectedGraph& graph,
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
  collection_ = std::make_unique<PrrCollection>(graph_.num_nodes(),
                                                options_.num_shards);
  sampler_ = std::make_unique<PrrSampler>(graph_, seeds_, options_.k,
                                          lb_only_, options_.seed,
                                          options_.num_threads);
}

void PrrBoostEngine::EnsureSampled() {
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

  ImmScheduleCallbacks callbacks;
  callbacks.ensure_samples = [&](size_t target) {
    if (options_.max_samples > 0 && target > options_.max_samples) {
      target = options_.max_samples;
      samples_capped_ = true;
    }
    return sampler_->EnsureSamples(*collection_, target);
  };
  callbacks.select_coverage = [&]() {
    return collection_->coverage()
        .SelectGreedy(options_.k, &excluded_)
        .coverage_fraction;
  };
  RunImmSchedule(bounds, callbacks);
  stats_ = sampler_->stats();
  sampled_ = true;
}

void PrrBoostEngine::AdoptPool(std::unique_ptr<PrrCollection> collection,
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

const PrrCollection::LbResult& PrrBoostEngine::LbGreedyOrder() {
  if (!lb_order_ready_) {
    // NodeSelectionLB at the full pool budget: maximize μ̂ by greedy
    // max-coverage over critical sets. Computed once; nested budgets slice.
    lb_order_ = collection_->SelectGreedyLowerBound(options_.k, excluded_);
    // Δ̂ of every prefix in one pass, so a full solve's sandwich compare
    // reads Δ̂(B_µ) instead of re-evaluating the pool.
    if (!lb_only_) {
      lb_order_.prefix_delta_hat = collection_->PrefixDeltaHat(
          lb_order_.nodes, options_.num_threads);
    }
    lb_order_ready_ = true;
  }
  return lb_order_;
}

BoostResult PrrBoostEngine::Run() { return SolveForBudget(options_.k); }

void PrrBoostEngine::Prepare() {
  if (serving_ready_) return;
  EnsureSampled();
  // Concurrent const Solve() calls must never take a lazy-build path: warm
  // every inverted index (per-shard builds fan out over the workers) and
  // cache the LB greedy order with its prefix estimates now, while this
  // thread still has the engine exclusively.
  collection_->WarmIndexes(options_.num_threads);
  LbGreedyOrder();
  serving_ready_ = true;
}

BoostResult PrrBoostEngine::SolvePrepared(size_t k, bool lb_answer,
                                          ShardedEvalState* eval_state,
                                          StopToken* stop) const {
  KB_DCHECK(sampled_ && lb_order_ready_);
  BoostResult result;
  result.pool_budget = options_.k;

  const size_t take = std::min(k, lb_order_.nodes.size());
  result.lb_set.assign(lb_order_.nodes.begin(), lb_order_.nodes.begin() + take);
  result.lb_mu_hat = take > 0 ? lb_order_.prefix_mu_hat[take - 1] : 0.0;

  if (lb_answer) {
    result.best_set = result.lb_set;
    result.best_estimate = result.lb_mu_hat;
  } else {
    // NodeSelection: greedy on Δ̂ directly, reusing the same pool. Not
    // nested in k (Δ̂ gains are non-monotone), so selection re-runs per k.
    // The LB order's prefix pass already built the indexes, so nothing here
    // forks.
    PrrCollection::DeltaResult dr = collection_->SelectGreedyDelta(
        k, excluded_, /*num_threads=*/1, eval_state, stop);
    if (dr.cancelled || dr.deadline_exceeded) return result;
    result.delta_set = std::move(dr.nodes);
    result.delta_delta_hat = dr.delta_hat;
    // The solve's last deadline check: when the Δ̂ heap starts empty the
    // greedy never polls, so without it a deadline that passed after entry
    // would go unnoticed.
    if (stop != nullptr && stop->ShouldStop()) return result;
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

BoostResult PrrBoostEngine::SolveForBudget(size_t k) {
  KB_CHECK(k >= 1 && k <= options_.k)
      << "budget " << k << " exceeds the pool's sampling budget "
      << options_.k;
  const bool had_pool = sampled_;
  WallTimer sampling_timer;
  EnsureSampled();
  const double sampling_seconds = sampling_timer.Seconds();

  WallTimer selection_timer;
  LbGreedyOrder();
  BoostResult result = SolvePrepared(k, lb_only_, &serial_context_.eval_state,
                                     /*stop=*/nullptr);
  result.sampling_seconds = sampling_seconds;
  result.pool_reused = had_pool;
  result.selection_seconds = selection_timer.Seconds();
  return result;
}

StatusOr<BoostResult> PrrBoostEngine::Solve(const SolveSpec& spec,
                                            SolveContext* context) const {
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
  StopToken stop(spec.cancel, spec.deadline_ns);
  if (stop.ShouldStop()) {
    return stop.cancelled()
               ? Status::Cancelled("request cancelled before selection started")
               : Status::DeadlineExceeded(
                     "request deadline passed before selection started");
  }
  MaybeInjectFaultDelay(FaultSite::kSolveStart);

  WallTimer selection_timer;
  BoostResult result =
      SolvePrepared(spec.k, lb_answer,
                    context != nullptr ? &context->eval_state : nullptr, &stop);
  if (stop.cancelled()) {
    return Status::Cancelled("request cancelled during selection");
  }
  if (stop.deadline_exceeded()) {
    return Status::DeadlineExceeded("request deadline passed mid-selection");
  }
  result.pool_reused = true;
  result.selection_seconds = selection_timer.Seconds();
  return result;
}

Status PrrBoostEngine::set_num_threads(int num_threads) {
  BoostOptions probe = options_;
  probe.num_threads = num_threads;
  if (Status s = probe.Validate(); !s.ok()) return s;
  options_.num_threads = num_threads;
  return Status::Ok();
}

double PrrBoostEngine::EstimateDelta(
    const std::vector<NodeId>& boost_set) const {
  KB_CHECK(!lb_only_) << "Δ̂ needs stored PRR-graphs (full mode)";
  return collection_->EstimateDelta(boost_set, options_.num_threads);
}

double PrrBoostEngine::EstimateMu(const std::vector<NodeId>& boost_set) const {
  return collection_->EstimateMu(boost_set);
}

BoostResult PrrBoost(const DirectedGraph& graph,
                     const std::vector<NodeId>& seeds,
                     const BoostOptions& options) {
  PrrBoostEngine engine(graph, seeds, options, /*lb_only=*/false);
  return engine.Run();
}

BoostResult PrrBoostLb(const DirectedGraph& graph,
                       const std::vector<NodeId>& seeds,
                       const BoostOptions& options) {
  PrrBoostEngine engine(graph, seeds, options, /*lb_only=*/true);
  return engine.Run();
}

}  // namespace kboost
