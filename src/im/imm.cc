#include "src/im/imm.h"

#include <cmath>

#include "src/im/coverage.h"
#include "src/im/rr_set.h"
#include "src/util/logging.h"

namespace kboost {

ImmResult SelectSeedsImm(const DirectedGraph& graph,
                         const ImmOptions& options) {
  const size_t n = graph.num_nodes();
  KB_CHECK(n >= 2);
  KB_CHECK(options.k >= 1 && options.k <= n);

  CoverageSelector selector(n);
  RrSampler sampler(graph, options.seed, options.num_threads);
  auto ensure_samples = [&](size_t target) -> size_t {
    return sampler.EnsureSamples(selector, target);
  };

  auto select_coverage = [&]() -> double {
    return selector.SelectGreedy(options.k).coverage_fraction;
  };

  // IMM's union bound over the ⌈log2 n⌉ phases: ℓ ← ℓ·(1 + log2/log n).
  ImmBounds bounds;
  bounds.epsilon = options.epsilon;
  bounds.ell = options.ell * (1.0 + std::log(2.0) / std::log(static_cast<double>(n)));
  bounds.n = n;
  bounds.k = options.k;

  ImmScheduleResult schedule = RunImmSchedule(
      bounds, ImmScheduleCallbacks{ensure_samples, select_coverage});

  CoverageSelector::Result sel = selector.SelectGreedy(options.k);
  ImmResult result;
  result.seeds = std::move(sel.selected);
  result.estimated_spread = static_cast<double>(n) * sel.coverage_fraction;
  result.num_rr_sets = schedule.num_samples;
  result.edges_examined = sampler.edges_examined();
  return result;
}

}  // namespace kboost
