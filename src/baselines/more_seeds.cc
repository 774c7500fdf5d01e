#include "src/baselines/more_seeds.h"

#include <cmath>

#include "src/im/coverage.h"
#include "src/im/rr_set.h"
#include "src/sim/boost_model.h"
#include "src/util/logging.h"

namespace kboost {

std::vector<NodeId> SelectMoreSeeds(const DirectedGraph& graph,
                                    const std::vector<NodeId>& seeds,
                                    const ImmOptions& options) {
  const size_t n = graph.num_nodes();
  KB_CHECK(n >= 2);
  const std::vector<uint8_t> seed_bitmap = MakeNodeBitmap(n, seeds);

  CoverageSelector selector(n);
  // RR sets already hit by the seeds carry zero marginal value: the sampler
  // keeps them in the denominator only.
  RrSampler sampler(graph, options.seed, options.num_threads, &seed_bitmap);
  auto ensure_samples = [&](size_t target) -> size_t {
    return sampler.EnsureSamples(selector, target);
  };
  auto select_coverage = [&]() -> double {
    return selector.SelectGreedy(options.k, &seed_bitmap).coverage_fraction;
  };

  ImmBounds bounds;
  bounds.epsilon = options.epsilon;
  bounds.ell =
      options.ell * (1.0 + std::log(2.0) / std::log(static_cast<double>(n)));
  bounds.n = n;
  bounds.k = options.k;
  RunImmSchedule(bounds,
                 ImmScheduleCallbacks{ensure_samples, select_coverage});

  return selector.SelectGreedy(options.k, &seed_bitmap).selected;
}

}  // namespace kboost
