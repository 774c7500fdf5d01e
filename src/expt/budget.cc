#include "src/expt/budget.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "src/core/boost_session.h"
#include "src/expt/seed_selection.h"
#include "src/sim/boost_model.h"
#include "src/util/logging.h"

namespace kboost {

std::vector<BudgetAllocationPoint> RunBudgetAllocation(
    const DirectedGraph& graph, const BudgetAllocationOptions& options) {
  KB_CHECK(!options.cost_ratios.empty());
  const size_t num_ratios = options.cost_ratios.size();
  std::vector<std::vector<BudgetAllocationPoint>> by_ratio(num_ratios);

  for (double fraction : options.seed_fractions) {
    KB_CHECK(fraction > 0.0 && fraction <= 1.0);
    const size_t num_seeds = std::max<size_t>(
        1, static_cast<size_t>(std::lround(fraction * options.max_seeds)));
    const double leftover =
        static_cast<double>(options.max_seeds - num_seeds);

    std::vector<size_t> budgets(num_ratios);
    size_t budget_max = 0;
    for (size_t r = 0; r < num_ratios; ++r) {
      budgets[r] = static_cast<size_t>(
          std::lround(leftover * options.cost_ratios[r]));
      budget_max = std::max(budget_max, budgets[r]);
    }

    std::vector<NodeId> seeds = SelectInfluentialSeeds(
        graph, num_seeds, options.boost_options.seed,
        options.boost_options.num_threads);

    // One session per (graph, seed set): the PRR pool is sampled once at
    // the largest boosting budget any cost ratio needs; each ratio's boost
    // set is then selection-only on that shared pool.
    std::unique_ptr<BoostSession> session;
    if (budget_max > 0) {
      BoostOptions bopts = options.boost_options;
      bopts.k = budget_max;
      session = std::make_unique<BoostSession>(graph, seeds, bopts);
      session->Prepare();
    }

    for (size_t r = 0; r < num_ratios; ++r) {
      BudgetAllocationPoint point;
      point.cost_ratio = options.cost_ratios[r];
      point.seed_fraction = fraction;
      point.num_seeds = num_seeds;
      point.num_boosted = budgets[r];
      std::vector<NodeId> boosted;
      if (point.num_boosted > 0) {
        boosted = session->Solve({.k = point.num_boosted}).value().best_set;
      }
      point.boosted_spread =
          EstimateBoostedSpread(graph, seeds, boosted, options.sim_options)
              .mean;
      by_ratio[r].push_back(point);
    }
  }

  std::vector<BudgetAllocationPoint> points;
  for (std::vector<BudgetAllocationPoint>& ratio_points : by_ratio) {
    points.insert(points.end(), ratio_points.begin(), ratio_points.end());
  }
  return points;
}

}  // namespace kboost
