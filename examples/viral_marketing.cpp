// Viral-marketing scenario: a company has already signed a handful of
// influencers (the seeds). It now has budget for `k` coupons ("boosts").
// This example compares where the k coupons should go: PRR-Boost's picks
// vs the intuitive heuristics the paper evaluates, then explores splitting
// a fixed budget between hiring more influencers and sending more coupons.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/baselines/high_degree.h"
#include "src/baselines/more_seeds.h"
#include "src/baselines/pagerank.h"
#include "src/core/prr_boost.h"
#include "src/expt/budget.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/sim/boost_model.h"
#include "src/util/parse.h"

int main(int argc, char** argv) {
  using namespace kboost;
  double scale = 0.02;
  if (argc > 1) {
    if (Status s = ParseDouble(argv[1], "scale", &scale); !s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
      return 2;
    }
  }
  StatusOr<DatasetSpec> spec = FindDatasetSpec("flixster", scale);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }

  Dataset d = MakeDataset(*spec);
  std::printf("campaign network: %s (n=%zu, m=%zu)\n", d.name.c_str(),
              d.graph.num_nodes(), d.graph.num_edges());

  // The brand has 15 influencers under contract.
  std::vector<NodeId> seeds =
      SelectInfluentialSeeds(d.graph, 15, /*seed=*/2024, /*threads=*/0);
  SimulationOptions sim;
  sim.num_simulations = 5000;
  std::printf("organic reach with 15 influencers: %.1f users\n\n",
              EstimateSpread(d.graph, seeds, sim).mean);

  // ---- Who should get the 60 coupons? -------------------------------------
  const size_t k = 60;
  BoostOptions bopts;
  bopts.k = k;
  auto evaluate = [&](const std::string& name,
                      const std::vector<NodeId>& boost) {
    BoostEstimate e = EstimateBoost(d.graph, seeds, boost, sim);
    std::printf("  %-22s +%.1f users (reach %.1f)\n", name.c_str(), e.boost,
                e.boosted_spread);
    return e.boost;
  };

  std::printf("boost from %zu coupons, by targeting strategy:\n", k);
  BoostResult prr = PrrBoost(d.graph, seeds, bopts);
  evaluate("PRR-Boost", prr.best_set);
  BoostResult lb = PrrBoostLb(d.graph, seeds, bopts);
  evaluate("PRR-Boost-LB", lb.best_set);
  double best_hd = 0;
  std::vector<NodeId> best_hd_set;
  for (const auto& set : HighDegreeGlobalAll(d.graph, seeds, k)) {
    double v = EstimateBoost(d.graph, seeds, set, sim).boost;
    if (v > best_hd) {
      best_hd = v;
      best_hd_set = set;
    }
  }
  evaluate("HighDegree (best of 4)", best_hd_set);
  evaluate("PageRank", PageRankBoost(d.graph, seeds, k));
  ImmOptions mopts;
  mopts.k = k;
  evaluate("MoreSeeds", SelectMoreSeeds(d.graph, seeds, mopts));

  // ---- Budget split: influencers vs coupons -------------------------------
  // Suppose one influencer costs as much as 20 coupons and the total budget
  // equals 20 influencers.
  std::printf("\nbudget split (1 influencer = 20 coupons, budget = 20 "
              "influencers):\n");
  BudgetAllocationOptions opts;
  opts.max_seeds = 20;
  opts.cost_ratios = {20};
  opts.seed_fractions = {0.25, 0.5, 0.75, 1.0};
  opts.sim_options = sim;
  for (const BudgetAllocationPoint& p : RunBudgetAllocation(d.graph, opts)) {
    std::printf("  %3.0f%% on influencers: %2zu influencers + %3zu coupons"
                " -> reach %.1f\n",
                p.seed_fraction * 100, p.num_seeds, p.num_boosted,
                p.boosted_spread);
  }
  std::printf("\nThe mixed allocations illustrate Sec. VII-C: pure seeding "
              "is rarely optimal.\n");
  return 0;
}
