#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "src/baselines/high_degree.h"
#include "src/baselines/more_seeds.h"
#include "src/baselines/pagerank.h"
#include "src/core/prr_boost.h"
#include "src/expt/budget.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/expt/table_printer.h"
#include "src/sim/boost_model.h"

namespace kboost {
namespace {

TEST(DatasetsTest, SpecsMatchPaperShapes) {
  auto specs = PaperDatasetSpecs(0.01);
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "digg");
  EXPECT_EQ(specs[3].name, "flickr");
  // Twitter is the densest, flickr the sparsest in probability.
  EXPECT_GT(specs[2].avg_probability, 0.5);
  EXPECT_LT(specs[3].avg_probability, 0.05);
}

TEST(DatasetsTest, CalibratedMeanIsHit) {
  for (double target : {0.013, 0.228, 0.239, 0.608}) {
    double m = CalibrateExponentialMean(target);
    double realized = m * (1.0 - std::exp(-1.0 / m));
    EXPECT_NEAR(realized, target, 1e-6);
  }
  DatasetSpec spec = SpecByName("twitter", 0.005);
  Dataset d = MakeDataset(spec);
  EXPECT_NEAR(d.graph.AverageProbability(), spec.avg_probability, 0.03);
}

TEST(DatasetsTest, ScaleControlsSize) {
  Dataset small = MakeDataset(SpecByName("digg", 0.005));
  Dataset big = MakeDataset(SpecByName("digg", 0.02));
  EXPECT_LT(small.graph.num_nodes(), big.graph.num_nodes());
  EXPECT_LT(small.graph.num_edges(), big.graph.num_edges());
}

TEST(DatasetsTest, FindDatasetSpecRejectsBadInputTyped) {
  StatusOr<DatasetSpec> twitter = FindDatasetSpec("twitter", 0.005, 3.0);
  ASSERT_TRUE(twitter.ok()) << twitter.status().ToString();
  EXPECT_EQ(twitter->name, "twitter");
  EXPECT_EQ(twitter->num_nodes, SpecByName("twitter", 0.005).num_nodes);
  EXPECT_EQ(twitter->beta, 3.0);
  EXPECT_TRUE(FindDatasetSpec("flickr", 1.0, 1.0).ok());
  for (const auto& [name, scale, beta] :
       std::vector<std::tuple<std::string, double, double>>{
           {"nope", 0.01, 2.0},
           {"digg", 0.0, 2.0},
           {"digg", 1.5, 2.0},
           {"digg", std::nan(""), 2.0},
           {"digg", 0.01, 0.5},
           {"digg", 0.01, std::nan("")}}) {
    SCOPED_TRACE(name + " scale=" + std::to_string(scale) +
                 " beta=" + std::to_string(beta));
    EXPECT_EQ(FindDatasetSpec(name, scale, beta).status().code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_TRUE(ValidateDatasetParams(0.02).ok());
  EXPECT_FALSE(ValidateDatasetParams(2.0).ok());
}

TEST(SeedSelectionTest, InfluentialBeatsRandomSeeds) {
  Dataset d = MakeDataset(SpecByName("digg", 0.02));
  auto influential = SelectInfluentialSeeds(d.graph, 10, 1, 4);
  auto random = SelectRandomSeeds(d.graph, 10, 1);
  SimulationOptions sim;
  sim.num_simulations = 3000;
  double si = EstimateSpread(d.graph, influential, sim).mean;
  double sr = EstimateSpread(d.graph, random, sim).mean;
  EXPECT_GT(si, sr);
}

TEST(SeedSelectionTest, RandomSeedsAreDistinct) {
  Dataset d = MakeDataset(SpecByName("digg", 0.01));
  auto seeds = SelectRandomSeeds(d.graph, 50, 3);
  std::vector<NodeId> sorted = seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(IntegrationTest, PrrBoostBeatsBaselinesOnSyntheticDigg) {
  // The paper's headline qualitative claim (Figs. 5/10): PRR-Boost and
  // PRR-Boost-LB dominate the heuristic baselines.
  Dataset d = MakeDataset(SpecByName("digg", 0.02));
  auto seeds = SelectInfluentialSeeds(d.graph, 10, 7, 4);
  const size_t k = 30;

  BoostOptions bopts;
  bopts.k = k;
  bopts.num_threads = 4;
  BoostResult prr = PrrBoost(d.graph, seeds, bopts);
  BoostResult prr_lb = PrrBoostLb(d.graph, seeds, bopts);

  SimulationOptions sim;
  sim.num_simulations = 8000;
  sim.num_threads = 4;
  auto value = [&](const std::vector<NodeId>& set) {
    return EstimateBoost(d.graph, seeds, set, sim).boost;
  };

  const double v_prr = value(prr.best_set);
  const double v_lb = value(prr_lb.best_set);

  double v_hd = 0;
  for (const auto& set : HighDegreeGlobalAll(d.graph, seeds, k)) {
    v_hd = std::max(v_hd, value(set));
  }
  const double v_pr = value(PageRankBoost(d.graph, seeds, k));
  ImmOptions mopts;
  mopts.k = k;
  const double v_ms = value(SelectMoreSeeds(d.graph, seeds, mopts));

  EXPECT_GT(v_prr, 0.0);
  // PRR-Boost wins (small tolerance: baselines may tie on tiny instances).
  EXPECT_GE(v_prr * 1.10, v_hd);
  EXPECT_GE(v_prr * 1.10, v_pr);
  EXPECT_GE(v_prr * 1.10, v_ms);
  // LB variant is comparable to the full algorithm (paper: "slightly lower
  // but comparable quality").
  EXPECT_GE(v_lb, 0.6 * v_prr);
}

TEST(IntegrationTest, MoreSeedsIsAWeakBoostChoice) {
  // Sec. III-A: nodes that are great *additional seeds* can be poor
  // *boosts*. MoreSeeds should lose to PRR-Boost under boosting semantics.
  Dataset d = MakeDataset(SpecByName("flixster", 0.01));
  auto seeds = SelectInfluentialSeeds(d.graph, 10, 3, 4);
  BoostOptions bopts;
  bopts.k = 20;
  BoostResult prr = PrrBoost(d.graph, seeds, bopts);
  ImmOptions mopts;
  mopts.k = 20;
  auto more = SelectMoreSeeds(d.graph, seeds, mopts);
  SimulationOptions sim;
  sim.num_simulations = 8000;
  double v_prr = EstimateBoost(d.graph, seeds, prr.best_set, sim).boost;
  double v_ms = EstimateBoost(d.graph, seeds, more, sim).boost;
  EXPECT_GE(v_prr * 1.05, v_ms);
}

TEST(BudgetAllocationTest, ProducesOnePointPerFraction) {
  Dataset d = MakeDataset(SpecByName("digg", 0.01));
  BudgetAllocationOptions opts;
  opts.max_seeds = 10;
  opts.cost_ratios = {10};
  opts.seed_fractions = {0.5, 1.0};
  opts.boost_options.num_threads = 4;
  opts.sim_options.num_simulations = 2000;
  auto points = RunBudgetAllocation(d.graph, opts);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].num_seeds, 5u);
  EXPECT_EQ(points[0].num_boosted, 50u);
  EXPECT_EQ(points[1].num_seeds, 10u);
  EXPECT_EQ(points[1].num_boosted, 0u);
  for (const auto& p : points) EXPECT_GT(p.boosted_spread, 0.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xx", "1"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatSeconds(0.05), "50.0ms");
  EXPECT_EQ(FormatSeconds(2.5), "2.50s");
  EXPECT_EQ(FormatBytes(1500), "1.5KB");
  EXPECT_EQ(FormatBytes(2500000), "2.50MB");
}

}  // namespace
}  // namespace kboost
