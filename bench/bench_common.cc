#include "bench/bench_common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "src/baselines/high_degree.h"
#include "src/core/boost_session.h"
#include "src/baselines/more_seeds.h"
#include "src/baselines/pagerank.h"
#include "src/expt/seed_selection.h"
#include "src/expt/table_printer.h"
#include "src/sim/boost_model.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace kboost {

size_t SeedCountFor(SeedMode mode, const BenchFlags& flags) {
  // Paper: 50 influential / 500 random; keep the 1:10 ratio and shrink
  // gently with the scale so tiny instances still have usable seed sets.
  const double base = mode == SeedMode::kInfluential ? 50.0 : 500.0;
  if (flags.full) return static_cast<size_t>(base);
  return std::max<size_t>(mode == SeedMode::kInfluential ? 10 : 50,
                          static_cast<size_t>(base * flags.scale * 20));
}

BenchInstance LoadInstance(const std::string& name, SeedMode mode,
                           const BenchFlags& flags, double beta) {
  BenchInstance instance;
  instance.dataset = MakeDataset(SpecByName(name, flags.scale, beta));
  const size_t count =
      std::min(SeedCountFor(mode, flags), instance.dataset.graph.num_nodes() / 4);
  if (mode == SeedMode::kInfluential) {
    instance.seeds = SelectInfluentialSeeds(instance.dataset.graph, count,
                                            flags.seed,
                                            flags.ResolvedThreads());
  } else {
    instance.seeds =
        SelectRandomSeeds(instance.dataset.graph, count, flags.seed);
  }
  return instance;
}

std::vector<size_t> DefaultKSweep(const BenchFlags& flags) {
  if (!flags.ks.empty()) return flags.ks;
  if (flags.full) return {100, 1000, 2000, 5000};
  return {10, 50, 100, 200};
}

BoostOptions MakeBoostOptions(size_t k, const BenchFlags& flags) {
  BoostOptions options;
  options.k = k;
  options.epsilon = flags.epsilon;
  options.seed = flags.seed;
  options.num_threads = flags.ResolvedThreads();
  options.max_samples = flags.max_samples;
  return options;
}

double MeasureBoost(const BenchInstance& instance,
                    const std::vector<NodeId>& boost_set,
                    const BenchFlags& flags) {
  SimulationOptions sim;
  sim.num_simulations = flags.sims;
  sim.num_threads = flags.ResolvedThreads();
  sim.seed = flags.seed;
  return EstimateBoost(instance.dataset.graph, instance.seeds, boost_set, sim)
      .boost;
}

double BestHighDegreeGlobal(const BenchInstance& instance, size_t k,
                            const BenchFlags& flags) {
  double best = 0.0;
  for (const auto& set :
       HighDegreeGlobalAll(instance.dataset.graph, instance.seeds, k)) {
    best = std::max(best, MeasureBoost(instance, set, flags));
  }
  return best;
}

double BestHighDegreeLocal(const BenchInstance& instance, size_t k,
                           const BenchFlags& flags) {
  double best = 0.0;
  for (const auto& set :
       HighDegreeLocalAll(instance.dataset.graph, instance.seeds, k)) {
    best = std::max(best, MeasureBoost(instance, set, flags));
  }
  return best;
}

std::vector<std::vector<NodeId>> PerturbBoostSets(
    const BenchInstance& instance, const std::vector<NodeId>& base_set,
    size_t count, uint64_t seed) {
  const size_t n = instance.dataset.graph.num_nodes();
  std::vector<uint8_t> seed_bm =
      MakeNodeBitmap(n, instance.seeds);
  Rng rng(seed);
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<NodeId> set = base_set;
    if (set.empty()) break;
    // Replace a random number of members with random non-seed outsiders.
    const size_t replace = rng.NextBounded(set.size()) + (i % 2);
    std::vector<uint8_t> in_set = MakeNodeBitmap(n, set);
    for (size_t r = 0; r < replace && r < set.size(); ++r) {
      const size_t pos = rng.NextBounded(set.size());
      for (int attempt = 0; attempt < 64; ++attempt) {
        NodeId candidate = static_cast<NodeId>(rng.NextBounded(n));
        if (!seed_bm[candidate] && !in_set[candidate]) {
          in_set[set[pos]] = 0;
          set[pos] = candidate;
          in_set[candidate] = 1;
          break;
        }
      }
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

namespace {

const char* kAllDatasets[] = {"digg", "flixster", "twitter", "flickr"};

std::string ModeName(SeedMode mode) {
  return mode == SeedMode::kInfluential ? "influential" : "random";
}

}  // namespace

void RunBoostVsK(SeedMode mode, const BenchFlags& flags) {
  TablePrinter table({"dataset", "k", "PRR-Boost", "PRR-Boost-LB",
                      "HighDegGlobal", "HighDegLocal", "PageRank",
                      "MoreSeeds"});
  for (const char* name : kAllDatasets) {
    BenchInstance instance = LoadInstance(name, mode, flags);
    const DirectedGraph& g = instance.dataset.graph;
    std::vector<size_t> sweep;
    for (size_t k : DefaultKSweep(flags)) {
      if (k + instance.seeds.size() < g.num_nodes()) sweep.push_back(k);
    }
    if (sweep.empty()) continue;
    // One session per (dataset, seed set) and mode: the PRR pools are
    // sampled once at the largest k of the sweep; every smaller k is
    // selection-only on the shared pools.
    const size_t k_max = *std::max_element(sweep.begin(), sweep.end());
    BoostSession full_session(g, instance.seeds,
                              MakeBoostOptions(k_max, flags));
    BoostSession lb_session(g, instance.seeds, MakeBoostOptions(k_max, flags),
                            /*lb_only=*/true);
    full_session.Prepare();
    lb_session.Prepare();
    for (size_t k : sweep) {
      BoostResult prr = full_session.Solve({.k = k}).value();
      BoostResult lb = lb_session.Solve({.k = k}).value();
      ImmOptions mopts;
      mopts.k = k;
      mopts.seed = flags.seed;
      mopts.num_threads = flags.ResolvedThreads();
      std::vector<NodeId> more = SelectMoreSeeds(g, instance.seeds, mopts);
      table.AddRow({instance.dataset.name, std::to_string(k),
                    FormatDouble(MeasureBoost(instance, prr.best_set, flags)),
                    FormatDouble(MeasureBoost(instance, lb.best_set, flags)),
                    FormatDouble(BestHighDegreeGlobal(instance, k, flags)),
                    FormatDouble(BestHighDegreeLocal(instance, k, flags)),
                    FormatDouble(MeasureBoost(
                        instance, PageRankBoost(g, instance.seeds, k), flags)),
                    FormatDouble(MeasureBoost(instance, more, flags))});
    }
  }
  table.Print(std::cout);
}

void RunTiming(SeedMode mode, const BenchFlags& flags) {
  TablePrinter table({"dataset", "k", "PRR-Boost(s)", "PRR-Boost-LB(s)",
                      "speedup", "theta", "boostable"});
  for (const char* name : kAllDatasets) {
    BenchInstance instance = LoadInstance(name, mode, flags);
    for (size_t k : DefaultKSweep(flags)) {
      if (k + instance.seeds.size() >= instance.dataset.graph.num_nodes()) {
        continue;
      }
      BoostOptions bopts = MakeBoostOptions(k, flags);
      WallTimer full_timer;
      BoostResult full = PrrBoost(instance.dataset.graph, instance.seeds, bopts);
      const double full_s = full_timer.Seconds();
      WallTimer lb_timer;
      PrrBoostLb(instance.dataset.graph, instance.seeds, bopts);
      const double lb_s = lb_timer.Seconds();
      table.AddRow({instance.dataset.name, std::to_string(k),
                    FormatDouble(full_s, 3), FormatDouble(lb_s, 3),
                    FormatDouble(full_s / std::max(lb_s, 1e-9), 1) + "x",
                    std::to_string(full.num_samples),
                    std::to_string(full.num_boostable)});
    }
  }
  table.Print(std::cout);
}

void RunCompression(SeedMode mode, const BenchFlags& flags) {
  std::vector<size_t> ks = flags.ks;
  if (ks.empty()) ks = flags.full ? std::vector<size_t>{100, 5000}
                                  : std::vector<size_t>{20, 200};
  TablePrinter table({"k", "dataset", "uncompressed", "compressed",
                      "ratio", "full_mem", "lb_mem"});
  for (size_t k : ks) {
    for (const char* name : kAllDatasets) {
      BenchInstance instance = LoadInstance(name, mode, flags);
      if (k + instance.seeds.size() >= instance.dataset.graph.num_nodes()) {
        continue;
      }
      BoostOptions bopts = MakeBoostOptions(k, flags);
      BoostResult full = PrrBoost(instance.dataset.graph, instance.seeds, bopts);
      BoostResult lb = PrrBoostLb(instance.dataset.graph, instance.seeds, bopts);
      table.AddRow({std::to_string(k), instance.dataset.name,
                    FormatDouble(full.avg_uncompressed_edges),
                    FormatDouble(full.avg_compressed_edges),
                    FormatDouble(full.compression_ratio, 1),
                    FormatBytes(full.stored_graph_bytes),
                    FormatBytes(lb.stored_graph_bytes)});
    }
  }
  table.Print(std::cout);
}

void RunSandwich(SeedMode mode, const std::vector<double>& betas,
                 const BenchFlags& flags) {
  std::vector<size_t> ks = flags.ks;
  if (ks.empty()) ks = flags.full ? std::vector<size_t>{100, 1000, 5000}
                                  : std::vector<size_t>{20, 100, 200};
  if (betas.size() > 1) ks = {ks[std::min<size_t>(1, ks.size() - 1)]};
  TablePrinter table({"dataset", "beta", "k", "sets", "min_ratio",
                      "avg_ratio", "delta(Bsa)"});
  for (const char* name : kAllDatasets) {
    for (double beta : betas) {
      BenchInstance instance = LoadInstance(name, mode, flags, beta);
      const DirectedGraph& g = instance.dataset.graph;
      for (size_t k : ks) {
        if (k + instance.seeds.size() >= g.num_nodes()) continue;
        BoostSession session(g, instance.seeds, MakeBoostOptions(k, flags));
        session.Prepare();
        BoostResult result = session.Solve({.k = k}).value();
        const double delta_sa = session.EstimateDelta(result.best_set);
        // 300 perturbed sets, as in the paper; keep those achieving at
        // least half of Δ̂(B_sa).
        auto sets = PerturbBoostSets(instance, result.best_set, 300,
                                     flags.seed + k);
        double min_ratio = 1.0, sum_ratio = 0.0;
        size_t used = 0;
        for (const auto& set : sets) {
          const double delta = session.EstimateDelta(set);
          if (delta < 0.5 * delta_sa || delta <= 0.0) continue;
          const double ratio = session.EstimateMu(set) / delta;
          min_ratio = std::min(min_ratio, ratio);
          sum_ratio += ratio;
          ++used;
        }
        table.AddRow({instance.dataset.name, FormatDouble(beta, 0),
                      std::to_string(k), std::to_string(used),
                      used ? FormatDouble(min_ratio) : "-",
                      used ? FormatDouble(sum_ratio / used) : "-",
                      FormatDouble(delta_sa)});
      }
    }
  }
  table.Print(std::cout);
  std::printf("\n(mode: %s seeds)\n", ModeName(mode).c_str());
}

}  // namespace kboost
