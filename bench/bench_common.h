#ifndef KBOOST_BENCH_BENCH_COMMON_H_
#define KBOOST_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/core/prr_boost.h"
#include "src/expt/datasets.h"
#include "src/graph/graph.h"

namespace kboost {

/// How the fixed seed set of an experiment is chosen (Sec. VII-A vs VII-B).
enum class SeedMode { kInfluential, kRandom };

/// A dataset together with its experiment seed set.
struct BenchInstance {
  Dataset dataset;
  std::vector<NodeId> seeds;
};

/// Loads the named stand-in dataset and picks the mode's seed set sized per
/// the paper (50 influential / 500 random), scaled alongside the graph.
BenchInstance LoadInstance(const std::string& name, SeedMode mode,
                           const BenchFlags& flags, double beta = 2.0);

/// The number of seeds the mode uses at this scale.
size_t SeedCountFor(SeedMode mode, const BenchFlags& flags);

/// Default k sweep for boost-vs-k figures, scaled from the paper's
/// 100..5000 range; overridden by --k.
std::vector<size_t> DefaultKSweep(const BenchFlags& flags);

/// Monte-Carlo Δ_S(B) with the bench's simulation settings.
double MeasureBoost(const BenchInstance& instance,
                    const std::vector<NodeId>& boost_set,
                    const BenchFlags& flags);

/// Best measured boost across the four HighDegreeGlobal (resp. Local)
/// candidate sets — the paper reports the max over the four definitions.
double BestHighDegreeGlobal(const BenchInstance& instance, size_t k,
                            const BenchFlags& flags);
double BestHighDegreeLocal(const BenchInstance& instance, size_t k,
                           const BenchFlags& flags);

/// BoostOptions prefilled from flags.
BoostOptions MakeBoostOptions(size_t k, const BenchFlags& flags);

/// Generates `count` perturbations of `base_set` (random subsets replaced by
/// other non-seed nodes) for the sandwich-ratio experiments (Figs. 7/9/12).
std::vector<std::vector<NodeId>> PerturbBoostSets(
    const BenchInstance& instance, const std::vector<NodeId>& base_set,
    size_t count, uint64_t seed);

// ---- Shared figure/table drivers (each figure pair differs only in the
// seed mode, exactly as Secs. VII-A and VII-B do) --------------------------

/// Figs. 5/10: boost of influence vs k for all six algorithms.
void RunBoostVsK(SeedMode mode, const BenchFlags& flags);
/// Figs. 6/11: running time of PRR-Boost vs PRR-Boost-LB.
void RunTiming(SeedMode mode, const BenchFlags& flags);
/// Tables 2/3: compression ratio and PRR-graph memory.
void RunCompression(SeedMode mode, const BenchFlags& flags);
/// Figs. 7/9/12: sandwich-approximation ratio μ̂(B)/Δ̂(B) on perturbed sets,
/// for each (dataset, k or beta) row.
void RunSandwich(SeedMode mode, const std::vector<double>& betas,
                 const BenchFlags& flags);

}  // namespace kboost

#endif  // KBOOST_BENCH_BENCH_COMMON_H_
