#ifndef KBOOST_BENCH_BENCH_FLAGS_H_
#define KBOOST_BENCH_BENCH_FLAGS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kboost {

/// Command-line knobs shared by every figure/table harness. Defaults are
/// laptop-friendly (scaled-down datasets, fewer Monte-Carlo evaluations);
/// `--full` switches to paper-scale sizes where runtimes permit.
struct BenchFlags {
  double scale = 0.02;   ///< dataset size relative to the paper's (Table 1)
  size_t sims = 2000;    ///< Monte-Carlo evaluations (paper: 20,000)
  int threads = 0;       ///< 0 = hardware concurrency (paper: 8)
  double epsilon = 0.5;  ///< PRR-Boost ε (paper: 0.5)
  uint64_t seed = 42;
  bool full = false;     ///< paper-scale mode
  /// Cap on the PRR-graph pool per run (see BoostOptions::max_samples);
  /// keeps low-OPT instances (flickr stand-in) from exploding θ = λ*/OPT.
  size_t max_samples = 1'000'000;
  std::vector<size_t> ks;  ///< override for k sweeps (--k=10,50,100)

  int ResolvedThreads() const;
};

/// Parses --scale= --sims= --threads= --epsilon= --seed= --max-samples=
/// --k=a,b,c --full, each value strictly (kboost::ParseUint64/ParseDouble)
/// and range-checked. Prints usage and exits 0 on --help, 2 on an unknown
/// flag or a bad value.
BenchFlags ParseBenchFlags(int argc, char** argv);

/// Prints the standard harness banner: what experiment this regenerates and
/// which qualitative shape from the paper it should reproduce.
void PrintBanner(const std::string& experiment, const std::string& shape,
                 const BenchFlags& flags);

}  // namespace kboost

#endif  // KBOOST_BENCH_BENCH_FLAGS_H_
