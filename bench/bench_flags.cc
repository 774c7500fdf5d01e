#include "bench/bench_flags.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/expt/datasets.h"
#include "src/util/parse.h"
#include "src/util/thread_pool.h"

namespace kboost {

int BenchFlags::ResolvedThreads() const {
  return threads > 0 ? threads : DefaultThreadCount();
}

namespace {

[[noreturn]] void UsageAndExit(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [--scale=F] [--sims=N] [--threads=N] [--epsilon=F]\n"
      "          [--seed=N] [--max-samples=N] [--k=a,b,c] [--full]\n"
      "  --scale        dataset size relative to the paper's, in (0, 1]\n"
      "                 (default 0.02)\n"
      "  --sims         Monte-Carlo evaluations per point, >= 1 (default "
      "2000)\n"
      "  --threads      workers, 0 = hardware concurrency (default 0)\n"
      "  --epsilon      PRR-Boost epsilon, in (0, 1) (default 0.5)\n"
      "  --max-samples  cap on the PRR-graph pool, 0 = none (default "
      "1000000)\n"
      "  --k            budgets to sweep, each >= 1\n"
      "  --full         paper-scale sizes and 20000 simulations\n",
      argv0);
  std::exit(code);
}

/// The value of `arg` when it is `name` followed by '=', else nullptr.
const char* ValueOf(const char* arg, const char* name) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return nullptr;
  return arg + len + 1;
}

/// Exits 2 with `status` and the usage text unless it is Ok.
void OrExit(const Status& status, const char* argv0) {
  if (status.ok()) return;
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  UsageAndExit(argv0, 2);
}

/// Exits 2 with the usage text unless `in_range` holds for `name`'s value.
void CheckRange(bool in_range, const char* name, const std::string& range,
                const char* argv0) {
  if (in_range) return;
  std::fprintf(stderr, "error: %s must be %s\n", name, range.c_str());
  UsageAndExit(argv0, 2);
}

}  // namespace

BenchFlags ParseBenchFlags(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t u64 = 0;
    const char* v = nullptr;
    if ((v = ValueOf(arg, "--scale")) != nullptr) {
      OrExit(ParseDouble(v, "--scale", &flags.scale), argv[0]);
      OrExit(ValidateDatasetParams(flags.scale), argv[0]);
    } else if ((v = ValueOf(arg, "--epsilon")) != nullptr) {
      OrExit(ParseDouble(v, "--epsilon", &flags.epsilon), argv[0]);
      CheckRange(flags.epsilon > 0.0 && flags.epsilon < 1.0, "--epsilon",
                 "in (0, 1)", argv[0]);
    } else if ((v = ValueOf(arg, "--sims")) != nullptr) {
      OrExit(ParseUint64(v, "--sims", &u64), argv[0]);
      CheckRange(u64 >= 1, "--sims", ">= 1", argv[0]);
      flags.sims = u64;
    } else if ((v = ValueOf(arg, "--threads")) != nullptr) {
      OrExit(ParseUint64(v, "--threads", &u64), argv[0]);
      CheckRange(u64 <= ThreadPool::kMaxWorkers, "--threads",
                 "in [0, " + std::to_string(ThreadPool::kMaxWorkers) + "]",
                 argv[0]);
      flags.threads = static_cast<int>(u64);
    } else if ((v = ValueOf(arg, "--seed")) != nullptr) {
      OrExit(ParseUint64(v, "--seed", &flags.seed), argv[0]);
    } else if ((v = ValueOf(arg, "--max-samples")) != nullptr) {
      OrExit(ParseUint64(v, "--max-samples", &u64), argv[0]);
      flags.max_samples = u64;
    } else if ((v = ValueOf(arg, "--k")) != nullptr) {
      flags.ks.clear();
      for (const char* p = v;;) {
        const char* comma = std::strchr(p, ',');
        const std::string element =
            comma == nullptr ? std::string(p) : std::string(p, comma);
        OrExit(ParseUint64(element.c_str(), "--k", &u64), argv[0]);
        CheckRange(u64 >= 1, "--k", "a list of budgets >= 1", argv[0]);
        flags.ks.push_back(u64);
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (std::strcmp(arg, "--full") == 0) {
      flags.full = true;
      flags.scale = 1.0;
      flags.sims = 20000;
      flags.max_samples = 50'000'000;
    } else {
      UsageAndExit(argv[0], std::strcmp(arg, "--help") == 0 ? 0 : 2);
    }
  }
  return flags;
}

void PrintBanner(const std::string& experiment, const std::string& shape,
                 const BenchFlags& flags) {
  std::printf("== %s ==\n", experiment.c_str());
  std::printf("paper_shape: %s\n", shape.c_str());
  std::printf("config: scale=%.3g sims=%zu threads=%d epsilon=%.2f seed=%llu%s\n\n",
              flags.scale, flags.sims, flags.ResolvedThreads(), flags.epsilon,
              static_cast<unsigned long long>(flags.seed),
              flags.full ? " (paper scale)" : "");
}

}  // namespace kboost
