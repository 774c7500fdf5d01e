// kboost_cli — command-line front end for the library, for users who want
// to run the paper's algorithms on their own edge-list graphs without
// writing C++.
//
//   kboost_cli generate --dataset=digg --scale=0.02 --out=graph.txt
//   kboost_cli seeds    --graph=graph.txt --count=20 [--random]
//   kboost_cli boost    --graph=graph.txt --seeds=0,5,9 --k=50 [--lb]
//                       [--k-sweep=1,10,50] [--save-pool=pool.bin]
//                       [--load-pool=pool.bin] [--mmap-pool]
//   kboost_cli evaluate --graph=graph.txt --seeds=0,5,9 --boost=1,2,3
//   kboost_cli serve    --graph=graph.txt --pool=digg=pool.bin [--listen=7447]
//   kboost_cli query    --connect=127.0.0.1:7447 --pool=digg --k=10
//
// Graphs are the text edge-list format of src/graph/graph_io.h. Pool
// snapshots (--save-pool/--load-pool) are the binary format of
// src/io/pool_io.h: sample once, then serve any budget ≤ the pool's from
// the same file — across processes and restarts. A snapshot stores the
// pool's sections raw, so --mmap-pool serves it zero-copy from an mmap of
// the file instead of a private copy.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/net/daemon.h"
#include "src/util/parse.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/graph_io.h"
#include "src/io/pool_io.h"
#include "src/sim/boost_model.h"

namespace {

using namespace kboost;

// Every command's flags start at argv[2], after the command name: that is
// the `start` every flag helper of src/util/parse.h is given here.

/// Parses a comma-separated list of non-negative integers into `out`.
/// Returns false (leaving a clear error on stderr to the caller) on any
/// malformed input: non-numeric characters, signs, empty elements, trailing
/// commas, or a value that does not fit T. Each element goes through the
/// same strict kboost::ParseUint64 as the scalar flags — "--seeds=-1" is an
/// error, never a wrapped-around node id.
template <typename T>
bool ParseUintList(const char* text, const char* flag_name,
                   std::vector<T>* out) {
  out->clear();
  if (text == nullptr) return true;
  const char* p = text;
  while (true) {
    const char* comma = std::strchr(p, ',');
    const std::string element =
        comma == nullptr ? std::string(p) : std::string(p, comma);
    uint64_t value = 0;
    if (Status s = ParseUint64(element.c_str(), flag_name, &value); !s.ok()) {
      std::fprintf(stderr, "error: %s (in list '%s')\n", s.ToString().c_str(),
                   text);
      return false;
    }
    if (value > std::numeric_limits<T>::max()) {
      std::fprintf(stderr, "error: %s element '%s' is out of range\n",
                   flag_name, element.c_str());
      return false;
    }
    out->push_back(static_cast<T>(value));
    if (comma == nullptr) return true;
    p = comma + 1;
  }
}

/// The double-flag twin of ParseUint64Flag: a strict whole-string parse
/// through kboost::ParseDouble ("abc" is an error, not atof's silent 0).
/// Range checks stay with the caller.
bool ParseDoubleFlag(int argc, char** argv, const char* flag_name,
                     double* out) {
  const char* text = FlagValue(argc, argv, 2, flag_name);
  if (text == nullptr) return true;
  if (Status s = ParseDouble(text, flag_name, out); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

/// False (with the offending id on stderr) when any of `nodes` is not a
/// node of a graph with `num_nodes` nodes.
bool NodesInRange(const std::vector<NodeId>& nodes, size_t num_nodes,
                  const char* flag_name) {
  for (NodeId v : nodes) {
    if (v >= num_nodes) {
      std::fprintf(stderr, "error: %s node %u is out of range [0, %zu)\n",
                   flag_name, v, num_nodes);
      return false;
    }
  }
  return true;
}

/// Parses --threads if present: syntax errors are rejected here, the valid
/// range is owned by BoostOptions::Validate() (the one place the CLI and
/// BoostSession::Create agree on ranges). Returns false on a syntax error;
/// `*threads` stays 0 when the flag is absent.
bool ParseThreadsFlag(int argc, char** argv, int* threads) {
  *threads = 0;
  const char* text = FlagValue(argc, argv, 2, "--threads");
  if (text == nullptr) return true;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "error: --threads must be an integer, got '%s'\n",
                 text);
    return false;
  }
  // A strtol overflow (or a value outside int) saturates so that
  // BoostOptions::Validate rejects it with its range message.
  if (errno == ERANGE || value > std::numeric_limits<int>::max()) {
    *threads = std::numeric_limits<int>::max();
  } else if (value < std::numeric_limits<int>::min()) {
    *threads = std::numeric_limits<int>::min();
  } else {
    *threads = static_cast<int>(value);
  }
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: kboost_cli <command> [flags]\n"
      "  generate --dataset=NAME --scale=F --out=PATH [--beta=F]\n"
      "      synthesize a stand-in dataset (digg|flixster|twitter|flickr)\n"
      "  seeds --graph=PATH --count=N [--random] [--seed=N]\n"
      "      print an influential (IMM) or uniform-random seed set\n"
      "  boost --graph=PATH --seeds=a,b,c --k=N [--lb] [--epsilon=F]\n"
      "        [--seed=N] [--k-sweep=a,b,c] [--save-pool=PATH]\n"
      "        [--load-pool=PATH] [--mmap-pool] [--threads=N]\n"
      "      run PRR-Boost (or PRR-Boost-LB with --lb); prints the boost\n"
      "      set and its Monte-Carlo-verified boost. --k-sweep answers\n"
      "      every listed budget from ONE sampled pool (a BoostSession);\n"
      "      --save-pool snapshots that pool, --load-pool serves from a\n"
      "      snapshot without resampling (seeds/mode come from the file)\n"
      "      and --mmap-pool maps it instead of copying it in (zero-copy);\n"
      "      --threads samples the pool on N workers (the pool and every\n"
      "      answer are bit-identical for every N; each solve runs on one\n"
      "      thread)\n"
      "  evaluate --graph=PATH --seeds=a,b,c --boost=x,y,z [--sims=N]\n"
      "      Monte-Carlo estimate of the spread and boost of a given set\n"
      "  serve --graph=PATH --pool=NAME=SNAPSHOT [--pool=...]\n"
      "        [--listen=PORT] [--bind=ADDR] [--mmap-pool]\n"
      "        [--max-connections=N] [--no-remote-shutdown]\n"
      "      run the kboostd network server in-process: serve the listed\n"
      "      pool snapshots over TCP (docs/PROTOCOL.md) from one event\n"
      "      loop per two usable CPUs, with REFRESH on one background\n"
      "      thread, until SIGINT or SIGTERM triggers the graceful drain;\n"
      "      --listen=0 binds an ephemeral port and prints it\n"
      "  query --connect=HOST:PORT --k=N [--pool=NAME]\n"
      "        [--mode=auto|full|lb] [--timeout-ms=N]\n"
      "      round-trip one query against a running kboostd and print the\n"
      "      typed outcome (exit 0 only when the remote solve succeeded);\n"
      "      --timeout-ms bounds each socket send/receive (default 30000,\n"
      "      0 = wait forever)\n");
  return 2;
}

int CmdGenerate(int argc, char** argv) {
  if (!ValidateFlags(argc, argv, 2, "kboost_cli generate",
                     {"--dataset", "--out", "--scale", "--beta"})) {
    return 2;
  }
  const char* name = FlagValue(argc, argv, 2, "--dataset");
  const char* out = FlagValue(argc, argv, 2, "--out");
  if (name == nullptr || out == nullptr) return Usage();
  double scale = 0.02, beta = 2.0;
  if (!ParseDoubleFlag(argc, argv, "--scale", &scale) ||
      !ParseDoubleFlag(argc, argv, "--beta", &beta)) {
    return 2;
  }
  StatusOr<DatasetSpec> spec = FindDatasetSpec(name, scale, beta);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }
  Dataset d = MakeDataset(*spec);
  Status s = SaveEdgeList(d.graph, out);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: n=%zu m=%zu avg_p=%.4f\n", out,
              d.graph.num_nodes(), d.graph.num_edges(),
              d.graph.AverageProbability());
  return 0;
}

int CmdSeeds(int argc, char** argv) {
  if (!ValidateFlags(argc, argv, 2, "kboost_cli seeds",
                     {"--graph", "--count", "--seed"}, {"--random"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, 2, "--graph");
  const char* count_s = FlagValue(argc, argv, 2, "--count");
  if (path == nullptr || count_s == nullptr) return Usage();
  StatusOr<DirectedGraph> g = LoadEdgeList(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  uint64_t count = 0;
  uint64_t seed = 42;
  if (!ParseUint64Flag(argc, argv, 2, "--count", &count) ||
      !ParseUint64Flag(argc, argv, 2, "--seed", &seed)) {
    return 2;
  }
  if (count < 1 || count > g.value().num_nodes()) {
    std::fprintf(stderr, "error: --count must be in [1, %zu], got %llu\n",
                 g.value().num_nodes(), static_cast<unsigned long long>(count));
    return 2;
  }
  std::vector<NodeId> seeds =
      HasFlag(argc, argv, 2, "--random")
          ? SelectRandomSeeds(g.value(), count, seed)
          : SelectInfluentialSeeds(g.value(), count, seed, 0);
  for (size_t i = 0; i < seeds.size(); ++i) {
    std::printf("%s%u", i ? "," : "", seeds[i]);
  }
  std::printf("\n");
  return 0;
}

int CmdBoost(int argc, char** argv) {
  if (!ValidateFlags(argc, argv, 2, "kboost_cli boost",
                     {"--graph", "--seeds", "--k", "--k-sweep", "--epsilon",
                      "--seed", "--save-pool", "--load-pool", "--threads"},
                     {"--lb", "--mmap-pool"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, 2, "--graph");
  const char* k_s = FlagValue(argc, argv, 2, "--k");
  uint64_t k_flag = 0;
  if (!ParseUint64Flag(argc, argv, 2, "--k", &k_flag)) return 2;
  const bool has_threads = FlagValue(argc, argv, 2, "--threads") != nullptr;
  int threads = 0;
  if (!ParseThreadsFlag(argc, argv, &threads)) return 2;
  const char* load_pool = FlagValue(argc, argv, 2, "--load-pool");
  const char* save_pool = FlagValue(argc, argv, 2, "--save-pool");
  const bool mmap_pool = HasFlag(argc, argv, 2, "--mmap-pool");
  if (mmap_pool && load_pool == nullptr) {
    std::fprintf(stderr, "error: --mmap-pool only applies to --load-pool\n");
    return 2;
  }
  std::vector<size_t> sweep;
  std::vector<NodeId> seeds;
  if (!ParseUintList(FlagValue(argc, argv, 2, "--k-sweep"), "--k-sweep",
                     &sweep) ||
      !ParseUintList(FlagValue(argc, argv, 2, "--seeds"), "--seeds", &seeds)) {
    return 2;
  }
  // A budget of 0 is a usage error, caught before the graph loads.
  if ((k_s != nullptr && k_flag == 0) ||
      std::find(sweep.begin(), sweep.end(), size_t{0}) != sweep.end()) {
    std::fprintf(stderr, "error: --k and --k-sweep budgets must be >= 1\n");
    return 2;
  }
  if (load_pool != nullptr) {
    // Mode, sampling options and seeds come from the snapshot, and a loaded
    // pool never samples, so --threads has nothing to size; accepting these
    // flags alongside --load-pool would silently discard them.
    for (const char* name : {"--seeds", "--epsilon", "--seed"}) {
      if (FlagValue(argc, argv, 2, name) != nullptr) {
        std::fprintf(stderr,
                     "error: %s comes from the pool snapshot; it cannot be "
                     "combined with --load-pool\n",
                     name);
        return 2;
      }
    }
    if (has_threads) {
      std::fprintf(stderr,
                   "error: --threads sizes sampling, and a loaded pool never "
                   "samples; it cannot be combined with --load-pool\n");
      return 2;
    }
    if (HasFlag(argc, argv, 2, "--lb")) {
      std::fprintf(stderr,
                   "error: the snapshot fixes the lb/full mode; --lb cannot "
                   "be combined with --load-pool\n");
      return 2;
    }
  }
  if (path == nullptr) return Usage();
  if (load_pool == nullptr && k_s == nullptr && sweep.empty()) return Usage();
  if (load_pool == nullptr && seeds.empty()) return Usage();
  StatusOr<DirectedGraph> g = LoadEdgeList(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }

  std::unique_ptr<BoostSession> session;
  if (load_pool != nullptr) {
    PoolLoadOptions load_options;
    load_options.use_mmap = mmap_pool;
    StatusOr<std::unique_ptr<BoostSession>> loaded =
        LoadPoolSnapshot(g.value(), load_pool, load_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    session = std::move(loaded).value();
    std::printf("loaded pool %s: budget=%zu theta=%zu mode=%s%s\n", load_pool,
                session->budget(),
                session->collection().num_samples(),
                session->lb_only() ? "lb" : "full",
                mmap_pool ? " (mmap)" : "");
  } else {
    BoostOptions options;
    options.k = k_flag;
    for (size_t k : sweep) options.k = std::max(options.k, k);
    if (!ParseDoubleFlag(argc, argv, "--epsilon", &options.epsilon) ||
        !ParseUint64Flag(argc, argv, 2, "--seed", &options.seed)) {
      return 2;
    }
    if (has_threads) options.num_threads = threads;
    StatusOr<std::unique_ptr<BoostSession>> created = BoostSession::Create(
        g.value(), seeds, options, HasFlag(argc, argv, 2, "--lb"));
    if (!created.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    session = std::move(created).value();
  }

  if (sweep.empty()) {
    sweep.push_back(k_s ? k_flag : session->budget());
  }
  std::sort(sweep.begin(), sweep.end());

  const bool lb = session->lb_only();
  for (size_t k : sweep) {
    if (k < 1 || k > session->budget()) {
      std::fprintf(stderr,
                   "error: budget %zu outside the session's range [1, %zu]\n",
                   k, session->budget());
      return 1;
    }
    session->Prepare();
    BoostResult r = session->Solve({.k = k}).value();
    std::printf("k=%zu boost_set: ", k);
    for (size_t i = 0; i < r.best_set.size(); ++i) {
      std::printf("%s%u", i ? "," : "", r.best_set[i]);
    }
    std::printf("\nestimate (%s): %.3f\n", lb ? "mu_hat" : "delta_hat",
                r.best_estimate);
    BoostEstimate mc =
        EstimateBoost(g.value(), session->seeds(), r.best_set, {});
    std::printf("monte_carlo: boost %.3f +- %.3f (spread %.1f -> %.1f)\n",
                mc.boost, 2 * mc.boost_stderr, mc.base_spread,
                mc.boosted_spread);
    std::printf("samples: %zu (boostable %zu%s, pool budget %zu)\n",
                r.num_samples, r.num_boostable,
                r.samples_capped ? ", capped" : "", r.pool_budget);
  }

  if (save_pool != nullptr) {
    StatusOr<PoolSaveResult> saved =
        SavePoolSnapshot(*session, save_pool, PoolSaveOptions{});
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.status().ToString().c_str());
      return 1;
    }
    std::printf("saved pool to %s: %llu bytes, %llu samples, "
                "%.2f bytes/sample\n",
                save_pool,
                static_cast<unsigned long long>(saved->file_bytes),
                static_cast<unsigned long long>(saved->num_samples),
                saved->bytes_per_sample);
  }
  return 0;
}

int CmdEvaluate(int argc, char** argv) {
  if (!ValidateFlags(argc, argv, 2, "kboost_cli evaluate",
                     {"--graph", "--seeds", "--boost", "--sims"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, 2, "--graph");
  std::vector<NodeId> seeds, boost;
  if (!ParseUintList(FlagValue(argc, argv, 2, "--seeds"), "--seeds",
                     &seeds) ||
      !ParseUintList(FlagValue(argc, argv, 2, "--boost"), "--boost",
                     &boost)) {
    return 2;
  }
  if (path == nullptr || seeds.empty()) return Usage();
  StatusOr<DirectedGraph> g = LoadEdgeList(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  const size_t n = g.value().num_nodes();
  if (!NodesInRange(seeds, n, "--seeds") ||
      !NodesInRange(boost, n, "--boost")) {
    return 2;
  }
  SimulationOptions sim;
  uint64_t sims = sim.num_simulations;
  if (!ParseUint64Flag(argc, argv, 2, "--sims", &sims)) return 2;
  if (sims < 1) {
    std::fprintf(stderr, "error: --sims must be >= 1\n");
    return 2;
  }
  sim.num_simulations = sims;
  BoostEstimate e = EstimateBoost(g.value(), seeds, boost, sim);
  std::printf("base_spread:    %.3f\n", e.base_spread);
  std::printf("boosted_spread: %.3f\n", e.boosted_spread);
  std::printf("boost:          %.3f +- %.3f\n", e.boost, 2 * e.boost_stderr);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "seeds") return CmdSeeds(argc, argv);
  if (cmd == "boost") return CmdBoost(argc, argv);
  if (cmd == "evaluate") return CmdEvaluate(argc, argv);
  if (cmd == "serve") return RunServeCommand(argc, argv, 2);
  if (cmd == "query") return RunQueryCommand(argc, argv, 2);
  return Usage();
}
