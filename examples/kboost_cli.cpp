// kboost_cli — command-line front end for the library, for users who want
// to run the paper's algorithms on their own edge-list graphs without
// writing C++.
//
//   kboost_cli generate --dataset=digg --scale=0.02 --out=graph.txt
//   kboost_cli seeds    --graph=graph.txt --count=20 [--random]
//   kboost_cli boost    --graph=graph.txt --seeds=0,5,9 --k=50 [--lb]
//                       [--k-sweep=1,10,50] [--save-pool=pool.bin]
//                       [--codec=nop|varint] [--load-pool=pool.bin]
//                       [--mmap-pool]
//   kboost_cli evaluate --graph=graph.txt --seeds=0,5,9 --boost=1,2,3
//   kboost_cli serve-bench --graph=graph.txt --load-pool=pool.bin
//                          [--mmap-pool] [--clients=1,2,4] [--queries=32]
//   kboost_cli serve    --graph=graph.txt --pool=digg=pool.bin [--listen=7447]
//   kboost_cli query    --connect=127.0.0.1:7447 --pool=digg --k=10
//
// Graphs are the text edge-list format of src/graph/graph_io.h. Pool
// snapshots (--save-pool/--load-pool) are the binary format of
// src/io/pool_io.h: sample once, then serve any budget ≤ the pool's from
// the same file — across processes and restarts. --codec picks the section
// codec written into the snapshot (varint shrinks it for cold storage);
// --mmap-pool serves the snapshot from an mmap of the file instead of a
// private copy (zero-copy for a nop-coded snapshot).

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/boost_session.h"
#include "src/net/daemon.h"
#include "src/serve/boost_service.h"
#include "src/util/parse.h"
#include "src/util/timer.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/graph_io.h"
#include "src/io/pool_io.h"
#include "src/sim/boost_model.h"

namespace {

using namespace kboost;

const char* FlagValue(int argc, char** argv, const char* name) {
  const size_t len = std::strlen(name);
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// Rejects unknown arguments: every flag must be a known `--name=value` or a
/// known `--switch`, otherwise the command fails loudly instead of silently
/// ignoring a typo (e.g. --kk=50).
bool ValidateFlags(int argc, char** argv,
                   std::initializer_list<const char*> value_flags,
                   std::initializer_list<const char*> switches = {}) {
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    bool known = false;
    for (const char* name : value_flags) {
      const size_t len = std::strlen(name);
      if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
        known = true;
        break;
      }
    }
    for (const char* name : switches) {
      if (known) break;
      if (std::strcmp(arg, name) == 0) known = true;
    }
    if (!known) {
      std::fprintf(stderr,
                   "error: unknown flag '%s' for 'kboost_cli %s' "
                   "(see kboost_cli --help)\n",
                   arg, argv[1]);
      return false;
    }
  }
  return true;
}

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

/// The one validated integer-flag parser: strict whole-string base-10 parse
/// through kboost::ParseUint64 (no bare strtoull anywhere — "abc" or "12x"
/// must be an error, not a silent 0/12). Returns false with the error on
/// stderr. When the flag is absent, `*out` keeps its preloaded default.
bool ParseUint64Flag(int argc, char** argv, const char* flag_name,
                     uint64_t* out) {
  const char* text = FlagValue(argc, argv, flag_name);
  if (text == nullptr) return true;
  if (Status s = ParseUint64(text, flag_name, out); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return false;
  }
  return true;
}

/// Parses one signed integer flag (--threads, --shards) if present: syntax
/// errors are rejected here, the valid range is owned by
/// BoostOptions::Validate() (the one place the CLI, set_num_threads and
/// BoostSession::Create agree on ranges). Returns false on a syntax error;
/// `*out` stays 0 when the flag is absent.
bool ParseIntFlag(int argc, char** argv, const char* flag_name, int* out) {
  *out = 0;
  const char* text = FlagValue(argc, argv, flag_name);
  if (text == nullptr) return true;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0') {
    std::fprintf(stderr, "error: %s must be an integer, got '%s'\n",
                 flag_name, text);
    return false;
  }
  // A strtol overflow (or a value outside int) saturates so that
  // BoostOptions::Validate rejects it with its range message.
  if (errno == ERANGE || value > std::numeric_limits<int>::max()) {
    *out = std::numeric_limits<int>::max();
  } else if (value < std::numeric_limits<int>::min()) {
    *out = std::numeric_limits<int>::min();
  } else {
    *out = static_cast<int>(value);
  }
  return true;
}

bool ParseThreadsFlag(int argc, char** argv, int* threads) {
  return ParseIntFlag(argc, argv, "--threads", threads);
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
      "        [--codec=nop|varint] [--load-pool=PATH] [--mmap-pool]\n"
      "        [--threads=N] [--shards=S]\n"
      "      run PRR-Boost (or PRR-Boost-LB with --lb); prints the boost\n"
      "      set and its Monte-Carlo-verified boost. --k-sweep answers\n"
      "      every listed budget from ONE sampled pool (a BoostSession);\n"
      "      --save-pool snapshots that pool (--codec=varint delta-codes\n"
      "      the arena sections for cold storage), --load-pool serves from\n"
      "      a snapshot without resampling (seeds/mode come from the file)\n"
      "      and --mmap-pool maps it instead of copying it in (zero-copy\n"
      "      for a nop-coded snapshot); --threads runs sampling and the\n"
      "      index builds on N workers (each solve runs on one);\n"
      "      --shards splits the pool into S arenas for parallel\n"
      "      sampling/refresh/snapshot I/O (answers are bit-identical for\n"
      "      every S)\n"
      "  evaluate --graph=PATH --seeds=a,b,c --boost=x,y,z [--sims=N]\n"
      "      Monte-Carlo estimate of the spread and boost of a given set\n"
      "  serve --graph=PATH --pool=NAME=SNAPSHOT [--pool=...]\n"
      "        [--listen=PORT] [--bind=ADDR] [--mmap-pool] [--threads=N]\n"
      "        [--deadline-ms=N] [--max-connections=N]\n"
      "        [--no-remote-shutdown]\n"
      "      run the kboostd network server in-process: serve the listed\n"
      "      pool snapshots over TCP (docs/PROTOCOL.md) from one event\n"
      "      loop, with REFRESH on one background thread, until SIGINT or\n"
      "      SIGTERM triggers the graceful drain; --listen=0 binds an\n"
      "      ephemeral port and prints it\n"
      "  query --connect=HOST:PORT --k=N [--pool=NAME]\n"
      "        [--mode=auto|full|lb] [--deadline-ms=N] [--timeout-ms=N]\n"
      "      round-trip one query against a running kboostd and print the\n"
      "      typed outcome (exit 0 only when the remote solve succeeded)\n"
      "  serve-bench --graph=PATH (--load-pool=PATH [--mmap-pool] |\n"
      "        --seeds=a,b,c --k=N [--lb] [--epsilon=F] [--seed=N]\n"
      "        [--shards=S]) [--clients=1,2,4] [--queries=32] [--threads=N]\n"
      "        [--deadline-ms=N] [--queue-cap=N]\n"
      "      register the pool in a BoostService and measure concurrent\n"
      "      query throughput: each client count issues the same mixed\n"
      "      (k, mode) query stream from that many threads and every\n"
      "      answer is checked bit-identical against the serial run;\n"
      "      --deadline-ms sets the service default deadline and --queue-cap\n"
      "      caps in-flight solves at N (plus N queued, excess shed typed) —\n"
      "      overload outcomes are reported per run\n");
  return 2;
}

int CmdGenerate(int argc, char** argv) {
  if (!ValidateFlags(argc, argv, {"--dataset", "--out", "--scale", "--beta"})) {
    return 2;
  }
  const char* name = FlagValue(argc, argv, "--dataset");
  const char* out = FlagValue(argc, argv, "--out");
  const char* scale_s = FlagValue(argc, argv, "--scale");
  const char* beta_s = FlagValue(argc, argv, "--beta");
  if (name == nullptr || out == nullptr) return Usage();
  DatasetSpec spec = SpecByName(name, scale_s ? std::atof(scale_s) : 0.02,
                                beta_s ? std::atof(beta_s) : 2.0);
  Dataset d = MakeDataset(spec);
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
  if (!ValidateFlags(argc, argv, {"--graph", "--count", "--seed"},
                     {"--random"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, "--graph");
  const char* count_s = FlagValue(argc, argv, "--count");
  if (path == nullptr || count_s == nullptr) return Usage();
  StatusOr<DirectedGraph> g = LoadEdgeList(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  uint64_t count = 0;
  uint64_t seed = 42;
  if (!ParseUint64Flag(argc, argv, "--count", &count) ||
      !ParseUint64Flag(argc, argv, "--seed", &seed)) {
    return 2;
  }
  std::vector<NodeId> seeds =
      HasFlag(argc, argv, "--random")
          ? SelectRandomSeeds(g.value(), count, seed)
          : SelectInfluentialSeeds(g.value(), count, seed, 0);
  for (size_t i = 0; i < seeds.size(); ++i) {
    std::printf("%s%u", i ? "," : "", seeds[i]);
  }
  std::printf("\n");
  return 0;
}

int CmdBoost(int argc, char** argv) {
  if (!ValidateFlags(argc, argv,
                     {"--graph", "--seeds", "--k", "--k-sweep", "--epsilon",
                      "--seed", "--save-pool", "--load-pool", "--codec",
                      "--threads", "--shards"},
                     {"--lb", "--mmap-pool"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, "--graph");
  const char* k_s = FlagValue(argc, argv, "--k");
  uint64_t k_flag = 0;
  if (!ParseUint64Flag(argc, argv, "--k", &k_flag)) return 2;
  const bool has_threads = FlagValue(argc, argv, "--threads") != nullptr;
  int threads = 0;
  if (!ParseThreadsFlag(argc, argv, &threads)) return 2;
  const bool has_shards = FlagValue(argc, argv, "--shards") != nullptr;
  int shards = 0;
  if (!ParseIntFlag(argc, argv, "--shards", &shards)) return 2;
  const char* load_pool = FlagValue(argc, argv, "--load-pool");
  const char* save_pool = FlagValue(argc, argv, "--save-pool");
  const char* codec_s = FlagValue(argc, argv, "--codec");
  const bool mmap_pool = HasFlag(argc, argv, "--mmap-pool");
  if (codec_s != nullptr && save_pool == nullptr) {
    std::fprintf(stderr, "error: --codec only applies to --save-pool\n");
    return 2;
  }
  PoolSaveOptions save_options;
  if (codec_s != nullptr) {
    const Codec* codec = CodecByName(codec_s);
    if (codec == nullptr) {
      std::fprintf(stderr, "error: unknown --codec '%s' (nop|varint)\n",
                   codec_s);
      return 2;
    }
    save_options.codec = codec->id();
  }
  if (mmap_pool && load_pool == nullptr) {
    std::fprintf(stderr, "error: --mmap-pool only applies to --load-pool\n");
    return 2;
  }
  std::vector<size_t> sweep;
  std::vector<NodeId> seeds;
  if (!ParseUintList(FlagValue(argc, argv, "--k-sweep"), "--k-sweep",
                     &sweep) ||
      !ParseUintList(FlagValue(argc, argv, "--seeds"), "--seeds", &seeds)) {
    return 2;
  }
  if (load_pool != nullptr) {
    // Mode, sampling options, seeds and the shard layout come from the
    // snapshot; accepting these flags alongside --load-pool would silently
    // discard them.
    for (const char* name : {"--seeds", "--epsilon", "--seed", "--shards"}) {
      if (FlagValue(argc, argv, name) != nullptr) {
        std::fprintf(stderr,
                     "error: %s comes from the pool snapshot; it cannot be "
                     "combined with --load-pool\n",
                     name);
        return 2;
      }
    }
    if (HasFlag(argc, argv, "--lb")) {
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
    if (has_threads) {
      if (Status s = session->set_num_threads(threads); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
    }
    std::printf(
        "loaded pool %s: budget=%zu theta=%zu mode=%s shards=%zu%s\n",
        load_pool, session->budget(),
        session->engine().collection().num_samples(),
        session->lb_only() ? "lb" : "full",
        session->engine().collection().num_shards(),
        mmap_pool ? " (mmap)" : "");
  } else {
    BoostOptions options;
    options.k = k_flag;
    for (size_t k : sweep) options.k = std::max(options.k, k);
    if (options.k == 0) return Usage();
    const char* eps_s = FlagValue(argc, argv, "--epsilon");
    if (eps_s != nullptr) options.epsilon = std::atof(eps_s);
    if (!ParseUint64Flag(argc, argv, "--seed", &options.seed)) return 2;
    if (has_threads) options.num_threads = threads;
    if (has_shards) options.num_shards = shards;
    StatusOr<std::unique_ptr<BoostSession>> created = BoostSession::Create(
        g.value(), seeds, options, HasFlag(argc, argv, "--lb"));
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
    BoostResult r = session->SolveForBudget(k);
    std::printf("k=%zu boost_set: ", k);
    for (size_t i = 0; i < r.best_set.size(); ++i) {
      std::printf("%s%u", i ? "," : "", r.best_set[i]);
    }
    std::printf("\nestimate (%s): %.3f%s\n", lb ? "mu_hat" : "delta_hat",
                r.best_estimate,
                r.pool_reused ? "  [pool reused]" : "");
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
    session->Prepare();
    StatusOr<PoolSaveResult> saved =
        SavePoolSnapshot(*session, save_pool, save_options);
    if (!saved.ok()) {
      std::fprintf(stderr, "error: %s\n", saved.status().ToString().c_str());
      return 1;
    }
    std::printf("saved pool to %s: %llu bytes, %llu samples, "
                "%.2f bytes/sample (%s codec)\n",
                save_pool,
                static_cast<unsigned long long>(saved->file_bytes),
                static_cast<unsigned long long>(saved->num_samples),
                saved->bytes_per_sample, CodecName(save_options.codec));
  }
  return 0;
}

int CmdEvaluate(int argc, char** argv) {
  if (!ValidateFlags(argc, argv, {"--graph", "--seeds", "--boost", "--sims"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, "--graph");
  std::vector<NodeId> seeds, boost;
  if (!ParseUintList(FlagValue(argc, argv, "--seeds"), "--seeds", &seeds) ||
      !ParseUintList(FlagValue(argc, argv, "--boost"), "--boost", &boost)) {
    return 2;
  }
  if (path == nullptr || seeds.empty()) return Usage();
  StatusOr<DirectedGraph> g = LoadEdgeList(path);
  if (!g.ok()) {
    std::fprintf(stderr, "error: %s\n", g.status().ToString().c_str());
    return 1;
  }
  SimulationOptions sim;
  uint64_t sims = sim.num_simulations;
  if (!ParseUint64Flag(argc, argv, "--sims", &sims)) return 2;
  sim.num_simulations = sims;
  BoostEstimate e = EstimateBoost(g.value(), seeds, boost, sim);
  std::printf("base_spread:    %.3f\n", e.base_spread);
  std::printf("boosted_spread: %.3f\n", e.boosted_spread);
  std::printf("boost:          %.3f +- %.3f\n", e.boost, 2 * e.boost_stderr);
  return 0;
}

/// Bit-identity predicate for the serve-bench divergence check: the sets and
/// estimates a query answer is made of, compared exactly (the concurrency
/// guarantee is bit-identical results, not approximately-equal ones).
bool SameAnswer(const BoostResult& a, const BoostResult& b) {
  return a.best_set == b.best_set && a.best_estimate == b.best_estimate &&
         a.lb_set == b.lb_set && a.lb_mu_hat == b.lb_mu_hat &&
         a.delta_set == b.delta_set && a.delta_delta_hat == b.delta_delta_hat;
}

int CmdServeBench(int argc, char** argv) {
  if (!ValidateFlags(argc, argv,
                     {"--graph", "--load-pool", "--seeds", "--k", "--epsilon",
                      "--seed", "--clients", "--queries", "--threads",
                      "--shards", "--deadline-ms", "--queue-cap"},
                     {"--lb", "--mmap-pool"})) {
    return 2;
  }
  const char* path = FlagValue(argc, argv, "--graph");
  const char* load_pool = FlagValue(argc, argv, "--load-pool");
  const char* k_s = FlagValue(argc, argv, "--k");
  const bool mmap_pool = HasFlag(argc, argv, "--mmap-pool");
  if (path == nullptr) return Usage();
  if (load_pool == nullptr && k_s == nullptr) return Usage();
  if (mmap_pool && load_pool == nullptr) {
    std::fprintf(stderr, "error: --mmap-pool only applies to --load-pool\n");
    return 2;
  }
  const bool has_threads = FlagValue(argc, argv, "--threads") != nullptr;
  int threads = 0;
  if (!ParseThreadsFlag(argc, argv, &threads)) return 2;
  const bool has_shards = FlagValue(argc, argv, "--shards") != nullptr;
  int shards = 0;
  if (!ParseIntFlag(argc, argv, "--shards", &shards)) return 2;
  if (load_pool != nullptr && has_shards) {
    std::fprintf(stderr,
                 "error: --shards comes from the pool snapshot; it cannot be "
                 "combined with --load-pool\n");
    return 2;
  }
  std::vector<size_t> clients;
  if (!ParseUintList(FlagValue(argc, argv, "--clients"), "--clients",
                     &clients)) {
    return 2;
  }
  if (clients.empty()) clients = {1, 2, 4};
  for (size_t c : clients) {
    if (c < 1 || c > 64) {
      std::fprintf(stderr, "error: --clients entries must be in [1, 64]\n");
      return 2;
    }
  }
  uint64_t num_queries = 32;
  if (!ParseUint64Flag(argc, argv, "--queries", &num_queries)) return 2;
  if (num_queries < 1 || num_queries > 1'000'000) {
    std::fprintf(stderr,
                 "error: --queries must be an integer in [1, 1000000], "
                 "got %llu\n",
                 static_cast<unsigned long long>(num_queries));
    return 2;
  }
  // Overload knobs, both off by default: --deadline-ms is the service
  // default deadline, --queue-cap bounds in-flight solves (with an
  // equal-sized waiting room).
  uint64_t deadline_ms = 0;
  if (!ParseUint64Flag(argc, argv, "--deadline-ms", &deadline_ms)) return 2;
  uint64_t queue_cap = 0;
  if (!ParseUint64Flag(argc, argv, "--queue-cap", &queue_cap)) return 2;

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
      std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    session = std::move(loaded).value();
    if (has_threads) {
      if (Status s = session->set_num_threads(threads); !s.ok()) {
        std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
        return 2;
      }
    }
  } else {
    std::vector<NodeId> seeds;
    if (!ParseUintList(FlagValue(argc, argv, "--seeds"), "--seeds", &seeds)) {
      return 2;
    }
    if (seeds.empty()) return Usage();
    BoostOptions options;
    uint64_t k_flag = 0;
    if (!ParseUint64Flag(argc, argv, "--k", &k_flag)) return 2;
    options.k = k_flag;
    const char* eps_s = FlagValue(argc, argv, "--epsilon");
    if (eps_s != nullptr) options.epsilon = std::atof(eps_s);
    if (!ParseUint64Flag(argc, argv, "--seed", &options.seed)) return 2;
    if (has_threads) options.num_threads = threads;
    if (has_shards) options.num_shards = shards;
    StatusOr<std::unique_ptr<BoostSession>> created = BoostSession::Create(
        g.value(), std::move(seeds), options, HasFlag(argc, argv, "--lb"));
    if (!created.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   created.status().ToString().c_str());
      return 2;
    }
    session = std::move(created).value();
  }

  const bool lb = session->lb_only();
  BoostService::Options service_options;
  service_options.default_deadline_ms = deadline_ms;
  service_options.max_in_flight = queue_cap;
  service_options.max_queued = queue_cap;
  StatusOr<std::unique_ptr<BoostService>> service_or =
      BoostService::Create(g.value(), service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  BoostService& service = *service_or.value();
  std::printf("preparing pool (budget %zu, %s mode)...\n", session->budget(),
              lb ? "lb" : "full");
  WallTimer prepare_timer;
  const size_t budget = session->budget();
  if (Status s = service.AddPool("pool", std::move(session)); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("prepared in %.3fs, theta=%zu shards=%zu\n",
              prepare_timer.Seconds(),
              service.GetPool("pool")->engine().collection().num_samples(),
              service.GetPool("pool")->engine().collection().num_shards());

  // The mixed query stream: budgets sweep the pool range, modes alternate
  // native/LB on full pools. Each solve runs on its client's thread, so the
  // client count is the only concurrency variable.
  std::vector<BoostRequest> requests(num_queries);
  const size_t k_steps[] = {1, budget / 4, budget / 2, (3 * budget) / 4,
                            budget};
  for (size_t i = 0; i < num_queries; ++i) {
    requests[i].pool = "pool";
    requests[i].k = std::max<size_t>(1, k_steps[i % 5]);
    requests[i].mode =
        (!lb && i % 2 == 1) ? SolveMode::kLbOnly : SolveMode::kAuto;
  }

  // Serial reference pass: every concurrent answer must match these bits.
  // The reference queries carry a deliberately unreachable deadline, so
  // the reference stays the truth even when --deadline-ms is tight.
  std::vector<BoostResult> reference(num_queries);
  WallTimer serial_timer;
  for (size_t i = 0; i < num_queries; ++i) {
    BoostRequest ref = requests[i];
    ref.deadline_ms = 600'000;  // 10 min: present but unreachable
    StatusOr<BoostResponse> r = service.Solve(ref);
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    reference[i] = std::move(r).value().result;
  }
  const double serial_s = serial_timer.Seconds();
  std::printf("serial reference: %zu queries in %.3fs (%.1f q/s)\n\n",
              num_queries, serial_s,
              static_cast<double>(num_queries) / serial_s);

  // Measure every client count first, then print with the speedup column
  // anchored on the 1-client run when the list has one (on the first listed
  // count otherwise, labelled accordingly).
  struct Row {
    size_t clients;
    double qps;
    double secs;
  };
  std::vector<Row> rows;
  bool diverged = false;
  size_t total_shed = 0, total_missed = 0;
  for (size_t c : clients) {
    std::atomic<size_t> mismatches{0};
    std::atomic<size_t> shed{0}, missed{0};
    WallTimer timer;
    std::vector<std::thread> workers;
    workers.reserve(c);
    for (size_t t = 0; t < c; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = t; i < num_queries; i += c) {
          StatusOr<BoostResponse> r = service.Solve(requests[i]);
          if (r.ok()) {
            if (!SameAnswer(r.value().result, reference[i])) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          } else if (r.status().code() == StatusCode::kResourceExhausted) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
            missed.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Anything else under overload is a bug, not load shedding.
            std::fprintf(stderr, "error: untyped failure: %s\n",
                         r.status().ToString().c_str());
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    const double secs = timer.Seconds();
    rows.push_back({c, static_cast<double>(num_queries) / secs, secs});
    total_shed += shed.load();
    total_missed += missed.load();
    if (mismatches.load() != 0) {
      std::fprintf(stderr,
                   "error: %zu of %zu concurrent answers diverged from the "
                   "serial reference at %zu clients\n",
                   mismatches.load(), num_queries, c);
      diverged = true;
    }
  }
  double qps_base = rows.front().qps;
  bool base_is_one = clients.front() == 1;
  for (const Row& row : rows) {
    if (row.clients == 1) {
      qps_base = row.qps;
      base_is_one = true;
      break;
    }
  }
  std::printf("%8s %12s %10s %10s\n", "clients", "queries/s", "wall_s",
              base_is_one ? "vs_1" : "vs_first");
  for (const Row& row : rows) {
    std::printf("%8zu %12.1f %10.3f %9.2fx\n", row.clients, row.qps,
                row.secs, row.qps / qps_base);
  }

  // The service's own metrics, as an operator dashboard would read them:
  // per-pool traffic counters and solve-latency quantiles collected on the
  // query path (src/serve/service_stats.h).
  if (total_shed + total_missed != 0) {
    std::printf("\noverload outcomes across all client counts: %zu shed "
                "(ResourceExhausted), %zu deadline misses\n",
                total_shed, total_missed);
  }

  const ServiceStatsSnapshot stats = service.Stats();
  std::printf("\nservice stats (Stats()):\n");
  for (const PoolStatsSnapshot& ps : stats.pools) {
    std::printf("  pool '%s' v%llu: %llu queries, %llu errors, "
                "latency ms mean/p50/p95/ewma = %.3f/%.3f/%.3f/%.3f, "
                "last rebuild %.1f ms\n",
                ps.pool.c_str(), static_cast<unsigned long long>(ps.version),
                static_cast<unsigned long long>(ps.queries),
                static_cast<unsigned long long>(ps.errors), ps.latency_mean_ms,
                ps.latency_p50_ms, ps.latency_p95_ms, ps.latency_ewma_ms,
                ps.last_rebuild_ms);
    if (ps.shed + ps.deadline_misses + ps.load_retries != 0) {
      std::printf("    overload: %llu shed, %llu deadline misses, %llu "
                  "load retries\n",
                  static_cast<unsigned long long>(ps.shed),
                  static_cast<unsigned long long>(ps.deadline_misses),
                  static_cast<unsigned long long>(ps.load_retries));
    }
  }
  std::printf("  admission: %llu admitted, %llu shed, %llu queue timeouts "
              "(in flight %llu, queued %llu)\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.queue_timeouts),
              static_cast<unsigned long long>(stats.in_flight),
              static_cast<unsigned long long>(stats.queued));
  if (stats.not_found != 0) {
    std::printf("  not-found requests: %llu\n",
                static_cast<unsigned long long>(stats.not_found));
  }
  return diverged ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "seeds") return CmdSeeds(argc, argv);
  if (cmd == "boost") return CmdBoost(argc, argv);
  if (cmd == "evaluate") return CmdEvaluate(argc, argv);
  if (cmd == "serve-bench") return CmdServeBench(argc, argv);
  if (cmd == "serve") return RunServeCommand(argc, argv, 2);
  if (cmd == "query") return RunQueryCommand(argc, argv, 2);
  return Usage();
}
