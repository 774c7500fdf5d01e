// Snapshot format bench: sweeps codec ∈ {nop, varint} × byte source ∈
// {cold owned copy, mmap} over one fixed digg pool and reports save wall
// time (temp write + fsync + rename + directory fsync), file size (total +
// bytes/sample) and load wall time (best of N). The cold nop load is the
// warm-start baseline the mmap load is judged against.
//
// This bench doubles as a Release-mode regression gate:
//   - every loaded session (cold nop, cold varint, mmap nop, mmap varint)
//     must answer bit-identically to the live pool it was saved from —
//     ABORT otherwise;
//   - on pools of >= 100k samples the mmap warm start must be >= 1.5x
//     faster than the cold nop load — ABORT otherwise (see the gate comment
//     in main() for the measured ratio);
//   - the varint codec must shrink bytes/sample >= 2x vs nop — ABORT
//     otherwise.
//
// ε is capped at 0.35 here (θ ∝ 1/ε²) so the default run clears the
// 100k-sample floor the mmap gate is calibrated for; pass --epsilon to
// override (the mmap gate disarms below the floor).
//
// With --json=BENCH_snapshot.json the numbers land in the BENCH_*.json shape.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_flags.h"
#include "src/core/boost_session.h"
#include "src/expt/table_printer.h"
#include "src/io/codec.h"
#include "src/io/pool_io.h"
#include "src/util/timer.h"

namespace {

using namespace kboost;

constexpr int kLoadRepeats = 3;  // loads are timed best-of-N

bool SameAnswer(const BoostResult& a, const BoostResult& b) {
  return a.best_set == b.best_set && a.best_estimate == b.best_estimate &&
         a.lb_set == b.lb_set && a.lb_mu_hat == b.lb_mu_hat &&
         a.delta_set == b.delta_set && a.delta_delta_hat == b.delta_delta_hat;
}

/// Loads `path` kLoadRepeats times, returns the fastest wall ms and (via
/// `session`) the last loaded session for the bit-identity gate.
double TimedLoad(const DirectedGraph& g, const std::string& path,
                 const PoolLoadOptions& options, const char* what,
                 std::unique_ptr<BoostSession>* session) {
  double best_ms = 0.0;
  for (int rep = 0; rep < kLoadRepeats; ++rep) {
    WallTimer timer;
    StatusOr<std::unique_ptr<BoostSession>> loaded =
        LoadPoolSnapshot(g, path, options);
    const double ms = timer.Seconds() * 1e3;
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s load: %s\n", what,
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    if (rep == 0 || ms < best_ms) best_ms = ms;
    *session = std::move(loaded).value();
  }
  return best_ms;
}

void GateAnswers(BoostSession& live, BoostSession& restored,
                 const std::vector<size_t>& budgets, const char* what) {
  for (size_t k : budgets) {
    if (!SameAnswer(live.SolveForBudget(k), restored.SolveForBudget(k))) {
      std::fprintf(stderr, "FATAL: %s pool diverged from live at k=%zu\n",
                   what, k);
      std::abort();
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  // θ ∝ 1/ε²: cap ε so the default run clears the 100k-sample floor the
  // mmap gate is calibrated against.
  flags.epsilon = std::min(flags.epsilon, 0.35);
  PrintBanner(
      "Snapshot sweep: codec {nop,varint} x load path {cold,mmap}",
      "mmap warm start beats the cold nop load >= 1.5x on a >= 100k-sample "
      "pool; varint shrinks bytes/sample >= 2x; every restored pool answers "
      "bit-identically",
      flags);

  const size_t k = flags.ks.empty() ? 50 : flags.ks.front();
  BenchInstance instance = LoadInstance("digg", SeedMode::kInfluential, flags);
  const DirectedGraph& g = instance.dataset.graph;
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string v3_nop_path = (tmp / "kboost_snap_v3_nop.bin").string();
  const std::string v3_var_path = (tmp / "kboost_snap_v3_varint.bin").string();
  const std::vector<size_t> budgets = {1, std::max<size_t>(1, k / 2), k};

  BoostOptions options = MakeBoostOptions(k, flags);
  options.num_shards = 4;
  StatusOr<std::unique_ptr<BoostSession>> created =
      BoostSession::Create(g, instance.seeds, options);
  if (!created.ok()) {
    std::fprintf(stderr, "session: %s\n", created.status().ToString().c_str());
    return 1;
  }
  BoostSession& live = **created;
  live.Prepare();
  const uint64_t num_samples = live.engine().collection().num_samples();
  std::printf("pool: %llu samples (theta)\n",
              static_cast<unsigned long long>(num_samples));

  TablePrinter table({"format", "codec", "path", "save_ms", "snapshot_MB",
                      "B_per_sample", "load_ms"});
  BenchJsonWriter json;
  json.Add("snapshot/theta", static_cast<double>(num_samples), "samples");

  struct SaveRun {
    const char* format;
    const char* codec;
    std::string path;
    PoolSaveOptions options;
    double save_ms = 0.0;
    PoolSaveResult result;
  };
  std::vector<SaveRun> saves;
  saves.push_back({"v3", "nop", v3_nop_path, PoolSaveOptions(), 0.0, {}});
  {
    PoolSaveOptions varint_options;
    varint_options.codec = SnapshotCodec::kVarint;
    saves.push_back({"v3", "varint", v3_var_path, varint_options, 0.0, {}});
  }
  for (SaveRun& run : saves) {
    WallTimer timer;
    StatusOr<PoolSaveResult> saved =
        SavePoolSnapshot(live, run.path, run.options);
    run.save_ms = timer.Seconds() * 1e3;
    if (!saved.ok()) {
      std::fprintf(stderr, "save (%s/%s): %s\n", run.format, run.codec,
                   saved.status().ToString().c_str());
      return 1;
    }
    run.result = *saved;
    const std::string prefix =
        std::string("snapshot/") + run.format + "_" + run.codec + "/";
    json.Add(prefix + "save_ms", run.save_ms, "ms");
    json.Add(prefix + "snapshot_bytes",
             static_cast<double>(run.result.file_bytes), "bytes");
    json.Add(prefix + "bytes_per_sample", run.result.bytes_per_sample,
             "bytes");
  }

  // ---- Timed loads (best of N), each gated on bit-identity ---------------
  std::unique_ptr<BoostSession> restored;
  PoolLoadOptions cold;

  const double nop_cold_ms =
      TimedLoad(g, v3_nop_path, cold, "v3/nop", &restored);
  GateAnswers(live, *restored, budgets, "v3/nop cold-loaded");
  const double var_cold_ms =
      TimedLoad(g, v3_var_path, cold, "v3/varint", &restored);
  GateAnswers(live, *restored, budgets, "v3/varint cold-loaded");

  PoolLoadOptions mmap_options;
  mmap_options.use_mmap = true;
  const double mmap_ms =
      TimedLoad(g, v3_nop_path, mmap_options, "v3/nop mmap", &restored);
  GateAnswers(live, *restored, budgets, "mmap-served");
  const double var_mmap_ms =
      TimedLoad(g, v3_var_path, mmap_options, "v3/varint mmap", &restored);
  GateAnswers(live, *restored, budgets, "v3/varint mmap-loaded");

  table.AddRow({"v3", "nop", "cold", FormatDouble(saves[0].save_ms),
                FormatDouble(static_cast<double>(saves[0].result.file_bytes) /
                             1e6),
                FormatDouble(saves[0].result.bytes_per_sample),
                FormatDouble(nop_cold_ms)});
  table.AddRow({"v3", "nop", "mmap", "-", "-", "-", FormatDouble(mmap_ms)});
  table.AddRow({"v3", "varint", "cold", FormatDouble(saves[1].save_ms),
                FormatDouble(static_cast<double>(saves[1].result.file_bytes) /
                             1e6),
                FormatDouble(saves[1].result.bytes_per_sample),
                FormatDouble(var_cold_ms)});
  table.AddRow(
      {"v3", "varint", "mmap", "-", "-", "-", FormatDouble(var_mmap_ms)});
  json.Add("snapshot/v3_nop/cold_load_ms", nop_cold_ms, "ms");
  json.Add("snapshot/v3_nop/mmap_load_ms", mmap_ms, "ms");
  json.Add("snapshot/v3_varint/cold_load_ms", var_cold_ms, "ms");
  json.Add("snapshot/v3_varint/mmap_load_ms", var_mmap_ms, "ms");

  const double mmap_speedup = nop_cold_ms / std::max(mmap_ms, 1e-9);
  const double varint_ratio = saves[0].result.bytes_per_sample /
                              std::max(saves[1].result.bytes_per_sample, 1e-9);
  json.Add("snapshot/mmap_speedup_vs_cold", mmap_speedup, "x");
  json.Add("snapshot/varint_compression_vs_nop", varint_ratio, "x");

  table.Print(std::cout);
  std::printf("\nmmap warm start: %.1fx vs the cold nop load; varint: "
              "%.2fx smaller per sample than nop\n",
              mmap_speedup, varint_ratio);

  // ---- Hard perf gates ---------------------------------------------------
  // The mmap gate is calibrated to what the warm-start asymmetry buys on
  // this workload. Both loads share one path — header and directory parse,
  // the structural checks, AttachExternal and the coverage bind — and differ
  // only in the byte source (one read() into a heap copy vs. a prefaulted
  // mapping) and in the deep checks the owned load always runs. On
  // social-graph pools the boostable PRR-graphs are tiny (~3 nodes each),
  // so the shared O(num_graphs) metadata pass is a large share of both.
  // Measured on a 4-core x86-64 box (Release, GCC 12) at ~107k samples,
  // median of 10 runs: cold nop 0.73 ms vs mmap 0.29 ms, ~2.6x. The gate
  // sits at 1.5x to absorb shared-box timing noise while still catching
  // any regression that drags O(bytes) work onto the mmap path.
  if (num_samples >= 100'000 && mmap_speedup < 1.5) {
    std::fprintf(stderr,
                 "FATAL: mmap warm start only %.1fx faster than the cold "
                 "nop load (gate: >= 1.5x at >= 100k samples)\n",
                 mmap_speedup);
    std::abort();
  }
  if (varint_ratio < 2.0) {
    std::fprintf(stderr,
                 "FATAL: varint codec only shrinks bytes/sample %.2fx vs "
                 "nop (gate: >= 2x)\n",
                 varint_ratio);
    std::abort();
  }
  std::printf("gates passed: bit-identity (4 load paths), %s1.5x mmap, "
              "2x varint\n",
              num_samples >= 100'000 ? "" : "(disarmed: pool < 100k) ");

  std::filesystem::remove(v3_nop_path);
  std::filesystem::remove(v3_var_path);
  json.WriteTo(flags.json_path);
  return 0;
}
