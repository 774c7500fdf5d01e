// Sweeps the pool shard count S over one fixed workload and measures what
// sharding buys: prepare (sample + warm) wall time, snapshot save wall time
// and size (bytes + bytes/sample), and cold (owned-arena) vs mmap
// (zero-copy v3) load wall time, plus the per-shard stored-graph balance.
// At every S the solve answers are compared bit-identically against the
// S = 1 monolith — the process ABORTS on divergence, so this bench doubles
// as a Release-mode regression gate for the sharding determinism guarantee
// (sample i → shard i mod S, answers invariant in S). Both the cold-loaded
// and mmap-loaded sessions pass through the same gate.
//
// With --json=BENCH_shard_sweep.json each S's numbers land in the
// BENCH_*.json shape.

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
#include "src/io/pool_io.h"
#include "src/util/timer.h"

namespace {

using namespace kboost;

bool SameAnswer(const BoostResult& a, const BoostResult& b) {
  return a.best_set == b.best_set && a.best_estimate == b.best_estimate &&
         a.lb_set == b.lb_set && a.lb_mu_hat == b.lb_mu_hat &&
         a.delta_set == b.delta_set && a.delta_delta_hat == b.delta_delta_hat;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(argc, argv);
  PrintBanner(
      "Shard sweep: pool build / snapshot I/O wall time vs shard count S",
      "prepare and save/load go wide over S arenas with >1 worker while "
      "every solve stays bit-identical to the S=1 monolith",
      flags);

  const size_t k = flags.ks.empty() ? 50 : flags.ks.front();
  BenchInstance instance = LoadInstance("digg", SeedMode::kInfluential, flags);
  const DirectedGraph& g = instance.dataset.graph;
  const std::string snapshot_path =
      (std::filesystem::temp_directory_path() / "kboost_shard_sweep.bin")
          .string();

  // Budgets the bit-identity gate replays at each S.
  const std::vector<size_t> budgets = {1, std::max<size_t>(1, k / 2), k};

  TablePrinter table({"shards", "prepare_s", "save_ms", "snapshot_MB",
                      "B_per_sample", "load_ms", "mmap_ms",
                      "shard_graphs(min..max)"});
  BenchJsonWriter json;
  std::vector<BoostResult> reference;  // S = 1 answers, filled first

  for (const size_t num_shards : {1u, 2u, 4u, 8u}) {
    BoostOptions options = MakeBoostOptions(k, flags);
    options.num_shards = static_cast<int>(num_shards);
    StatusOr<std::unique_ptr<BoostSession>> created =
        BoostSession::Create(g, instance.seeds, options);
    if (!created.ok()) {
      std::fprintf(stderr, "session (S=%zu): %s\n", num_shards,
                   created.status().ToString().c_str());
      return 1;
    }
    BoostSession& session = **created;

    WallTimer prepare_timer;
    session.Prepare();
    const double prepare_s = prepare_timer.Seconds();

    WallTimer save_timer;
    StatusOr<PoolSaveResult> saved =
        SavePoolSnapshot(session, snapshot_path, PoolSaveOptions());
    if (!saved.ok()) {
      std::fprintf(stderr, "save (S=%zu): %s\n", num_shards,
                   saved.status().ToString().c_str());
      return 1;
    }
    const double save_ms = save_timer.Seconds() * 1e3;

    WallTimer load_timer;
    StatusOr<std::unique_ptr<BoostSession>> loaded =
        LoadPoolSnapshot(g, snapshot_path, PoolLoadOptions{});
    const double load_ms = load_timer.Seconds() * 1e3;
    if (!loaded.ok()) {
      std::fprintf(stderr, "load (S=%zu): %s\n", num_shards,
                   loaded.status().ToString().c_str());
      return 1;
    }

    PoolLoadOptions mmap_options;
    mmap_options.use_mmap = true;
    WallTimer mmap_timer;
    StatusOr<std::unique_ptr<BoostSession>> mapped =
        LoadPoolSnapshot(g, snapshot_path, mmap_options);
    const double mmap_ms = mmap_timer.Seconds() * 1e3;
    if (!mapped.ok()) {
      std::fprintf(stderr, "mmap load (S=%zu): %s\n", num_shards,
                   mapped.status().ToString().c_str());
      return 1;
    }

    // Bit-identity gates: this S against the S = 1 reference, and the
    // loaded snapshot against the pool it was saved from.
    const PrrCollection& pool = session.engine().collection();
    size_t min_graphs = 0, max_graphs = 0;
    for (size_t s = 0; s < pool.num_shards(); ++s) {
      const size_t count = pool.shard_store(s).num_graphs();
      if (s == 0 || count < min_graphs) min_graphs = count;
      max_graphs = std::max(max_graphs, count);
      json.Add("shard_sweep/s" + std::to_string(num_shards) + "/shard_" +
                   std::to_string(s) + "_graphs",
               static_cast<double>(count), "graphs");
    }
    for (size_t i = 0; i < budgets.size(); ++i) {
      BoostResult live = session.SolveForBudget(budgets[i]);
      BoostResult warm = loaded.value()->SolveForBudget(budgets[i]);
      if (!SameAnswer(live, warm)) {
        std::fprintf(stderr,
                     "FATAL: snapshot round trip diverged at S=%zu k=%zu\n",
                     num_shards, budgets[i]);
        std::abort();
      }
      BoostResult zero_copy = mapped.value()->SolveForBudget(budgets[i]);
      if (!SameAnswer(live, zero_copy)) {
        std::fprintf(stderr,
                     "FATAL: mmap-served pool diverged at S=%zu k=%zu\n",
                     num_shards, budgets[i]);
        std::abort();
      }
      if (num_shards == 1) {
        reference.push_back(live);
      } else if (!SameAnswer(live, reference[i])) {
        std::fprintf(stderr,
                     "FATAL: S=%zu answers diverged from the S=1 monolith "
                     "at k=%zu\n",
                     num_shards, budgets[i]);
        std::abort();
      }
    }

    table.AddRow({std::to_string(num_shards), FormatDouble(prepare_s),
                  FormatDouble(save_ms),
                  FormatDouble(static_cast<double>(saved->file_bytes) / 1e6),
                  FormatDouble(saved->bytes_per_sample),
                  FormatDouble(load_ms), FormatDouble(mmap_ms),
                  std::to_string(min_graphs) + ".." +
                      std::to_string(max_graphs)});
    json.Add("shard_sweep/s" + std::to_string(num_shards) + "/prepare_s",
             prepare_s, "s");
    json.Add("shard_sweep/s" + std::to_string(num_shards) + "/save_ms",
             save_ms, "ms");
    json.Add("shard_sweep/s" + std::to_string(num_shards) + "/snapshot_bytes",
             static_cast<double>(saved->file_bytes), "bytes");
    json.Add("shard_sweep/s" + std::to_string(num_shards) +
                 "/bytes_per_sample",
             saved->bytes_per_sample, "bytes");
    json.Add("shard_sweep/s" + std::to_string(num_shards) + "/load_ms",
             load_ms, "ms");
    json.Add("shard_sweep/s" + std::to_string(num_shards) + "/mmap_load_ms",
             mmap_ms, "ms");
    json.Add("shard_sweep/s" + std::to_string(num_shards) + "/theta",
             static_cast<double>(pool.num_samples()), "samples");
  }
  std::filesystem::remove(snapshot_path);

  table.Print(std::cout);
  std::printf("\nall shard counts bit-identical to the S=1 monolith "
              "(live, snapshot-restored and mmap-served)\n");
  json.WriteTo(flags.json_path);
  return 0;
}
