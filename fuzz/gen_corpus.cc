// Corpus generator for the fuzz harnesses: writes the checked-in seed
// corpus under fuzz/corpus/{wire,snapshot}. Regenerate after a protocol or
// snapshot-format change:
//
//   ./build/fuzz_gen_corpus fuzz/corpus
//
// Wire seeds are one valid frame of every type plus one instance of each
// header rejection (bad magic / version / flags / type / oversized length /
// truncation) — the decoder-hardening matrix from tests/net_test.cc as
// files. Snapshot seeds are full-mode and LB-only v3 snapshots of one
// tiny fixed pool (the same graph fuzz_snapshot.cc loads against) plus one
// file per corruption-matrix case from tests/snapshot_test.cc, so the
// mutation fuzzer starts at the validator's known edges instead of
// rediscovering them from garbage. Output is deterministic: two runs write
// byte-identical files, which the CI drift check relies on.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/net/wire.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace kboost {
namespace {

namespace fs = std::filesystem;

void WriteCase(const fs::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  KB_CHECK(out.good());
}

void PokeU32(std::string* bytes, size_t offset, uint32_t value) {
  KB_CHECK(offset + sizeof(value) <= bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

void PokeU64(std::string* bytes, size_t offset, uint64_t value) {
  KB_CHECK(offset + sizeof(value) <= bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

uint64_t PeekU64(const std::string& bytes, size_t offset) {
  uint64_t value;
  KB_CHECK(offset + sizeof(value) <= bytes.size());
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

// ---- wire seeds -----------------------------------------------------------

void GenerateWireCorpus(const fs::path& dir) {
  fs::create_directories(dir);

  WireQuery query;
  query.pool = "default";
  query.k = 5;
  query.mode = SolveMode::kAuto;
  WriteCase(dir, "query.bin", EncodeQueryFrame(1, query));

  WireQuery lb_query;
  lb_query.pool = "a-much-longer-pool-name-with-punct._-chars";
  lb_query.k = std::numeric_limits<uint64_t>::max();
  lb_query.mode = SolveMode::kLbOnly;
  WriteCase(dir, "query_lb_extreme_k.bin", EncodeQueryFrame(2, lb_query));

  WireQueryReply reply;
  reply.status = Status::Ok();
  reply.pool_version = 3;
  reply.solve_seconds = 0.0625;
  reply.best_set = {1, 2, 3};
  reply.best_estimate = 12.5;
  reply.lb_set = {4, 5};
  reply.lb_mu_hat = 7.25;
  reply.lb_delta_hat = 1.5;
  reply.delta_set = {6};
  reply.delta_delta_hat = std::numeric_limits<double>::infinity();
  reply.pool_budget = 10;
  reply.pool_reused = true;
  reply.num_samples = 4096;
  reply.num_boostable = 17;
  WriteCase(dir, "query_reply_ok.bin", EncodeQueryReplyFrame(1, reply));

  // A non-OK reply the query path still produces: the drain's reject.
  WireQueryReply draining;
  draining.status = Status::Unavailable("server shutting down");
  WriteCase(dir, "query_reply_unavailable.bin",
            EncodeQueryReplyFrame(9, draining));

  WriteCase(dir, "stats.bin", EncodeStatsFrame(4));

  ServiceStatsSnapshot stats;
  PoolStatsSnapshot pool;
  pool.pool = "default";
  pool.version = 2;
  pool.refreshes = 1;
  pool.queries = 100;
  pool.errors = 3;
  stats.pools.push_back(pool);
  stats.not_found = 5;
  WriteCase(dir, "stats_reply.bin", EncodeStatsReplyFrame(4, stats));

  WireRefresh refresh;
  refresh.pool = "default";
  refresh.snapshot_path = "/var/lib/kboost/pool.v3.kbsnap";
  WriteCase(dir, "refresh.bin", EncodeRefreshFrame(5, refresh));

  WireRefreshReply refresh_reply;
  refresh_reply.status = Status::Ok();
  refresh_reply.version = 4;
  WriteCase(dir, "refresh_reply.bin",
            EncodeRefreshReplyFrame(5, refresh_reply));

  WriteCase(dir, "shutdown.bin", EncodeShutdownFrame(6));
  WriteCase(dir, "shutdown_reply.bin", EncodeShutdownReplyFrame(6));

  WriteCase(dir, "error.bin",
            EncodeErrorFrame(7, Status::InvalidArgument("bad frame: magic")));

  // Header rejection matrix — handcraft one file per rejected axis.
  const std::string valid = EncodeQueryFrame(8, query);

  std::string bad_magic = valid;
  PokeU32(&bad_magic, 0, 0x4B525744u);
  WriteCase(dir, "bad_magic.bin", bad_magic);

  std::string bad_version = valid;
  bad_version[4] = static_cast<char>(kWireVersion + 1);
  WriteCase(dir, "bad_version.bin", bad_version);

  std::string bad_flags = valid;
  bad_flags[6] = 0x01;
  WriteCase(dir, "nonzero_flags.bin", bad_flags);

  std::string bad_type = valid;
  bad_type[5] = 0x7F;
  WriteCase(dir, "unknown_type.bin", bad_type);

  std::string oversized = valid;
  PokeU32(&oversized, 12, 0xFFFFFFFFu);
  WriteCase(dir, "oversized_body_len.bin", oversized);

  WriteCase(dir, "truncated_header.bin", valid.substr(0, 7));
  WriteCase(dir, "truncated_body.bin",
            valid.substr(0, kFrameHeaderBytes + 3));

  std::string trailing = valid;
  trailing += "XX";  // body_len still claims the original length
  WriteCase(dir, "trailing_bytes.bin", trailing);
}

// ---- snapshot seeds -------------------------------------------------------

// MUST match fuzz_snapshot.cc's FuzzGraph(): the harness loads every corpus
// file against this exact graph.
DirectedGraph CorpusGraph() {
  Rng rng(7);
  GraphBuilder b = BuildErdosRenyi(24, 96, rng);
  b.AssignConstantProbability(0.2);
  b.SetBoostWithBeta(2.0);
  return std::move(b).Build();
}

// v3 layout landmarks (tests/snapshot_test.cc documents the layout): the
// 128-byte header, the 32-byte extension, the seed list, then the arena's
// section directory.
constexpr size_t kVersionOffset = 8;
constexpr size_t kNumThreadsOffset = 64;
constexpr size_t kNumShardsOffset = 68;
constexpr size_t kEndianOffset = 128;
size_t DirOffset(size_t num_seeds) { return 128 + 32 + 4 * num_seeds; }
size_t SectionEntryOffset(size_t dir, size_t section) {
  return dir + 8 + section * 32;
}

void GenerateSnapshotCorpus(const fs::path& dir) {
  fs::create_directories(dir);

  DirectedGraph graph = CorpusGraph();
  const std::vector<NodeId> seeds = {0, 5};
  BoostOptions options;
  options.k = 2;
  options.seed = 11;
  options.num_threads = 2;
  options.max_samples = 64;  // keep the checked-in seed files a few KiB
  BoostSession session(graph, seeds, options);
  session.Prepare();

  const std::string scratch =
      (fs::temp_directory_path() / "kboost_gen_corpus.bin").string();
  auto save_bytes = [&](const BoostSession& pool) -> std::string {
    StatusOr<PoolSaveResult> result =
        SavePoolSnapshot(pool, scratch, PoolSaveOptions{});
    KB_CHECK(result.ok());
    std::ifstream in(scratch, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };

  BoostSession lb_session(graph, seeds, options, /*lb_only=*/true);
  lb_session.Prepare();

  const std::string v3_nop = save_bytes(session);
  const std::string v3_lb = save_bytes(lb_session);
  fs::remove(scratch);

  WriteCase(dir, "v3_nop.bin", v3_nop);
  WriteCase(dir, "v3_lb_only.bin", v3_lb);

  // Older formats are rejected typed, asking for a re-save: a v3 file whose
  // header claims version 2 exercises that gate, and one whose header claims
  // two arenas (older builds could split a pool) the single-arena gate.
  std::string version2 = v3_nop;
  PokeU32(&version2, kVersionOffset, 2);
  WriteCase(dir, "version2_header.bin", version2);
  std::string two_arenas = v3_nop;
  PokeU32(&two_arenas, kNumShardsOffset, 2);
  WriteCase(dir, "two_arena_header.bin", two_arenas);

  // The PR 9 corruption matrix as seed files: each is the valid v3-nop
  // snapshot with one structural lie, mirroring tests/snapshot_test.cc.
  const size_t d = DirOffset(seeds.size());
  KB_CHECK(v3_nop.size() > SectionEntryOffset(d, 7) + 32);

  WriteCase(dir, "truncated.bin", v3_nop.substr(0, v3_nop.size() - 5));
  WriteCase(dir, "truncated_header.bin", v3_nop.substr(0, 40));

  std::string misaligned = v3_nop;
  const size_t entry0 = SectionEntryOffset(d, 0);
  PokeU64(&misaligned, entry0, PeekU64(misaligned, entry0) + 2);
  WriteCase(dir, "misaligned_section.bin", misaligned);

  std::string overlapping = v3_nop;
  PokeU64(&overlapping, SectionEntryOffset(d, 1),
          PeekU64(overlapping, SectionEntryOffset(d, 0)));
  WriteCase(dir, "overlapping_sections.bin", overlapping);

  std::string overstated = v3_nop;
  PokeU64(&overstated, SectionEntryOffset(d, 2) + 8, uint64_t{1} << 60);
  WriteCase(dir, "overstated_section.bin", overstated);

  std::string bad_codec = v3_nop;
  PokeU32(&bad_codec, SectionEntryOffset(d, 0) + 24, 77);
  WriteCase(dir, "unknown_codec.bin", bad_codec);

  std::string inflated = v3_nop;
  PokeU64(&inflated, SectionEntryOffset(d, 5) + 16, uint64_t{1} << 40);
  WriteCase(dir, "inflated_value_count.bin", inflated);

  std::string nop_mismatch = v3_nop;
  const size_t entry5 = SectionEntryOffset(d, 5);
  const uint64_t raw = PeekU64(nop_mismatch, entry5 + 16);
  if (raw >= 8) {
    PokeU64(&nop_mismatch, entry5 + 16, raw - 4);
    WriteCase(dir, "nop_size_mismatch.bin", nop_mismatch);
  }

  std::string byteswapped = v3_nop;
  PokeU32(&byteswapped, kEndianOffset, 0x04030201u);
  WriteCase(dir, "endian_mismatch.bin", byteswapped);

  std::string wild_threads = v3_nop;
  PokeU32(&wild_threads, kNumThreadsOffset, 0xFFFFFFFFu);
  WriteCase(dir, "wild_thread_count.bin", wild_threads);

  // Regression seeds for the two defects the fuzzer found when this harness
  // first ran. (1) A critical entry pointing at the super-seed slot (local
  // 0) used to pass deep validation and smuggle the slot's kInvalidNode
  // global id into the coverage index — a segfault at first solve.
  std::string superseed_critical = v3_nop;
  const size_t crit_entry = SectionEntryOffset(d, 7);
  const uint64_t crit_off = PeekU64(superseed_critical, crit_entry);
  PokeU32(&superseed_critical, crit_off, 0);
  WriteCase(dir, "critical_superseed.bin", superseed_critical);

  // (2) A corrupt header ℓ (offset 40) used to reach the trusting
  // BoostSession constructor and abort the process via KB_CHECK instead of
  // being rejected typed.
  std::string zero_ell = v3_nop;
  PokeU64(&zero_ell, 40, 0);  // 0.0 ℓ — Validate() must reject, not abort
  WriteCase(dir, "zero_ell.bin", zero_ell);

  // A live super-seed out-edge: graph 0's first out-edge (the super-seed's)
  // with its boost bit cleared. Sampling never stores such an activated
  // graph, so deep validation must reject it; it used to load and read
  // Δ̂(∅) > 0.
  std::string live_superseed = v3_nop;
  const size_t edges_entry = SectionEntryOffset(d, 5);
  KB_CHECK(PeekU64(live_superseed, edges_entry + 16) >= sizeof(uint32_t));
  const uint64_t edges_off = PeekU64(live_superseed, edges_entry);
  uint32_t first_edge = 0;
  std::memcpy(&first_edge, live_superseed.data() + edges_off,
              sizeof(first_edge));
  KB_CHECK((first_edge & 1u) != 0) << "super-seed edges are boost edges";
  PokeU32(&live_superseed, edges_off, first_edge & ~1u);
  WriteCase(dir, "live_superseed_edge.bin", live_superseed);
}

}  // namespace
}  // namespace kboost

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus_root>\n", argv[0]);
    return 2;
  }
  const std::filesystem::path root = argv[1];
  kboost::GenerateWireCorpus(root / "wire");
  kboost::GenerateSnapshotCorpus(root / "snapshot");
  std::fprintf(stderr, "corpus written under %s\n", root.c_str());
  return 0;
}
