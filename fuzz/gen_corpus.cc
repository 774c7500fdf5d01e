// Corpus generator for the fuzz harnesses: writes the checked-in seed
// corpus under fuzz/corpus/{wire,snapshot}. Regenerate after a protocol or
// snapshot-format change:
//
//   ./build/fuzz_gen_corpus fuzz/corpus
//
// Wire seeds are one valid frame of every type plus one instance of each
// header rejection (bad magic / version / flags / type / oversized length /
// truncation) — the decoder-hardening matrix from tests/net_test.cc as
// files. Snapshot seeds are full-mode and LB-only v4 snapshots of one
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
#include "src/core/prr_graph.h"
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

uint32_t PeekU32(const std::string& bytes, size_t offset) {
  uint32_t value;
  KB_CHECK(offset + sizeof(value) <= bytes.size());
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
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

// v4 layout landmarks (tests/snapshot_test.cc documents the layout): the
// 120-byte header, the seed list, then the directory — a u64 set count and
// one 16-byte {offset, bytes} entry per section.
constexpr size_t kVersionOffset = 8;
constexpr size_t kFlagsOffset = 12;
constexpr size_t kNumThreadsOffset = 64;
constexpr size_t kEndianOffset = 68;
enum Section : size_t {
  kSetSizes,
  kCoverage,
  kNumNodes,
  kGlobalIds,
  kOutOffsets,
  kInOffsets,
  kOutEdges,
  kInEdges,
  kCritical,
};
size_t DirOffset(size_t num_seeds) { return 120 + 4 * num_seeds; }
size_t SectionEntryOffset(size_t dir, Section section) {
  return dir + 8 + section * 16;
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

  const std::string full = save_bytes(session);
  const std::string lb = save_bytes(lb_session);
  fs::remove(scratch);

  WriteCase(dir, "v4_full.bin", full);
  WriteCase(dir, "v4_lb_only.bin", lb);

  // Older formats are rejected typed, asking for a re-save: a v4 file whose
  // header claims version 3 exercises that gate.
  std::string version3 = full;
  PokeU32(&version3, kVersionOffset, 3);
  WriteCase(dir, "version3_header.bin", version3);

  // The corruption matrix as seed files: each is a valid snapshot with one
  // structural lie, mirroring tests/snapshot_test.cc.
  const size_t d = DirOffset(seeds.size());
  const auto section_offset = [d](const std::string& bytes, Section s) {
    return PeekU64(bytes, SectionEntryOffset(d, s));
  };
  const auto section_count = [d](const std::string& bytes, Section s) {
    return PeekU64(bytes, SectionEntryOffset(d, s) + 8) / 4;
  };

  WriteCase(dir, "truncated.bin", full.substr(0, full.size() - 5));
  WriteCase(dir, "truncated_header.bin", full.substr(0, 40));

  std::string misaligned = full;
  const size_t entry0 = SectionEntryOffset(d, kSetSizes);
  PokeU64(&misaligned, entry0, PeekU64(misaligned, entry0) + 2);
  WriteCase(dir, "misaligned_section.bin", misaligned);

  std::string overlapping = full;
  PokeU64(&overlapping, SectionEntryOffset(d, kCoverage),
          section_offset(full, kSetSizes));
  WriteCase(dir, "overlapping_sections.bin", overlapping);

  std::string overstated = full;
  PokeU64(&overstated, SectionEntryOffset(d, kNumNodes) + 8,
          uint64_t{1} << 60);
  WriteCase(dir, "overstated_section.bin", overstated);

  std::string inflated = full;
  PokeU64(&inflated, SectionEntryOffset(d, kOutEdges) + 8, uint64_t{1} << 40);
  WriteCase(dir, "inflated_value_count.bin", inflated);

  std::string byteswapped = full;
  PokeU32(&byteswapped, kEndianOffset, 0x04030201u);
  WriteCase(dir, "endian_mismatch.bin", byteswapped);

  std::string wild_threads = full;
  PokeU32(&wild_threads, kNumThreadsOffset, 0xFFFFFFFFu);
  WriteCase(dir, "wild_thread_count.bin", wild_threads);

  // Regression seeds for the two defects the fuzzer found when this harness
  // first ran. (1) A critical entry pointing at the super-seed slot (local
  // 0) used to pass deep validation and smuggle the slot's kInvalidNode
  // global id into the coverage index — a segfault at first solve.
  std::string superseed_critical = full;
  KB_CHECK(section_count(full, kCritical) >= 1);
  PokeU32(&superseed_critical, section_offset(full, kCritical), 0);
  WriteCase(dir, "critical_superseed.bin", superseed_critical);

  // (2) A corrupt header ℓ (offset 40) used to reach the trusting
  // BoostSession constructor and abort the process via KB_CHECK instead of
  // being rejected typed.
  std::string zero_ell = full;
  PokeU64(&zero_ell, 40, 0);  // 0.0 ℓ — Validate() must reject, not abort
  WriteCase(dir, "zero_ell.bin", zero_ell);

  // A live super-seed out-edge: graph 0's first out-edge (the super-seed's)
  // with its boost bit cleared. Sampling never stores such an activated
  // graph, so deep validation must reject it; it used to load and read
  // Δ̂(∅) > 0.
  std::string live_superseed = full;
  KB_CHECK(section_count(full, kOutEdges) >= 1);
  const uint64_t edges_off = section_offset(full, kOutEdges);
  const uint32_t first_edge = PeekU32(live_superseed, edges_off);
  KB_CHECK(PrrGraph::EdgeBoost(first_edge))
      << "super-seed edges are boost edges";
  PokeU32(&live_superseed, edges_off, first_edge & ~1u);
  WriteCase(dir, "live_superseed_edge.bin", live_superseed);

  // Two files a default mmap load used to accept and crash on: an out-edge
  // head past its graph, and every out-edge x -> root of an intermediate x
  // retargeted to the super-seed slot (boost bit kept).
  std::string wild_endpoint = full;
  PokeU32(&wild_endpoint, edges_off, PrrGraph::PackEdge(0xFFFFFFu, true));
  WriteCase(dir, "edge_endpoint_out_of_range.bin", wild_endpoint);

  std::string into_superseed = full;
  const uint64_t num_nodes = section_offset(full, kNumNodes);
  const uint64_t out_offsets = section_offset(full, kOutOffsets);
  uint64_t node_begin = 0, edge_begin = 0, retargeted = 0;
  for (uint64_t g = 0; g < section_count(full, kNumNodes); ++g) {
    const uint32_t n = PeekU32(full, num_nodes + 4 * g);
    const uint64_t offsets = out_offsets + 4 * (node_begin + g);
    for (uint32_t x = 2; x < n; ++x) {
      for (uint32_t e = PeekU32(full, offsets + 4 * x);
           e < PeekU32(full, offsets + 4 * (x + 1)); ++e) {
        const uint64_t at = edges_off + 4 * (edge_begin + e);
        const uint32_t packed = PeekU32(full, at);
        if (PrrGraph::EdgeNode(packed) != PrrGraph::kRootLocal) continue;
        PokeU32(&into_superseed, at,
                PrrGraph::PackEdge(PrrGraph::kSuperSeedLocal,
                                   PrrGraph::EdgeBoost(packed)));
        ++retargeted;
      }
    }
    edge_begin += PeekU32(full, offsets + 4 * n);
    node_begin += n;
  }
  KB_CHECK(retargeted > 0);
  WriteCase(dir, "edge_into_superseed.bin", into_superseed);

  // The LB-only rows: set sizes that overstate the coverage section, and a
  // full pool's file whose flags claim an LB-only pool (a non-empty arena).
  std::string lb_overstated = lb;
  KB_CHECK(section_count(lb, kSetSizes) >= 1);
  const uint64_t sizes_off = section_offset(lb, kSetSizes);
  PokeU32(&lb_overstated, sizes_off, PeekU32(lb, sizes_off) + 1);
  WriteCase(dir, "lb_set_sizes_overstated.bin", lb_overstated);

  std::string lb_with_arena = full;
  PokeU32(&lb_with_arena, kFlagsOffset, PeekU32(full, kFlagsOffset) | 1u);
  WriteCase(dir, "lb_flag_with_arena.bin", lb_with_arena);
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
