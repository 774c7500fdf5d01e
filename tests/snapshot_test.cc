// Tests for the v3 snapshot layout and its one load path (src/io/pool_io)
// and the pluggable section codecs (src/io/codec): codec round trips on
// adversarial streams, mmap-vs-owned bit-identity, structural rejection of
// corrupted directories, typed rejection of older formats, endianness and
// thread-count header handling, the atomic-save contract, and the varint
// size and mmap load-time gates on the digg stand-in pool.

#include <gtest/gtest.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/codec.h"
#include "src/io/pool_io.h"
#include "src/util/fault.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"
#include "tests/same_answer.h"

namespace kboost {
namespace {

DirectedGraph MakeTestGraph(uint64_t seed = 7) {
  Rng rng(seed);
  GraphBuilder b = BuildErdosRenyi(80, 500, rng);
  b.AssignConstantProbability(0.12);
  b.SetBoostWithBeta(2.0);
  return std::move(b).Build();
}

BoostOptions MakeOptions(size_t k, int num_threads = 2) {
  BoostOptions options;
  options.k = k;
  options.seed = 11;
  options.num_threads = num_threads;
  return options;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

StatusOr<std::unique_ptr<BoostSession>> Load(const DirectedGraph& g,
                                             const std::string& path,
                                             bool use_mmap = false) {
  PoolLoadOptions options;
  options.use_mmap = use_mmap;
  return LoadPoolSnapshot(g, path, options);
}

Status SaveV3(BoostSession& session, const std::string& path,
              SnapshotCodec codec = SnapshotCodec::kNop) {
  session.Prepare();
  PoolSaveOptions options;
  options.codec = codec;
  return SavePoolSnapshot(session, path, options).status();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PokeU32(std::string* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

void PokeU64(std::string* bytes, size_t offset, uint64_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

uint64_t PeekU64(const std::string& bytes, size_t offset) {
  uint64_t value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// v3 layout landmarks for the corruption tests below: the 128-byte header,
/// the 32-byte extension, the seed list, then the directory (u64 num_graphs
/// + 8 x 32-byte section entries for the arena, then the coverage entry).
constexpr size_t kVersionOffset = 8;      // u32 right after the magic
constexpr size_t kNumThreadsOffset = 64;  // u32 in the header prefix
constexpr size_t kNumShardsOffset = 68;   // u32 right after num_threads
constexpr size_t kEndianOffset = 128;     // first field of the extension
size_t DirOffset(size_t num_seeds) { return 128 + 32 + 4 * num_seeds; }
size_t SectionEntryOffset(size_t dir, size_t section) {
  return dir + 8 + section * 32;
}
size_t CoverageEntryOffset(size_t dir) { return dir + 8 + 8 * 32; }

void ExpectSameAnswers(BoostSession& a, BoostSession& b,
                       const std::vector<size_t>& budgets) {
  for (size_t k : budgets) {
    EXPECT_TRUE(SameAnswer(a.SolveForBudget(k), b.SolveForBudget(k)))
        << "k=" << k;
  }
}

// ---- Codec unit tests -----------------------------------------------------

std::vector<uint32_t> RoundTrip(const Codec& codec,
                                const std::vector<uint32_t>& values) {
  std::string encoded;
  codec.Encode(values, &encoded);
  EXPECT_LE(encoded.size(), codec.MaxEncodedBytes(values.size()));
  std::vector<uint32_t> decoded(values.size());
  Status s = codec.Decode(encoded, decoded);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return decoded;
}

TEST(CodecTest, RegistryResolvesIdsAndNames) {
  ASSERT_NE(CodecById(0), nullptr);
  ASSERT_NE(CodecById(1), nullptr);
  EXPECT_EQ(CodecById(0)->id(), SnapshotCodec::kNop);
  EXPECT_EQ(CodecById(1)->id(), SnapshotCodec::kVarint);
  EXPECT_EQ(CodecById(77), nullptr);
  ASSERT_NE(CodecByName("nop"), nullptr);
  ASSERT_NE(CodecByName("varint"), nullptr);
  EXPECT_EQ(CodecByName("zstd"), nullptr);
  EXPECT_STREQ(CodecName(SnapshotCodec::kNop), "nop");
  EXPECT_STREQ(CodecName(SnapshotCodec::kVarint), "varint");
}

TEST(CodecTest, NopRoundTripsAndRejectsSizeMismatch) {
  const Codec& nop = *CodecById(0);
  const std::vector<uint32_t> values = {0, 1, 0xFFFFFFFFu, 42};
  EXPECT_EQ(RoundTrip(nop, values), values);
  EXPECT_EQ(RoundTrip(nop, {}), std::vector<uint32_t>{});

  std::string encoded;
  nop.Encode(values, &encoded);
  std::vector<uint32_t> out(values.size());
  EXPECT_FALSE(nop.Decode(std::span<const char>(encoded.data(),
                                                encoded.size() - 1),
                          out)
                   .ok());
  std::vector<uint32_t> short_out(values.size() - 1);
  EXPECT_FALSE(nop.Decode(encoded, short_out).ok());
}

TEST(CodecTest, VarintRoundTripsAdversarialStreams) {
  const Codec& varint = *CodecById(1);
  const std::vector<std::vector<uint32_t>> cases = {
      {},
      {0},
      {0xFFFFFFFFu},
      // Alternating extremes: every delta is +-UINT32_MAX, the widest
      // zigzag the codec can meet.
      {0, 0xFFFFFFFFu, 0, 0xFFFFFFFFu, 0},
      {1, 1, 1, 1},
      {5, 4, 3, 2, 1, 0},
      {0, 1u << 7, 1u << 14, 1u << 21, 1u << 28, 0xFFFFFFFFu},
  };
  for (const auto& values : cases) {
    SCOPED_TRACE("case size " + std::to_string(values.size()));
    EXPECT_EQ(RoundTrip(varint, values), values);
  }
  // Fuzz: random streams must survive, including value-width jumps.
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<uint32_t> values(rng.NextBounded(200));
    for (uint32_t& v : values) {
      const uint32_t width = 1 + static_cast<uint32_t>(rng.NextBounded(32));
      v = static_cast<uint32_t>(rng.NextBounded(1ull << width));
    }
    SCOPED_TRACE("fuzz round " + std::to_string(round));
    EXPECT_EQ(RoundTrip(varint, values), values);
  }
}

TEST(CodecTest, VarintDecodeRejectsMalformedStreams) {
  const Codec& varint = *CodecById(1);
  const std::vector<uint32_t> values = {7, 0xFFFFFFFFu, 0, 123456};
  std::string encoded;
  varint.Encode(values, &encoded);
  std::vector<uint32_t> out(values.size());

  // Truncated mid-varint.
  EXPECT_FALSE(varint
                   .Decode(std::span<const char>(encoded.data(),
                                                 encoded.size() - 1),
                           out)
                   .ok());
  // Trailing bytes after the last value.
  std::string trailing = encoded + '\0';
  EXPECT_FALSE(varint.Decode(trailing, out).ok());
  // A 5-byte varint whose high bits push past uint32.
  const char overflow[] = {'\xFF', '\xFF', '\xFF', '\xFF', '\x7F'};
  std::vector<uint32_t> one(1);
  EXPECT_FALSE(varint
                   .Decode(std::span<const char>(overflow, sizeof(overflow)),
                           one)
                   .ok());
  // A varint that never terminates (every byte has the continuation bit).
  const char runaway[] = {'\xFF', '\xFF', '\xFF', '\xFF', '\xFF', '\xFF'};
  EXPECT_FALSE(varint
                   .Decode(std::span<const char>(runaway, sizeof(runaway)),
                           one)
                   .ok());
  // Empty stream but one value expected.
  EXPECT_FALSE(varint.Decode(std::span<const char>(), one).ok());
}

// ---- v3 round trips: mmap vs owned ----------------------------------------

TEST(SnapshotV3Test, MmapRoundTripIsBitIdenticalAcrossThreads) {
  DirectedGraph g = MakeTestGraph(13);
  const std::vector<NodeId> seeds = {0, 5};
  const std::string path = TempPath("kboost_v3_fuzz.bin");
  Rng fuzz(4242);
  for (int combo = 0; combo < 4; ++combo) {
    const int num_threads = 1 + static_cast<int>(fuzz.NextBounded(4));
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    BoostSession session(g, seeds, MakeOptions(10, num_threads));
    ASSERT_TRUE(SaveV3(session, path).ok());

    StatusOr<std::unique_ptr<BoostSession>> owned = Load(g, path);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    StatusOr<std::unique_ptr<BoostSession>> mapped =
        Load(g, path, /*use_mmap=*/true);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    const PrrCollection& pool = mapped.value()->engine().collection();
    EXPECT_EQ(pool.num_samples(),
              session.engine().collection().num_samples());

    const size_t k = 1 + fuzz.NextBounded(10);
    ExpectSameAnswers(session, *mapped.value(), {1, k, 10});
    ExpectSameAnswers(*owned.value(), *mapped.value(), {1, k, 10});
  }
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, MmapVerifyMappedAlsoLoads) {
  DirectedGraph g = MakeTestGraph(31);
  const std::string path = TempPath("kboost_v3_verify.bin");
  BoostSession session(g, {0, 1}, MakeOptions(8, 2));
  ASSERT_TRUE(SaveV3(session, path).ok());
  PoolLoadOptions options;
  options.use_mmap = true;
  options.verify_mapped = true;
  StatusOr<std::unique_ptr<BoostSession>> mapped =
      LoadPoolSnapshot(g, path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameAnswers(session, *mapped.value(), {3, 8});
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, MmapSurvivesFileUnlink) {
  // The session pins the mapping (RetainResource), and POSIX keeps mapped
  // pages valid after unlink — a hot-swap that deletes the old snapshot
  // must not pull the arena out from under in-flight queries.
  DirectedGraph g = MakeTestGraph(37);
  const std::string path = TempPath("kboost_v3_unlink.bin");
  BoostSession session(g, {0, 2}, MakeOptions(8, 2));
  ASSERT_TRUE(SaveV3(session, path).ok());
  StatusOr<std::unique_ptr<BoostSession>> mapped =
      Load(g, path, /*use_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::filesystem::remove(path);
  ExpectSameAnswers(session, *mapped.value(), {1, 4, 8});
}

// ---- one load path: every codec and mode, owned or mapped -----------------

TEST(SnapshotV3Test, MmapLoadsVarintSnapshots) {
  // Coded sections decode into one owned buffer on either byte source.
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_v3_varint_mmap.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5, 2));
  ASSERT_TRUE(SaveV3(session, path, SnapshotCodec::kVarint).ok());
  StatusOr<std::unique_ptr<BoostSession>> r = Load(g, path, /*use_mmap=*/true);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ExpectSameAnswers(session, *r.value(), {1, 3, 5});
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, MmapLoadsLbOnlySnapshots) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_v3_lb_mmap.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5), /*lb_only=*/true);
  ASSERT_TRUE(SaveV3(session, path).ok());
  for (const bool use_mmap : {false, true}) {
    StatusOr<std::unique_ptr<BoostSession>> r = Load(g, path, use_mmap);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value()->lb_only());
    EXPECT_EQ(r.value()->engine().collection().StoredGraphBytes(),
              session.engine().collection().StoredGraphBytes());
    ExpectSameAnswers(session, *r.value(), {1, 5});
  }
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, OwnedLoadIsAPrivateCopy) {
  // An owned load keeps no tie to the file: truncating it to zero bytes
  // (which would fault a mapping) leaves the session's answers unchanged.
  DirectedGraph g = MakeTestGraph(53);
  const std::string path = TempPath("kboost_v3_private.bin");
  BoostSession session(g, {0, 4}, MakeOptions(8, 3));
  for (const SnapshotCodec codec :
       {SnapshotCodec::kNop, SnapshotCodec::kVarint}) {
    ASSERT_TRUE(SaveV3(session, path, codec).ok());
    StatusOr<std::unique_ptr<BoostSession>> owned = Load(g, path);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    std::filesystem::resize_file(path, 0);
    ExpectSameAnswers(session, *owned.value(), {1, 4, 8});
  }
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, OlderVersionsAreRejectedTypedAskingForAResave) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_old_version.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(SaveV3(session, path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Versions 1, 2 and a future 4, and a v3 header that splits the pool into
  // two arenas, as older builds could.
  const struct {
    size_t offset;
    uint32_t value;
    const char* name;
  } rows[] = {{kVersionOffset, 1, "version 1"},
              {kVersionOffset, 2, "version 2"},
              {kVersionOffset, 4, "version 4"},
              {kNumShardsOffset, 2, "two arenas"}};
  for (const auto& row : rows) {
    std::string old = bytes;
    PokeU32(&old, row.offset, row.value);
    WriteFileBytes(path, old);
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE(std::string(row.name) + (use_mmap ? " mmap" : " owned"));
      StatusOr<std::unique_ptr<BoostSession>> r = Load(g, path, use_mmap);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find("re-save"), std::string::npos)
          << r.status().ToString();
    }
  }
  std::filesystem::remove(path);
}

// ---- atomic save ----------------------------------------------------------

std::vector<std::string> TempSiblings(const std::string& path) {
  std::vector<std::string> found;
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".tmp.";
  for (const auto& entry :
       std::filesystem::directory_iterator(p.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      found.push_back(entry.path().string());
    }
  }
  return found;
}

TEST(SnapshotV3Test, ResaveUnderAMappedSessionKeepsItServing) {
  // Re-saving the snapshot a session serves from an mmap used to rewrite
  // the mapped file in place and kill the process at its next solve. The
  // save now renames a new file over the path; the mapping keeps the old
  // inode and its answers.
  DirectedGraph g = MakeTestGraph(59);
  const std::string path = TempPath("kboost_v3_resave.bin");
  BoostSession pool_a(g, {0, 1}, MakeOptions(8, 2));
  ASSERT_TRUE(SaveV3(pool_a, path).ok());
  StatusOr<std::unique_ptr<BoostSession>> mapped =
      Load(g, path, /*use_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  BoostOptions options_b = MakeOptions(12, 3);
  options_b.seed = 97;
  BoostSession pool_b(g, {2, 3}, options_b);
  ASSERT_TRUE(SaveV3(pool_b, path).ok());

  ExpectSameAnswers(pool_a, *mapped.value(), {1, 5, 8});
  // The path now holds B.
  StatusOr<std::unique_ptr<BoostSession>> reloaded = Load(g, path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameAnswers(pool_b, *reloaded.value(), {1, 12});
  EXPECT_TRUE(TempSiblings(path).empty());
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, FailedSaveLeavesTheOldFileAndNoTempFile) {
  DirectedGraph g = MakeTestGraph(61);
  const std::string path = TempPath("kboost_v3_failed_save.bin");
  BoostSession pool_a(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(SaveV3(pool_a, path).ok());
  const std::string before = ReadFileBytes(path);

  BoostSession pool_b(g, {2, 3}, MakeOptions(9, 2));
  pool_b.Prepare();
  FaultInjector::Plan fail;
  fail.fail_first = 1;
  FaultInjector::Global().Arm(FaultSite::kSnapshotWrite, fail);
  StatusOr<PoolSaveResult> saved =
      SavePoolSnapshot(pool_b, path, PoolSaveOptions());
  EXPECT_EQ(FaultInjector::Global().hits(FaultSite::kSnapshotWrite), 1u);
  FaultInjector::Global().DisarmAll();
  ASSERT_FALSE(saved.ok());
  EXPECT_EQ(saved.status().code(), StatusCode::kIoError);
  EXPECT_EQ(ReadFileBytes(path), before);
  EXPECT_TRUE(TempSiblings(path).empty());
  std::filesystem::remove(path);
}

// ---- codec-coded snapshots ------------------------------------------------

TEST(SnapshotV3Test, VarintSnapshotShrinksAndRoundTrips) {
  DirectedGraph g = MakeTestGraph(41);
  const std::string nop_path = TempPath("kboost_v3_nop.bin");
  const std::string varint_path = TempPath("kboost_v3_varint.bin");
  BoostSession session(g, {0, 3}, MakeOptions(10, 3));
  session.Prepare();
  PoolSaveOptions nop_options;
  StatusOr<PoolSaveResult> nop_saved =
      SavePoolSnapshot(session, nop_path, nop_options);
  ASSERT_TRUE(nop_saved.ok());
  PoolSaveOptions varint_options;
  varint_options.codec = SnapshotCodec::kVarint;
  StatusOr<PoolSaveResult> varint_saved =
      SavePoolSnapshot(session, varint_path, varint_options);
  ASSERT_TRUE(varint_saved.ok());

  EXPECT_LT(varint_saved->file_bytes, nop_saved->file_bytes);
  EXPECT_LT(varint_saved->bytes_per_sample, nop_saved->bytes_per_sample);

  StatusOr<std::unique_ptr<BoostSession>> loaded =
      Load(g, varint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameAnswers(session, *loaded.value(), {2, 6, 10});
  std::filesystem::remove(nop_path);
  std::filesystem::remove(varint_path);
}

/// Best-of-kLoadReps wall-clock times, in ms, of cold (owned) and mmap
/// loads of `path`, taken alternately so that a noisy stretch of the host
/// slows both kinds alike; `sessions[0]` and `sessions[1]` keep the last
/// cold and mmap session for the answer checks. Each load starts from a
/// trimmed heap, so its buffers fault in fresh pages as in a fresh process,
/// rather than reusing pages the previous load already faulted.
constexpr int kLoadReps = 9;
void BestLoadMs(const DirectedGraph& g, const std::string& path,
                double best_ms[2], std::unique_ptr<BoostSession> sessions[2]) {
  for (int rep = 0; rep < kLoadReps; ++rep) {
    for (const bool use_mmap : {false, true}) {
#ifdef __GLIBC__
      malloc_trim(0);
#endif
      WallTimer timer;
      StatusOr<std::unique_ptr<BoostSession>> loaded =
          Load(g, path, use_mmap);
      const double ms = timer.Seconds() * 1e3;
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      sessions[use_mmap] = loaded.ok() ? std::move(loaded).value() : nullptr;
      best_ms[use_mmap] = rep == 0 ? ms : std::min(best_ms[use_mmap], ms);
    }
  }
}

/// The snapshot format's gate on the digg stand-in pool it is tuned for (20
/// influential seeds, k = 50, ε = 0.35: θ = 106,698). Every codec × byte
/// source loads bit-identically to the live pool, and varint shrinks
/// bytes/sample ≥ 2× against nop. In optimized builds, where wall time
/// means something, the best mmap load must also be ≥ 1.5× faster than the
/// best cold nop load (kLoadReps of each, alternating) once the pool has
/// ≥ 100k samples: both loads share the header parse, structural checks and
/// AttachExternal, so the ratio falls below 1 when O(bytes) work — a heap
/// copy of the mapping, say — lands on the mmap path. On a 4-core x86-64
/// box (GCC 12.2, Release), 20 runs of its ctest entry measured 1.91–2.17×
/// (cold 1.4–2.0 ms, mmap 0.7–1.0 ms), 10 runs beside a `ctest -j4` of the
/// other entries 1.97–2.94×, and with the mapping copied to the heap
/// 0.91–0.96×. The entry still runs serially.
TEST(SnapshotStandInTest, VarintShrinksAndMmapBeatsTheColdLoad) {
  const Dataset dataset = MakeDataset(SpecByName("digg", 0.02));
  const DirectedGraph& g = dataset.graph;
  constexpr size_t kBudget = 50;
  BoostOptions options;
  options.k = kBudget;
  options.epsilon = 0.35;
  options.seed = 42;
  options.max_samples = 1'000'000;
  BoostSession live(
      g, SelectInfluentialSeeds(g, 20, 42, options.num_threads), options);
  live.Prepare();
  const size_t num_samples = live.engine().collection().num_samples();

  const std::string nop_path = TempPath("kboost_stand_in_nop.bin");
  const std::string varint_path = TempPath("kboost_stand_in_varint.bin");
  PoolSaveOptions varint_options;
  varint_options.codec = SnapshotCodec::kVarint;
  StatusOr<PoolSaveResult> nop = SavePoolSnapshot(live, nop_path, {});
  StatusOr<PoolSaveResult> varint =
      SavePoolSnapshot(live, varint_path, varint_options);
  ASSERT_TRUE(nop.ok()) << nop.status().ToString();
  ASSERT_TRUE(varint.ok()) << varint.status().ToString();
  const double varint_ratio =
      nop->bytes_per_sample / varint->bytes_per_sample;
  EXPECT_GE(varint_ratio, 2.0) << "nop " << nop->bytes_per_sample
                               << " B/sample, varint "
                               << varint->bytes_per_sample;

  const std::vector<size_t> budgets = {1, kBudget / 2, kBudget};
  double best_ms[2] = {0.0, 0.0};
  std::unique_ptr<BoostSession> loaded[2];
  BestLoadMs(g, nop_path, best_ms, loaded);
  const double cold_ms = best_ms[0];
  const double mmap_ms = best_ms[1];
  for (const std::unique_ptr<BoostSession>& session : loaded) {
    ASSERT_NE(session, nullptr);
    ExpectSameAnswers(live, *session, budgets);
  }
  for (const bool use_mmap : {false, true}) {
    SCOPED_TRACE(use_mmap ? "varint mmap" : "varint owned");
    StatusOr<std::unique_ptr<BoostSession>> varint_loaded =
        Load(g, varint_path, use_mmap);
    ASSERT_TRUE(varint_loaded.ok()) << varint_loaded.status().ToString();
    ExpectSameAnswers(live, **varint_loaded, budgets);
  }
  for (std::unique_ptr<BoostSession>& session : loaded) session.reset();

  const double mmap_speedup = cold_ms / std::max(mmap_ms, 1e-9);
  std::printf("theta %zu; varint %.2fx smaller per sample; cold nop load "
              "%.3f ms, mmap load %.3f ms: %.2fx\n",
              num_samples, varint_ratio, cold_ms, mmap_ms, mmap_speedup);
#ifdef NDEBUG
  if (num_samples >= 100'000) {
    EXPECT_GE(mmap_speedup, 1.5)
        << "mmap load " << mmap_ms << " ms vs cold nop load " << cold_ms
        << " ms";
  }
#endif
  std::filesystem::remove(nop_path);
  std::filesystem::remove(varint_path);
}

TEST(SnapshotV3Test, SaveResultReportsBytesPerSample) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_v3_result.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  session.Prepare();
  StatusOr<PoolSaveResult> saved =
      SavePoolSnapshot(session, path, PoolSaveOptions());
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->file_bytes, std::filesystem::file_size(path));
  const PrrCollection& pool = session.engine().collection();
  EXPECT_EQ(saved->num_samples, pool.num_samples());
  ASSERT_GT(saved->num_samples, 0u);
  EXPECT_DOUBLE_EQ(saved->bytes_per_sample,
                   static_cast<double>(saved->file_bytes) /
                       static_cast<double>(saved->num_samples));
  std::filesystem::remove(path);
}

// ---- header handling ------------------------------------------------------

TEST(SnapshotV3Test, EndianMarkerMismatchIsRejected) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_v3_endian.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(SaveV3(session, path).ok());
  std::string bytes = ReadFileBytes(path);
  PokeU32(&bytes, kEndianOffset, 0x04030201u);  // byte-swapped marker
  WriteFileBytes(path, bytes);
  StatusOr<std::unique_ptr<BoostSession>> r = Load(g, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("byte order"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(SnapshotV3Test, ThreadCountIsClampedNotTrusted) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_v3_threads.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(SaveV3(session, path).ok());
  std::string bytes = ReadFileBytes(path);

  // An absurd recorded thread count must load, clamped into the worker
  // range — not abort or spawn 4 billion workers.
  PokeU32(&bytes, kNumThreadsOffset, 0xFFFFFFFFu);
  WriteFileBytes(path, bytes);
  StatusOr<std::unique_ptr<BoostSession>> clamped = Load(g, path);
  ASSERT_TRUE(clamped.ok()) << clamped.status().ToString();
  EXPECT_EQ(clamped.value()->engine().options().num_threads,
            ThreadPool::kMaxWorkers);
  // One solve is enough here (answers are thread-count-invariant); keep the
  // 256-worker session cheap under the sanitizers.
  ExpectSameAnswers(session, *clamped.value(), {5});

  // Zero means "the writer didn't record one": keep the default.
  PokeU32(&bytes, kNumThreadsOffset, 0);
  WriteFileBytes(path, bytes);
  StatusOr<std::unique_ptr<BoostSession>> defaulted =
      Load(g, path);
  ASSERT_TRUE(defaulted.ok()) << defaulted.status().ToString();
  EXPECT_EQ(defaulted.value()->engine().options().num_threads,
            BoostOptions().num_threads);
  std::filesystem::remove(path);
}

// ---- structural rejection of corrupt v3 directories -----------------------

class V3CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("kboost_v3_corrupt.bin");
    BoostSession session(graph_, seeds_, MakeOptions(6));
    ASSERT_TRUE(SaveV3(session, path_).ok());
    bytes_ = ReadFileBytes(path_);
    dir_ = DirOffset(seeds_.size());
    ASSERT_GT(bytes_.size(), dir_);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  void ExpectRejected(const std::string& needle) {
    WriteFileBytes(path_, bytes_);
    StatusOr<std::unique_ptr<BoostSession>> r =
        Load(graph_, path_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find(needle), std::string::npos)
        << r.status().ToString();
    // The mmap path runs the same structural validation.
    StatusOr<std::unique_ptr<BoostSession>> m =
        Load(graph_, path_, /*use_mmap=*/true);
    ASSERT_FALSE(m.ok());
    EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
  }

  DirectedGraph graph_ = MakeTestGraph(47);
  const std::vector<NodeId> seeds_ = {0, 1};
  std::string path_;
  std::string bytes_;
  size_t dir_ = 0;
};

TEST_F(V3CorruptionTest, TruncatedSnapshotIsRejected) {
  WriteFileBytes(path_, bytes_);
  std::filesystem::resize_file(path_, bytes_.size() - 5);
  EXPECT_FALSE(Load(graph_, path_).ok());
  EXPECT_FALSE(Load(graph_, path_, /*use_mmap=*/true).ok());
}

TEST_F(V3CorruptionTest, MisalignedSectionIsRejected) {
  const size_t entry = SectionEntryOffset(dir_, 0);
  PokeU64(&bytes_, entry, PeekU64(bytes_, entry) + 2);  // 4-misalign offset
  ExpectRejected("misaligned");
}

TEST_F(V3CorruptionTest, OverlappingSectionsAreRejected) {
  // Point section 1 back into section 0's block.
  const size_t first = SectionEntryOffset(dir_, 0);
  const size_t second = SectionEntryOffset(dir_, 1);
  PokeU64(&bytes_, second, PeekU64(bytes_, first));
  ExpectRejected("overlaps");
}

TEST_F(V3CorruptionTest, OverstatedSectionIsRejected) {
  PokeU64(&bytes_, SectionEntryOffset(dir_, 2) + 8, uint64_t{1} << 60);
  ExpectRejected("overlaps another section or exceeds");
}

TEST_F(V3CorruptionTest, UnknownCodecIdIsRejected) {
  PokeU32(&bytes_, SectionEntryOffset(dir_, 0) + 24, 77);
  ExpectRejected("unknown codec");
}

TEST_F(V3CorruptionTest, InflatedValueCountIsRejectedNotAllocated) {
  // raw_bytes promising billions of values from a small stored block must
  // be rejected before any allocation sized from it.
  const size_t entry = SectionEntryOffset(dir_, 5);
  PokeU64(&bytes_, entry + 16, uint64_t{1} << 40);
  ExpectRejected("");
}

TEST_F(V3CorruptionTest, CriticalEntryAtSuperSeedSlotIsRejected) {
  // Local 0 is the super-seed slot; its global id is kInvalidNode, so a
  // critical entry pointing at it would feed an unvalidated id to the
  // coverage index (found by fuzz_snapshot: segfault at first solve).
  const size_t entry = SectionEntryOffset(dir_, 7);
  const uint64_t crit_offset = PeekU64(bytes_, entry);
  ASSERT_GE(PeekU64(bytes_, entry + 16), 4u);  // the arena has criticals
  PokeU32(&bytes_, crit_offset, 0);
  WriteFileBytes(path_, bytes_);
  StatusOr<std::unique_ptr<BoostSession>> r = Load(graph_, path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The mmap path runs the same deep walk when verification is requested.
  PoolLoadOptions verify;
  verify.use_mmap = true;
  verify.verify_mapped = true;
  EXPECT_FALSE(LoadPoolSnapshot(graph_, path_, verify).ok());
}

TEST_F(V3CorruptionTest, LiveSuperSeedEdgeIsRejected) {
  // Sampling stores only graphs with f_R(∅) = 0, so every super-seed
  // out-edge is a boost edge. The arena's first out-edge is graph 0's first
  // super-seed edge; with its boost bit cleared the graph is an activated
  // sample, which used to load and read Δ̂(∅) > 0.
  const size_t entry = SectionEntryOffset(dir_, 5);
  ASSERT_GE(PeekU64(bytes_, entry + 16), 4u);  // the arena stores edges
  const uint64_t edges_offset = PeekU64(bytes_, entry);
  uint32_t first_edge = 0;
  std::memcpy(&first_edge, bytes_.data() + edges_offset, sizeof(first_edge));
  ASSERT_TRUE(PrrGraph::EdgeBoost(first_edge));
  PokeU32(&bytes_, edges_offset, first_edge & ~1u);
  WriteFileBytes(path_, bytes_);
  StatusOr<std::unique_ptr<BoostSession>> r = Load(graph_, path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("super-seed"), std::string::npos)
      << r.status().ToString();
  PoolLoadOptions verify;
  verify.use_mmap = true;
  verify.verify_mapped = true;
  StatusOr<std::unique_ptr<BoostSession>> m =
      LoadPoolSnapshot(graph_, path_, verify);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(V3CorruptionTest, InvalidHeaderSamplingOptionsAreRejectedTyped) {
  // ℓ lives at header offset 40; zero must be a typed rejection — it used
  // to reach the trusting BoostSession constructor and KB_CHECK-abort the
  // process (found by fuzz_snapshot).
  PokeU64(&bytes_, 40, 0);  // the f64 bit pattern of 0.0
  WriteFileBytes(path_, bytes_);
  StatusOr<std::unique_ptr<BoostSession>> r = Load(graph_, path_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("sampling options"), std::string::npos)
      << r.status().ToString();
  EXPECT_FALSE(Load(graph_, path_, /*use_mmap=*/true).ok());
}

TEST_F(V3CorruptionTest, NopSectionWithMismatchedSizesIsRejected) {
  // A nop block must be stored verbatim: shrink raw_bytes (keeping it a
  // multiple of 4) and the stored/raw equality check must fire.
  const size_t entry = SectionEntryOffset(dir_, 5);
  const uint64_t raw = PeekU64(bytes_, entry + 16);
  if (raw >= 8) {
    PokeU64(&bytes_, entry + 16, raw - 4);
    ExpectRejected("stored != raw");
  }
}

TEST_F(V3CorruptionTest, MissingCoverageSectionIsRejectedAskingForAResave) {
  // Older builds wrote compressed snapshots without the coverage section
  // (an all-zero directory entry); every load now binds it in place.
  const size_t entry = CoverageEntryOffset(dir_);
  for (size_t i = 0; i < 32; i += 8) PokeU64(&bytes_, entry + i, 0);
  ExpectRejected("re-save");
}

}  // namespace
}  // namespace kboost
