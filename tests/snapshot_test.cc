// Tests for the v4 snapshot layout and its one load path (src/io/pool_io):
// mmap-vs-owned bit-identity for full and LB-only pools, typed rejection of
// corrupted directories and arenas on every load, typed rejection of older
// formats, endianness and thread-count header handling, the atomic-save
// contract, and the mmap load-time gate on the digg stand-in pool.

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
#include <string>
#include <vector>

#include "src/core/boost_session.h"
#include "src/expt/datasets.h"
#include "src/expt/seed_selection.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
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

Status Save(BoostSession& session, const std::string& path) {
  session.Prepare();
  return SavePoolSnapshot(session, path, PoolSaveOptions{}).status();
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

uint32_t PeekU32(const std::string& bytes, size_t offset) {
  uint32_t value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

uint64_t PeekU64(const std::string& bytes, size_t offset) {
  uint64_t value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// v4 layout landmarks for the corruption tests below: the 120-byte header,
/// the seed list, then the directory (u64 set count, then one 16-byte
/// {u64 offset, u64 bytes} entry per section, in Section order).
constexpr size_t kVersionOffset = 8;      // u32 right after the magic
constexpr size_t kFlagsOffset = 12;       // u32 right after the version
constexpr size_t kNumThreadsOffset = 64;  // u32
constexpr size_t kEndianOffset = 68;      // u32 right after num_threads
constexpr uint32_t kFlagLbOnly = 1;
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

void ExpectSameAnswers(BoostSession& a, BoostSession& b,
                       const std::vector<size_t>& budgets) {
  for (size_t k : budgets) {
    EXPECT_TRUE(SameAnswer(SolveAt(a, k), SolveAt(b, k)))
        << "k=" << k;
  }
}

// ---- round trips: mmap vs owned -------------------------------------------

TEST(SnapshotTest, MmapRoundTripIsBitIdenticalAcrossThreads) {
  DirectedGraph g = MakeTestGraph(13);
  const std::vector<NodeId> seeds = {0, 5};
  const std::string path = TempPath("kboost_snap_fuzz.bin");
  Rng fuzz(4242);
  for (int combo = 0; combo < 4; ++combo) {
    const int num_threads = 1 + static_cast<int>(fuzz.NextBounded(4));
    SCOPED_TRACE("threads=" + std::to_string(num_threads));
    BoostSession session(g, seeds, MakeOptions(10, num_threads));
    ASSERT_TRUE(Save(session, path).ok());

    StatusOr<std::unique_ptr<BoostSession>> owned = Load(g, path);
    ASSERT_TRUE(owned.ok()) << owned.status().ToString();
    StatusOr<std::unique_ptr<BoostSession>> mapped =
        Load(g, path, /*use_mmap=*/true);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    const PrrCollection& pool = mapped.value()->collection();
    EXPECT_EQ(pool.num_samples(),
              session.collection().num_samples());

    const size_t k = 1 + fuzz.NextBounded(10);
    ExpectSameAnswers(session, *mapped.value(), {1, k, 10});
    ExpectSameAnswers(*owned.value(), *mapped.value(), {1, k, 10});
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, MmapVerifyMappedAlsoLoads) {
  DirectedGraph g = MakeTestGraph(31);
  const std::string path = TempPath("kboost_snap_verify.bin");
  BoostSession session(g, {0, 1}, MakeOptions(8, 2));
  ASSERT_TRUE(Save(session, path).ok());
  PoolLoadOptions options;
  options.use_mmap = true;
  options.verify_mapped = true;
  StatusOr<std::unique_ptr<BoostSession>> mapped =
      LoadPoolSnapshot(g, path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameAnswers(session, *mapped.value(), {3, 8});
  std::filesystem::remove(path);
}

TEST(SnapshotTest, MmapSurvivesFileUnlink) {
  // The session pins the mapping (RetainResource), and POSIX keeps mapped
  // pages valid after unlink — a hot-swap that deletes the old snapshot
  // must not pull the arena out from under in-flight queries.
  DirectedGraph g = MakeTestGraph(37);
  const std::string path = TempPath("kboost_snap_unlink.bin");
  BoostSession session(g, {0, 2}, MakeOptions(8, 2));
  ASSERT_TRUE(Save(session, path).ok());
  StatusOr<std::unique_ptr<BoostSession>> mapped =
      Load(g, path, /*use_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::filesystem::remove(path);
  ExpectSameAnswers(session, *mapped.value(), {1, 4, 8});
}

// ---- one load path: every mode, owned or mapped ---------------------------

TEST(SnapshotTest, MmapLoadsLbOnlySnapshots) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_snap_lb_mmap.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5), /*lb_only=*/true);
  ASSERT_TRUE(Save(session, path).ok());
  for (const bool use_mmap : {false, true}) {
    StatusOr<std::unique_ptr<BoostSession>> r = Load(g, path, use_mmap);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value()->lb_only());
    EXPECT_EQ(r.value()->collection().StoredGraphBytes(),
              session.collection().StoredGraphBytes());
    ExpectSameAnswers(session, *r.value(), {1, 5});
  }
  std::filesystem::remove(path);
}

TEST(SnapshotTest, OwnedLoadIsAPrivateCopy) {
  // An owned load keeps no tie to the file: truncating it to zero bytes
  // (which would fault a mapping) leaves the session's answers unchanged.
  DirectedGraph g = MakeTestGraph(53);
  const std::string path = TempPath("kboost_snap_private.bin");
  BoostSession session(g, {0, 4}, MakeOptions(8, 3));
  ASSERT_TRUE(Save(session, path).ok());
  StatusOr<std::unique_ptr<BoostSession>> owned = Load(g, path);
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  std::filesystem::resize_file(path, 0);
  ExpectSameAnswers(session, *owned.value(), {1, 4, 8});
  std::filesystem::remove(path);
}

TEST(SnapshotTest, OlderVersionsAreRejectedTypedAskingForAResave) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_old_version.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(Save(session, path).ok());
  const std::string bytes = ReadFileBytes(path);
  // Versions 1 and 2 (stream formats), 3 (a body of its own for LB-only
  // pools) and a future 5.
  for (const uint32_t version : {1u, 2u, 3u, 5u}) {
    std::string old = bytes;
    PokeU32(&old, kVersionOffset, version);
    WriteFileBytes(path, old);
    for (const bool use_mmap : {false, true}) {
      SCOPED_TRACE("version " + std::to_string(version) +
                   (use_mmap ? " mmap" : " owned"));
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

TEST(SnapshotTest, ResaveUnderAMappedSessionKeepsItServing) {
  // Re-saving the snapshot a session serves from an mmap used to rewrite
  // the mapped file in place and kill the process at its next solve. The
  // save now renames a new file over the path; the mapping keeps the old
  // inode and its answers.
  DirectedGraph g = MakeTestGraph(59);
  const std::string path = TempPath("kboost_snap_resave.bin");
  BoostSession pool_a(g, {0, 1}, MakeOptions(8, 2));
  ASSERT_TRUE(Save(pool_a, path).ok());
  StatusOr<std::unique_ptr<BoostSession>> mapped =
      Load(g, path, /*use_mmap=*/true);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  BoostOptions options_b = MakeOptions(12, 3);
  options_b.seed = 97;
  BoostSession pool_b(g, {2, 3}, options_b);
  ASSERT_TRUE(Save(pool_b, path).ok());

  ExpectSameAnswers(pool_a, *mapped.value(), {1, 5, 8});
  // The path now holds B.
  StatusOr<std::unique_ptr<BoostSession>> reloaded = Load(g, path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectSameAnswers(pool_b, *reloaded.value(), {1, 12});
  EXPECT_TRUE(TempSiblings(path).empty());
  std::filesystem::remove(path);
}

TEST(SnapshotTest, FailedSaveLeavesTheOldFileAndNoTempFile) {
  DirectedGraph g = MakeTestGraph(61);
  const std::string path = TempPath("kboost_snap_failed_save.bin");
  BoostSession pool_a(g, {0, 1}, MakeOptions(6));
  ASSERT_TRUE(Save(pool_a, path).ok());
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
/// influential seeds, k = 50, ε = 0.35: θ = 106,698). Both byte sources
/// load bit-identically to the live pool. In optimized builds, where wall
/// time means something, the best mmap load must also be ≥ 1.5× faster
/// than the best cold load (kLoadReps of each, alternating) once the pool
/// has ≥ 100k samples: both loads share the header parse, structural
/// checks and AttachExternal, so the ratio falls below 1 when O(bytes) work
/// — a heap copy of the mapping, say — lands on the mmap path. On a 4-core x86-64
/// box (GCC 12.2, Release), 20 runs of its ctest entry measured 1.91–2.17×
/// (cold 1.4–2.0 ms, mmap 0.7–1.0 ms), 10 runs beside a `ctest -j4` of the
/// other entries 1.97–2.94×, and with the mapping copied to the heap
/// 0.91–0.96×. The entry still runs serially.
TEST(SnapshotStandInTest, MmapLoadBeatsTheColdLoadBitIdentically) {
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
  const size_t num_samples = live.collection().num_samples();

  const std::string path = TempPath("kboost_stand_in.bin");
  StatusOr<PoolSaveResult> saved = SavePoolSnapshot(live, path, {});
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  const std::vector<size_t> budgets = {1, kBudget / 2, kBudget};
  double best_ms[2] = {0.0, 0.0};
  std::unique_ptr<BoostSession> loaded[2];
  BestLoadMs(g, path, best_ms, loaded);
  const double cold_ms = best_ms[0];
  const double mmap_ms = best_ms[1];
  for (const std::unique_ptr<BoostSession>& session : loaded) {
    ASSERT_NE(session, nullptr);
    ExpectSameAnswers(live, *session, budgets);
  }
  for (std::unique_ptr<BoostSession>& session : loaded) session.reset();

  const double mmap_speedup = cold_ms / std::max(mmap_ms, 1e-9);
  std::printf("theta %zu; cold load %.3f ms, mmap load %.3f ms: %.2fx\n",
              num_samples, cold_ms, mmap_ms, mmap_speedup);
#ifdef NDEBUG
  if (num_samples >= 100'000) {
    EXPECT_GE(mmap_speedup, 1.5)
        << "mmap load " << mmap_ms << " ms vs cold load " << cold_ms
        << " ms";
  }
#endif
  std::filesystem::remove(path);
}

TEST(SnapshotTest, SaveResultReportsBytesPerSample) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_snap_result.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  session.Prepare();
  StatusOr<PoolSaveResult> saved =
      SavePoolSnapshot(session, path, PoolSaveOptions());
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->file_bytes, std::filesystem::file_size(path));
  const PrrCollection& pool = session.collection();
  EXPECT_EQ(saved->num_samples, pool.num_samples());
  ASSERT_GT(saved->num_samples, 0u);
  EXPECT_DOUBLE_EQ(saved->bytes_per_sample,
                   static_cast<double>(saved->file_bytes) /
                       static_cast<double>(saved->num_samples));
  std::filesystem::remove(path);
}

// ---- header handling ------------------------------------------------------

TEST(SnapshotTest, EndianMarkerMismatchIsRejected) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_snap_endian.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(Save(session, path).ok());
  std::string bytes = ReadFileBytes(path);
  PokeU32(&bytes, kEndianOffset, 0x04030201u);  // byte-swapped marker
  WriteFileBytes(path, bytes);
  StatusOr<std::unique_ptr<BoostSession>> r = Load(g, path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("byte order"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(SnapshotTest, ThreadCountIsClampedNotTrusted) {
  DirectedGraph g = MakeTestGraph();
  const std::string path = TempPath("kboost_snap_threads.bin");
  BoostSession session(g, {0, 1}, MakeOptions(5));
  ASSERT_TRUE(Save(session, path).ok());
  std::string bytes = ReadFileBytes(path);

  // An absurd recorded thread count must load, clamped into the worker
  // range — not abort or spawn 4 billion workers.
  PokeU32(&bytes, kNumThreadsOffset, 0xFFFFFFFFu);
  WriteFileBytes(path, bytes);
  StatusOr<std::unique_ptr<BoostSession>> clamped = Load(g, path);
  ASSERT_TRUE(clamped.ok()) << clamped.status().ToString();
  EXPECT_EQ(clamped.value()->options().num_threads,
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
  EXPECT_EQ(defaulted.value()->options().num_threads,
            BoostOptions().num_threads);
  std::filesystem::remove(path);
}

// ---- typed rejection of corrupt directories and arenas --------------------

class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("kboost_snap_corrupt.bin");
    SaveAndRead(/*lb_only=*/false);
  }

  void TearDown() override { std::filesystem::remove(path_); }

  void SaveAndRead(bool lb_only) {
    BoostSession session(graph_, seeds_, MakeOptions(6), lb_only);
    ASSERT_TRUE(Save(session, path_).ok());
    bytes_ = ReadFileBytes(path_);
    dir_ = DirOffset(seeds_.size());
    ASSERT_GT(bytes_.size(), dir_);
  }

  /// Section `section`'s absolute offset and uint32 count.
  size_t SectionOffset(Section section) const {
    return PeekU64(bytes_, SectionEntryOffset(dir_, section));
  }
  size_t SectionCount(Section section) const {
    return PeekU64(bytes_, SectionEntryOffset(dir_, section) + 8) / 4;
  }

  /// Every load rejects the bytes typed: owned, mmap, and mmap with the deep
  /// checks, which an mmap load skips unless asked.
  void ExpectRejected(const std::string& needle) {
    WriteFileBytes(path_, bytes_);
    for (const int load : {0, 1, 2}) {
      SCOPED_TRACE(load == 0 ? "owned" : load == 1 ? "mmap" : "mmap+verify");
      PoolLoadOptions options;
      options.use_mmap = load > 0;
      options.verify_mapped = load == 2;
      StatusOr<std::unique_ptr<BoostSession>> r =
          LoadPoolSnapshot(graph_, path_, options);
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(r.status().message().find(needle), std::string::npos)
          << r.status().ToString();
    }
  }

  DirectedGraph graph_ = MakeTestGraph(47);
  const std::vector<NodeId> seeds_ = {0, 1};
  std::string path_;
  std::string bytes_;
  size_t dir_ = 0;
};

TEST_F(SnapshotCorruptionTest, TruncatedSnapshotIsRejected) {
  WriteFileBytes(path_, bytes_);
  std::filesystem::resize_file(path_, bytes_.size() - 5);
  EXPECT_FALSE(Load(graph_, path_).ok());
  EXPECT_FALSE(Load(graph_, path_, /*use_mmap=*/true).ok());
}

TEST_F(SnapshotCorruptionTest, MisalignedSectionIsRejected) {
  const size_t entry = SectionEntryOffset(dir_, kSetSizes);
  PokeU64(&bytes_, entry, PeekU64(bytes_, entry) + 2);  // 4-misalign offset
  ExpectRejected("misaligned");
}

TEST_F(SnapshotCorruptionTest, OverlappingSectionsAreRejected) {
  // Point the coverage section back into the set-size section's block.
  PokeU64(&bytes_, SectionEntryOffset(dir_, kCoverage),
          SectionOffset(kSetSizes));
  ExpectRejected("overlaps");
}

TEST_F(SnapshotCorruptionTest, OverstatedSectionIsRejected) {
  PokeU64(&bytes_, SectionEntryOffset(dir_, kNumNodes) + 8, uint64_t{1} << 60);
  ExpectRejected("overlaps another section or exceeds");
}

TEST_F(SnapshotCorruptionTest, InflatedValueCountIsRejectedNotAllocated) {
  // A byte count promising billions of values from a small block must be
  // rejected before any allocation sized from it.
  PokeU64(&bytes_, SectionEntryOffset(dir_, kOutEdges) + 8, uint64_t{1} << 40);
  ExpectRejected("");
}

TEST_F(SnapshotCorruptionTest, CriticalEntryAtSuperSeedSlotIsRejected) {
  // Local 0 is the super-seed slot; its global id is kInvalidNode, so a
  // critical entry pointing at it would feed an unvalidated id to the
  // coverage index (found by fuzz_snapshot: segfault at first solve). A
  // default mmap load used to skip the check and crash at Prepare().
  ASSERT_GE(SectionCount(kCritical), 1u);  // the arena has criticals
  PokeU32(&bytes_, SectionOffset(kCritical), 0);
  ExpectRejected("critical id out of range");
}

TEST_F(SnapshotCorruptionTest, EdgeEndpointOutOfRangeIsRejected) {
  // An out-edge head past its graph's nodes; a default mmap load used to
  // accept it and crash in the first Δ̂ evaluation.
  ASSERT_GE(SectionCount(kOutEdges), 1u);
  PokeU32(&bytes_, SectionOffset(kOutEdges),
          PrrGraph::PackEdge(0xFFFFFFu, true));
  ExpectRejected("edge endpoint out of range");
}

TEST_F(SnapshotCorruptionTest, EdgeIntoTheSuperSeedIsRejected) {
  // Every out-edge x -> root of an intermediate x retargeted to the
  // super-seed slot, its boost bit kept: every endpoint stays inside its
  // graph and every super-seed out-edge stays a boost edge, yet an
  // evaluator reaching local 0 reads its kInvalidNode global id. Owned and
  // mmap loads alike used to accept it and crash at Prepare().
  const size_t num_nodes = SectionOffset(kNumNodes);
  const size_t out_offsets = SectionOffset(kOutOffsets);
  const size_t out_edges = SectionOffset(kOutEdges);
  size_t node_begin = 0, edge_begin = 0, retargeted = 0;
  for (size_t g = 0; g < SectionCount(kNumNodes); ++g) {
    const uint32_t n = PeekU32(bytes_, num_nodes + 4 * g);
    const size_t offsets = out_offsets + 4 * (node_begin + g);
    for (uint32_t x = 2; x < n; ++x) {
      for (uint32_t e = PeekU32(bytes_, offsets + 4 * x);
           e < PeekU32(bytes_, offsets + 4 * (x + 1)); ++e) {
        const size_t at = out_edges + 4 * (edge_begin + e);
        const uint32_t packed = PeekU32(bytes_, at);
        if (PrrGraph::EdgeNode(packed) != PrrGraph::kRootLocal) continue;
        PokeU32(&bytes_, at,
                PrrGraph::PackEdge(PrrGraph::kSuperSeedLocal,
                                   PrrGraph::EdgeBoost(packed)));
        ++retargeted;
      }
    }
    edge_begin += PeekU32(bytes_, offsets + 4 * n);
    node_begin += n;
  }
  ASSERT_GT(retargeted, 0u);
  ExpectRejected("edge endpoint out of range");
}

TEST_F(SnapshotCorruptionTest, LiveSuperSeedEdgeIsRejected) {
  // Sampling stores only graphs with f_R(∅) = 0, so every super-seed
  // out-edge is a boost edge. The arena's first out-edge is graph 0's first
  // super-seed edge; with its boost bit cleared the graph is an activated
  // sample, which used to load and read Δ̂(∅) > 0. It cannot read out of
  // bounds, so only the deep checks look for it.
  ASSERT_GE(SectionCount(kOutEdges), 1u);  // the arena stores edges
  const size_t edges_offset = SectionOffset(kOutEdges);
  const uint32_t first_edge = PeekU32(bytes_, edges_offset);
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

TEST_F(SnapshotCorruptionTest, InvalidHeaderSamplingOptionsAreRejectedTyped) {
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

TEST_F(SnapshotCorruptionTest, LbSetSizesOverstatingTheCoverageAreRejected) {
  // The set sizes must sum to the coverage section's count; binding them
  // otherwise would abort the process.
  SaveAndRead(/*lb_only=*/true);
  ASSERT_GE(SectionCount(kSetSizes), 1u);
  const size_t first = SectionOffset(kSetSizes);
  PokeU32(&bytes_, first, PeekU32(bytes_, first) + 1);
  ExpectRejected("set sizes sum to");
}

TEST_F(SnapshotCorruptionTest, LbFileWithAnArenaIsRejected) {
  // A full pool's file whose flags claim an LB-only pool: an LB-only pool
  // stores its critical sets alone, so a non-empty arena entry is corrupt.
  ASSERT_GE(SectionCount(kNumNodes), 1u);
  PokeU32(&bytes_, kFlagsOffset, PeekU32(bytes_, kFlagsOffset) | kFlagLbOnly);
  ExpectRejected("LB-only pool snapshot carries a PRR-graph arena");
}

}  // namespace
}  // namespace kboost
