#include "src/io/pool_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <span>
#include <vector>

#include "src/core/prr_collection.h"
#include "src/core/prr_sampler.h"
#include "src/util/fault.h"
#include "src/util/thread_pool.h"

namespace kboost {

namespace {

constexpr char kMagic[8] = {'K', 'B', 'P', 'R', 'R', 'P', 'O', 'L'};
/// The only format version this build reads or writes (layout in
/// pool_io.h). Versions 1 and 2 were stream formats without the section
/// directory, and version 3 stored LB-only pools in a body of their own;
/// their files are rejected with a request to re-save.
constexpr uint32_t kVersion = 4;

constexpr uint32_t kFlagLbOnly = 1u << 0;
constexpr uint32_t kFlagSamplesCapped = 1u << 1;

constexpr uint64_t kHeaderBytes = 120;  // magic included
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr uint64_t kArenaAlign = 4096;  // the arena region starts page-aligned
constexpr uint64_t kBlockAlign = 64;    // section blocks cache-line-aligned

/// Fixed-size snapshot header: the first kHeaderBytes of the file, magic
/// included. Every field is written explicitly (VisitHeader, no struct
/// dump), so the on-disk layout is independent of compiler padding.
struct Header {
  uint32_t version = kVersion;
  uint32_t flags = 0;
  uint64_t num_graph_nodes = 0;
  uint64_t pool_budget = 0;  // BoostOptions::k the schedule sampled at
  double epsilon = 0.0;
  double ell = 0.0;
  uint64_t rng_seed = 0;
  uint64_t max_samples = 0;
  uint32_t num_threads = 0;
  uint32_t endian_marker = kEndianMarker;
  uint64_t num_seeds = 0;
  uint64_t num_activated = 0;
  uint64_t num_hopeless = 0;
  uint64_t edges_examined = 0;
  uint64_t uncompressed_edges = 0;
  uint64_t compressed_edges = 0;
};

/// Calls `f` on every header field in file order (after the magic).
template <typename H, typename F>
void VisitHeader(H& h, F&& f) {
  f(h.version);
  f(h.flags);
  f(h.num_graph_nodes);
  f(h.pool_budget);
  f(h.epsilon);
  f(h.ell);
  f(h.rng_seed);
  f(h.max_samples);
  f(h.num_threads);
  f(h.endian_marker);
  f(h.num_seeds);
  f(h.num_activated);
  f(h.num_hopeless);
  f(h.edges_examined);
  f(h.uncompressed_edges);
  f(h.compressed_edges);
}

/// The sections, in directory and file order: a pool's critical sets as
/// per-set sizes plus their concatenated global ids (the coverage node
/// pool), then the arena region — PrrStore::ArenaSections, whose
/// num_critical is the set-size section. An LB-only pool stores its critical
/// sets alone, so its arena sections are empty.
enum SectionIndex : size_t {
  kSecSetSizes,
  kSecCoverage,
  kSecNumNodes,
  kSecGlobalIds,
  kSecOutOffsets,
  kSecInOffsets,
  kSecOutEdges,
  kSecInEdges,
  kSecCritical,
  kNumSections,
};

/// The directory, right after the seed list: u64 num_sets (the boostable
/// sample count), then one {u64 offset, u64 bytes} entry per section.
/// Offsets are absolute in the file; a section's bytes ARE its uint32 values.
constexpr uint64_t kDirBytes = 8 + kNumSections * 16;

template <typename T>
void WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T LoadAt(const char* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

uint64_t AlignUp(uint64_t value, uint64_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

void WriteZeros(std::ostream& out, uint64_t count) {
  static constexpr char kZeros[4096] = {};
  while (count > 0) {
    const uint64_t chunk = std::min<uint64_t>(count, sizeof(kZeros));
    out.write(kZeros, static_cast<std::streamsize>(chunk));
    count -= chunk;
  }
}

void WriteHeader(std::ostream& out, const Header& h) {
  out.write(kMagic, sizeof(kMagic));
  VisitHeader(h, [&out](const auto& field) { WritePod(out, field); });
}

/// Parses the header from the first bytes of the file.
Status ParseHeader(const char* base, uint64_t size, const std::string& path,
                   Header* h) {
  if (size < sizeof(kMagic) || std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a kboost pool snapshot: " + path);
  }
  if (size < sizeof(kMagic) + sizeof(uint32_t)) {
    return Status::IoError("truncated pool snapshot header: " + path);
  }
  // Version gates the field layout, so it is checked before anything else.
  const uint32_t version = LoadAt<uint32_t>(base + sizeof(kMagic));
  if (version != kVersion) {
    return Status::InvalidArgument(
        "pool snapshot version " + std::to_string(version) +
        " is not readable by this build, which reads only version " +
        std::to_string(kVersion) +
        "; re-save the pool from its graph and options: " + path);
  }
  if (size < kHeaderBytes) {
    return Status::IoError("truncated pool snapshot header: " + path);
  }
  const char* p = base + sizeof(kMagic);
  VisitHeader(*h, [&p](auto& field) {
    std::memcpy(&field, p, sizeof(field));
    p += sizeof(field);
  });
  if (h->endian_marker != kEndianMarker) {
    return Status::InvalidArgument(
        "pool snapshot byte order does not match this host "
        "(endianness marker mismatch): " +
        path);
  }
  return Status::Ok();
}

/// Coverage ids index per-node arrays during selection, so every one must
/// name a node of the serving graph (one fused branch on the happy path).
Status CheckCoverageIds(std::span<const NodeId> nodes,
                        uint64_t num_graph_nodes, const std::string& path) {
  bool in_range = true;
  for (const NodeId v : nodes) in_range &= v < num_graph_nodes;
  if (!in_range) {
    return Status::OutOfRange("snapshot coverage node out of range: " + path);
  }
  return Status::Ok();
}

/// Reads the directory at `dir_begin` and validates it against the file:
/// every section 4-byte aligned, in bounds, in file order and a whole number
/// of uint32 values; num_sets set sizes that sum to the coverage section's
/// count (CoverageSelector::BindExternalSets aborts otherwise); and an empty
/// arena for an LB-only pool. Outputs each section's values, in place in the
/// snapshot bytes.
Status ParseDirectory(const char* base, uint64_t file_size, uint64_t dir_begin,
                      bool lb_only, const std::string& path,
                      std::span<const uint32_t> (&values)[kNumSections]) {
  if (dir_begin > file_size || kDirBytes > file_size - dir_begin) {
    return Status::InvalidArgument("snapshot directory out of bounds: " +
                                   path);
  }
  const char* dir = base + dir_begin;
  const uint64_t num_sets = LoadAt<uint64_t>(dir);
  uint64_t prev_end = dir_begin + kDirBytes;
  for (size_t i = 0; i < kNumSections; ++i) {
    const uint64_t offset = LoadAt<uint64_t>(dir + 8 + 16 * i);
    const uint64_t bytes = LoadAt<uint64_t>(dir + 16 + 16 * i);
    const auto reject = [&](const char* what) {
      return Status::InvalidArgument("section " + std::to_string(i) + " " +
                                     what + ": " + path);
    };
    if (offset % sizeof(uint32_t) != 0 || bytes % sizeof(uint32_t) != 0) {
      return reject("is misaligned");
    }
    if (offset < prev_end || offset > file_size ||
        bytes > file_size - offset) {
      return reject("overlaps another section or exceeds the snapshot");
    }
    if (lb_only && i >= kSecNumNodes && bytes != 0) {
      return Status::InvalidArgument(
          "LB-only pool snapshot carries a PRR-graph arena: " + path);
    }
    values[i] = {reinterpret_cast<const uint32_t*>(base + offset),
                 bytes / sizeof(uint32_t)};
    prev_end = offset + bytes;
  }
  if (values[kSecSetSizes].size() != num_sets) {
    return Status::InvalidArgument(
        "the set-size section disagrees with the directory's set count: " +
        path);
  }
  uint64_t total = 0;
  for (const uint32_t size : values[kSecSetSizes]) total += size;
  if (total != values[kSecCoverage].size()) {
    return Status::InvalidArgument(
        "set sizes sum to " + std::to_string(total) +
        " but the coverage section holds " +
        std::to_string(values[kSecCoverage].size()) + " nodes: " + path);
  }
  return Status::Ok();
}

/// Deep check of the coverage section against the arena: every graph's
/// critical set translated to global ids, in stored-graph order.
Status CheckCoverage(const PrrStore& store, std::span<const uint32_t> coverage,
                     const std::string& path) {
  const NodeId* ids = store.raw_global_ids().data();
  const uint32_t* critical = store.raw_critical().data();
  const uint32_t* want = coverage.data();
  bool same = true;
  uint64_t node_begin = 0;
  for (size_t g = 0; g < store.num_graphs(); ++g) {
    for (size_t c = 0; c < store.critical_count(g); ++c) {
      same &= *want++ == ids[node_begin + *critical++];
    }
    node_begin += store.num_nodes(g);
  }
  if (!same) {
    return Status::InvalidArgument(
        "coverage section disagrees with the arena critical sets: " + path);
  }
  return Status::Ok();
}

/// The bytes one load reads from: a read-only private mapping of the file,
/// or an owned load's heap copy of it. Restored arenas and the coverage pool
/// alias these bytes, so the loaded session retains them
/// (BoostSession::RetainResource).
class SnapshotBytes {
 public:
  /// An uninitialized heap buffer of `size` bytes, aligned like the file's
  /// section blocks. Heap memory, not a fresh anonymous mapping, so the
  /// allocator can recycle already-faulted pages across loads.
  explicit SnapshotBytes(size_t size)
      : data_(static_cast<char*>(
            ::operator new(size, std::align_val_t{kBlockAlign}))),
        size_(size) {}

  /// Maps `size` bytes of `fd` read-only, prefaulted in one syscall instead
  /// of one minor fault per 4 KiB page (a load touches most of them).
  static StatusOr<std::shared_ptr<SnapshotBytes>> Map(int fd, size_t size,
                                                      const std::string& path) {
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    void* addr = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    if (addr == MAP_FAILED) return Status::IoError("mmap failed: " + path);
    return std::shared_ptr<SnapshotBytes>(new SnapshotBytes(addr, size));
  }

  SnapshotBytes(const SnapshotBytes&) = delete;
  SnapshotBytes& operator=(const SnapshotBytes&) = delete;
  ~SnapshotBytes() {
    if (mapped_) {
      ::munmap(data_, size_);
    } else {
      ::operator delete(data_, std::align_val_t{kBlockAlign});
    }
  }

  const char* data() const { return data_; }
  char* mutable_data() { return data_; }
  uint64_t size() const { return size_; }

 private:
  SnapshotBytes(void* mapping, size_t size)
      : data_(static_cast<char*>(mapping)), size_(size), mapped_(true) {}

  char* data_;
  size_t size_;
  bool mapped_ = false;
};

/// Reads the open snapshot `fd` of `size` bytes: maps it (use_mmap), or
/// copies it whole into the heap. The copy is split into chunks read on
/// this host's cores: first-touch faults on fresh pages dominate one serial
/// read() of a warm-start-size file (a ~107k-sample digg stand-in snapshot
/// loaded cold in 1.28 ms serial vs 0.67 ms split, median of 10 runs on a
/// 4-core box).
StatusOr<std::shared_ptr<SnapshotBytes>> ReadSnapshotBytes(
    int fd, size_t size, bool use_mmap, const std::string& path) {
  if (MaybeInjectFault(FaultSite::kSnapshotRead)) {
    return Status::IoError("injected fault: snapshot read: " + path);
  }
  if (use_mmap) {
    if (MaybeInjectFault(FaultSite::kSnapshotMmap)) {
      return Status::IoError("injected fault: mmap snapshot: " + path);
    }
    return SnapshotBytes::Map(fd, size, path);
  }
  auto bytes = std::make_shared<SnapshotBytes>(size);
  char* out = bytes->mutable_data();
  constexpr size_t kChunkBytes = size_t{1} << 18;
  std::atomic<bool> short_read{false};
  ParallelFor(
      (size + kChunkBytes - 1) / kChunkBytes, DefaultThreadCount(),
      [&](size_t c, int /*t*/) {
        const size_t end = std::min(size, (c + 1) * kChunkBytes);
        for (size_t done = c * kChunkBytes; done < end;) {
          const ssize_t n = ::pread(fd, out + done, end - done,
                                    static_cast<off_t>(done));
          if (n < 0 && errno == EINTR) continue;
          if (n <= 0) {
            short_read.store(true);
            return;
          }
          done += static_cast<size_t>(n);
        }
      },
      /*chunk=*/1);
  if (short_read.load()) {
    return Status::IoError("truncated pool snapshot: " + path);
  }
  return bytes;
}

StatusOr<std::shared_ptr<SnapshotBytes>> OpenSnapshotBytes(
    const std::string& path, bool use_mmap) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open for reading: " + path);
  struct stat st;
  StatusOr<std::shared_ptr<SnapshotBytes>> bytes =
      Status::IoError("cannot stat: " + path);
  if (::fstat(fd, &st) == 0) {
    bytes = st.st_size > 0
                ? ReadSnapshotBytes(fd, static_cast<size_t>(st.st_size),
                                    use_mmap, path)
                : Status::IoError(
                      "truncated pool snapshot header (empty file): " + path);
  }
  ::close(fd);  // a mapping holds its own reference to the file
  return bytes;
}

/// Streams the snapshot of `session` to `out`; returns the file length.
uint64_t WriteSnapshot(std::ostream& out, const BoostSession& session) {
  const PrrCollection& pool = session.collection();
  const PrrSamplerStats& stats = session.stats();

  Header h;
  h.flags = (session.lb_only() ? kFlagLbOnly : 0) |
            (session.samples_capped() ? kFlagSamplesCapped : 0);
  h.num_graph_nodes = pool.num_graph_nodes();
  h.pool_budget = session.budget();
  h.epsilon = session.options().epsilon;
  h.ell = session.options().ell;
  h.rng_seed = session.options().seed;
  h.max_samples = session.options().max_samples;
  h.num_threads = static_cast<uint32_t>(session.options().num_threads);
  h.num_seeds = session.seeds().size();
  h.num_activated = pool.num_activated();
  h.num_hopeless = pool.num_hopeless();
  h.edges_examined = stats.edges_examined;
  h.uncompressed_edges = stats.uncompressed_edges;
  h.compressed_edges = stats.compressed_edges;
  const uint64_t seeds_bytes = h.num_seeds * sizeof(NodeId);
  WriteHeader(out, h);
  out.write(reinterpret_cast<const char*>(session.seeds().data()),
            static_cast<std::streamsize>(seeds_bytes));

  // The critical sets as the coverage selector holds them (for a full pool,
  // in stored-graph order): exactly the node pool the loader binds it to.
  const CoverageSelector& coverage = pool.coverage();
  std::vector<uint32_t> set_sizes, coverage_nodes;
  set_sizes.reserve(coverage.num_nonempty_sets());
  for (size_t i = 0; i < coverage.num_nonempty_sets(); ++i) {
    const std::span<const NodeId> set = coverage.SetNodes(i);
    set_sizes.push_back(static_cast<uint32_t>(set.size()));
    coverage_nodes.insert(coverage_nodes.end(), set.begin(), set.end());
  }
  const PrrStore& store = pool.store();
  std::vector<uint32_t> num_nodes(store.num_graphs());
  for (size_t g = 0; g < num_nodes.size(); ++g) num_nodes[g] = store.num_nodes(g);
  const std::span<const uint32_t> sections[kNumSections] = {
      set_sizes,
      coverage_nodes,
      num_nodes,
      store.raw_global_ids(),
      store.raw_out_offsets(),
      store.raw_in_offsets(),
      store.raw_out_edges(),
      store.raw_in_edges(),
      store.raw_critical()};

  // A zeroed directory placeholder, the section blocks streamed verbatim,
  // then the directory backpatched with their offsets and sizes.
  const uint64_t dir_begin = kHeaderBytes + seeds_bytes;
  WriteZeros(out, kDirBytes);
  uint64_t pos = dir_begin + kDirBytes;
  uint64_t offsets[kNumSections];
  for (size_t i = 0; i < kNumSections; ++i) {
    const uint64_t begin =
        AlignUp(pos, i == kSecNumNodes ? kArenaAlign : kBlockAlign);
    WriteZeros(out, begin - pos);
    if (!sections[i].empty()) {
      out.write(reinterpret_cast<const char*>(sections[i].data()),
                static_cast<std::streamsize>(sections[i].size_bytes()));
    }
    offsets[i] = begin;
    pos = begin + sections[i].size_bytes();
  }
  out.seekp(static_cast<std::streamoff>(dir_begin));
  WritePod(out, uint64_t{set_sizes.size()});
  for (size_t i = 0; i < kNumSections; ++i) {
    WritePod(out, offsets[i]);
    WritePod(out, uint64_t{sections[i].size_bytes()});
  }
  return pos;
}

/// fsyncs the file or directory at `path`, opened with `flags`.
Status SyncPath(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open to sync: " + path);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced ? Status::Ok() : Status::IoError("fsync failed: " + path);
}

}  // namespace

StatusOr<PoolSaveResult> SavePoolSnapshot(const BoostSession& session,
                                          const std::string& path,
                                          const PoolSaveOptions& /*options*/) {
  if (!session.prepared()) {
    return Status::InvalidArgument(
        "session pool not prepared; call Prepare() before saving");
  }
  // Write a sibling temp file, make it durable, then rename it over `path`:
  // a process mapping the old file keeps the old inode, and a failed or
  // interrupted save never leaves a torn file at `path`.
  static std::atomic<uint64_t> save_counter{0};
  const std::string temp = path + ".tmp." + std::to_string(::getpid()) +
                           "." + std::to_string(save_counter.fetch_add(1));
  Status status = Status::Ok();
  uint64_t file_bytes = 0;
  {
    std::ofstream out(temp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot open for writing: " + temp);
    file_bytes = WriteSnapshot(out, session);
    out.close();
    if (!out) status = Status::IoError("write failed: " + temp);
  }
  if (status.ok()) status = SyncPath(temp, O_WRONLY);
  if (status.ok() && MaybeInjectFault(FaultSite::kSnapshotWrite)) {
    status = Status::IoError("injected fault: snapshot write: " + path);
  }
  if (status.ok() && ::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + temp + " over " + path);
  }
  if (!status.ok()) {
    ::unlink(temp.c_str());
    return status;
  }
  // The new file is in place; the rename is durable once its directory is.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  if (Status synced =
          SyncPath(dir.empty() ? "." : dir.string(), O_RDONLY | O_DIRECTORY);
      !synced.ok()) {
    return synced;
  }

  PoolSaveResult result;
  const PrrCollection& pool = session.collection();
  result.file_bytes = file_bytes;
  result.num_samples =
      pool.num_boostable() + pool.num_activated() + pool.num_hopeless();
  result.bytes_per_sample =
      result.num_samples > 0
          ? static_cast<double>(result.file_bytes) /
                static_cast<double>(result.num_samples)
          : 0.0;
  return result;
}

StatusOr<std::unique_ptr<BoostSession>> LoadPoolSnapshot(
    const DirectedGraph& graph, const std::string& path,
    const PoolLoadOptions& options) {
  if (MaybeInjectFault(FaultSite::kSnapshotOpen)) {
    return Status::IoError("injected fault: open snapshot: " + path);
  }
  StatusOr<std::shared_ptr<SnapshotBytes>> opened =
      OpenSnapshotBytes(path, options.use_mmap);
  if (!opened.ok()) return opened.status();
  const std::shared_ptr<SnapshotBytes> bytes = std::move(opened).value();
  const char* base = bytes->data();
  const uint64_t file_size = bytes->size();
  // An owned load is a private copy that always gets the deep checks; an
  // mmap load runs them on request (verify_mapped). Every load runs the
  // arena walk that memory safety needs (PrrStore::AttachExternal).
  const bool deep = !options.use_mmap || options.verify_mapped;

  Header h;
  if (Status s = ParseHeader(base, file_size, path, &h); !s.ok()) {
    return s;
  }
  if (h.num_graph_nodes != graph.num_nodes()) {
    return Status::InvalidArgument(
        "pool snapshot was taken against a graph with " +
        std::to_string(h.num_graph_nodes) + " nodes, not " +
        std::to_string(graph.num_nodes()));
  }
  if (h.pool_budget == 0 || h.num_seeds == 0 ||
      h.num_seeds > graph.num_nodes()) {
    return Status::InvalidArgument("corrupt pool snapshot header: " + path);
  }
  const bool lb_only = (h.flags & kFlagLbOnly) != 0;

  // The writer's thread count is provenance only (a loaded pool never
  // samples), kept so a re-save writes the same header: clamp it into the
  // valid range before it reaches BoostOptions, whose trusting constructor
  // would abort on garbage.
  BoostOptions boost_options;
  boost_options.k = h.pool_budget;
  boost_options.epsilon = h.epsilon;
  boost_options.ell = h.ell;
  boost_options.seed = h.rng_seed;
  boost_options.max_samples = h.max_samples;
  if (h.num_threads > 0) {
    boost_options.num_threads = static_cast<int>(std::min<uint32_t>(
        h.num_threads, static_cast<uint32_t>(ThreadPool::kMaxWorkers)));
  }
  // These header-derived options feed the trusting BoostSession constructor,
  // which KB_CHECK-aborts on invalid values — a corrupt ε/ℓ/k must surface
  // as a typed rejection instead (NaN fails Validate's range comparisons
  // too, so a garbage double cannot sneak through).
  if (Status opt = boost_options.Validate(); !opt.ok()) {
    return Status::InvalidArgument(
        "snapshot header carries invalid sampling options (" +
        opt.ToString() + "): " + path);
  }

  const uint64_t dir_begin = kHeaderBytes + h.num_seeds * sizeof(NodeId);
  if (dir_begin > file_size) {
    return Status::IoError("truncated pool snapshot: " + path);
  }
  std::vector<NodeId> seeds(h.num_seeds);
  std::memcpy(seeds.data(), base + kHeaderBytes, h.num_seeds * sizeof(NodeId));
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return Status::OutOfRange("snapshot seed out of range: " +
                                std::to_string(s));
    }
  }

  // Every section aliases `bytes`: the critical sets, and for a full pool
  // the arena, attached with the set sizes as its num_critical table.
  std::span<const uint32_t> v[kNumSections];
  if (Status s = ParseDirectory(base, file_size, dir_begin, lb_only, path, v);
      !s.ok()) {
    return s;
  }
  if (Status s = CheckCoverageIds(v[kSecCoverage], graph.num_nodes(), path);
      !s.ok()) {
    return s;
  }
  PrrStore store;
  if (!lb_only) {
    if (Status arena = store.AttachExternal(
            {v[kSecNumNodes], v[kSecSetSizes], v[kSecGlobalIds],
             v[kSecOutOffsets], v[kSecInOffsets], v[kSecOutEdges],
             v[kSecInEdges], v[kSecCritical]},
            graph.num_nodes(), deep);
        !arena.ok()) {
      return Status::InvalidArgument("corrupt PRR-graph arena of snapshot " +
                                     path + ": " + arena.ToString());
    }
    if (deep) {
      if (Status s = CheckCoverage(store, v[kSecCoverage], path); !s.ok()) {
        return s;
      }
    }
  }

  auto pool = std::make_unique<PrrCollection>(graph.num_nodes());
  pool->RestorePool(std::move(store), v[kSecSetSizes], v[kSecCoverage],
                    h.num_activated, h.num_hopeless);

  PrrSamplerStats stats;
  stats.edges_examined = h.edges_examined;
  stats.uncompressed_edges = h.uncompressed_edges;
  stats.compressed_edges = h.compressed_edges;

  auto session = std::make_unique<BoostSession>(graph, std::move(seeds),
                                                boost_options, lb_only);
  session->AdoptPool(std::move(pool), stats,
                     (h.flags & kFlagSamplesCapped) != 0);
  session->RetainResource(bytes);
  return session;
}

}  // namespace kboost
