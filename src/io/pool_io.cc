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
#include <limits>
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
/// directory; their files are rejected with a request to re-save.
constexpr uint32_t kVersion = 3;

constexpr uint32_t kFlagLbOnly = 1u << 0;
constexpr uint32_t kFlagSamplesCapped = 1u << 1;

constexpr uint64_t kHeaderBytes = 128;  // fixed header
constexpr uint64_t kExtBytes = 32;      // extension after the header
constexpr uint32_t kEndianMarker = 0x01020304u;
constexpr uint64_t kArenaAlign = 4096;  // the arena region starts page-aligned
constexpr uint64_t kBlockAlign = 64;    // section blocks cache-line-aligned
constexpr size_t kNumSections = 8;
/// One directory record per section block: {u64 offset, u64 stored_bytes,
/// u64 raw_bytes, u32 codec, u32 reserved}.
constexpr uint64_t kSectionEntryBytes = 32;
/// The directory: u64 num_graphs and kNumSections section records for the
/// arena, then one more section record that locates the coverage section.
constexpr uint64_t kDirBytes =
    8 + kNumSections * kSectionEntryBytes + kSectionEntryBytes;

/// Fixed-size snapshot header: the first 128 bytes of the file (magic
/// included), then a 32-byte extension. Every field is written explicitly
/// (VisitHeader, no struct dump), so the on-disk layout is independent of
/// compiler padding.
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
  uint32_t num_shards = 1;  // always 1: the pool is one arena
  uint64_t num_seeds = 0;
  uint64_t num_boostable = 0;
  uint64_t num_activated = 0;
  uint64_t num_hopeless = 0;
  uint64_t edges_examined = 0;
  uint64_t uncompressed_edges = 0;
  uint64_t compressed_edges = 0;
  // Extension, at bytes [128, 160). dir_offset is 0 on LB-only snapshots
  // (which store critical sets, not arenas, and have no directory).
  uint32_t endian_marker = kEndianMarker;
  uint32_t default_codec = 0;  // always 0: sections are stored raw
  uint64_t section_align = kArenaAlign;
  uint64_t dir_offset = 0;
  uint64_t reserved = 0;
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
  f(h.num_shards);
  f(h.num_seeds);
  f(h.num_boostable);
  f(h.num_activated);
  f(h.num_hopeless);
  f(h.edges_examined);
  f(h.uncompressed_edges);
  f(h.compressed_edges);
  f(h.endian_marker);
  f(h.default_codec);
  f(h.section_align);
  f(h.dir_offset);
  f(h.reserved);
}

/// One section block as recorded in the directory. `offset` is absolute in
/// the file; `raw_bytes` is 4 × the value count. A valid block has codec 0
/// and stored_bytes == raw_bytes: it IS the arena memory.
struct SectionEntry {
  uint64_t offset = 0;
  uint64_t stored_bytes = 0;
  uint64_t raw_bytes = 0;
  uint32_t codec = 0;
  uint32_t reserved = 0;
};

/// Section order within the arena's directory entry — the field order of
/// PrrStore::ArenaSections.
enum SectionIndex : size_t {
  kSecNumNodes = 0,
  kSecNumCritical = 1,
  kSecGlobalIds = 2,
  kSecOutOffsets = 3,
  kSecInOffsets = 4,
  kSecOutEdges = 5,
  kSecInEdges = 6,
  kSecCritical = 7,
};

struct ArenaDir {
  uint64_t num_graphs = 0;
  SectionEntry sections[kNumSections];
};

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

void WriteSectionEntry(std::ostream& out, const SectionEntry& e) {
  WritePod(out, e.offset);
  WritePod(out, e.stored_bytes);
  WritePod(out, e.raw_bytes);
  WritePod(out, e.codec);
  WritePod(out, e.reserved);
}

SectionEntry ReadSectionEntry(const char* p) {
  SectionEntry e;
  e.offset = LoadAt<uint64_t>(p);
  e.stored_bytes = LoadAt<uint64_t>(p + 8);
  e.raw_bytes = LoadAt<uint64_t>(p + 16);
  e.codec = LoadAt<uint32_t>(p + 24);
  e.reserved = LoadAt<uint32_t>(p + 28);
  return e;
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
  if (size < kHeaderBytes + kExtBytes) {
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
  // Older builds could split a pool into several arenas; this one reads
  // only the single-arena layout.
  if (h->num_shards != 1) {
    return Status::InvalidArgument(
        "pool snapshot stores " + std::to_string(h->num_shards) +
        " arenas, but this build reads only single-arena snapshots; re-save "
        "the pool from its graph and options: " +
        path);
  }
  return Status::Ok();
}

/// Global ids must fit the serving graph before views reach evaluators: the
/// pool's inverted index is addressed by global id, so an oversized id would
/// index out of bounds. Local 0 is the super-seed slot, not a graph node.
Status CheckGlobalIds(const PrrStore& store, uint64_t num_graph_nodes) {
  // Flat prefix-sum walk over the arena's id pool — identical coverage to
  // iterating View(g) per graph (every slot from kRootLocal on), but without
  // materializing a view per graph; this runs on every snapshot load.
  const NodeId* ids = store.raw_global_ids().data();
  const size_t num_graphs = store.num_graphs();
  uint64_t begin = 0;
  for (size_t g = 0; g < num_graphs; ++g) {
    const uint32_t n = store.num_nodes(g);
    const NodeId* p = ids + begin + PrrGraph::kRootLocal;
    const NodeId* end = ids + begin + n;
    bool ok = true;
    for (; p < end; ++p) ok &= *p < num_graph_nodes;
    if (!ok) {
      for (p = ids + begin + PrrGraph::kRootLocal; *p < num_graph_nodes; ++p) {
      }
      return Status::OutOfRange("snapshot PRR-graph node out of range: " +
                                std::to_string(*p));
    }
    begin += n;
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

/// Per-entry structural checks for one section block: 4-byte aligned, in
/// bounds, non-overlapping and in file order (`prev_end` advances), stored
/// raw (codec 0, stored_bytes == raw_bytes, so a corrupt raw_bytes can never
/// reach past the file).
Status ValidateSectionEntry(const SectionEntry& e, const std::string& where,
                            uint64_t file_size, uint64_t* prev_end,
                            const std::string& path) {
  if (e.offset % sizeof(uint32_t) != 0) {
    return Status::InvalidArgument("misaligned " + where + ": " + path);
  }
  if (e.offset < *prev_end || e.offset > file_size ||
      e.stored_bytes > file_size - e.offset) {
    return Status::InvalidArgument(
        where + " overlaps another section or exceeds the snapshot: " + path);
  }
  if (e.raw_bytes % sizeof(uint32_t) != 0) {
    return Status::InvalidArgument(where + " has a non-uint32 raw length: " +
                                   path);
  }
  // Older builds could varint-code a section (codec 1); this one reads
  // only raw sections.
  if (e.codec != 0) {
    return Status::InvalidArgument(
        "unknown codec id " + std::to_string(e.codec) + " in " + where +
        ": this build reads only raw sections; re-save the pool from its "
        "graph and options: " + path);
  }
  if (e.stored_bytes != e.raw_bytes) {
    return Status::InvalidArgument(where + " has stored != raw bytes: " +
                                   path);
  }
  *prev_end = e.offset + e.stored_bytes;
  return Status::Ok();
}

/// Structural validation of the section directory against the file length:
/// every arena block plus the trailing coverage section, which must follow
/// the arena region and hold exactly as many values as the arena's critical
/// section.
Status ValidateDirectory(const ArenaDir& dir, const SectionEntry& coverage,
                         uint64_t dir_end, uint64_t file_size,
                         const std::string& path) {
  uint64_t prev_end = dir_end;
  if (dir.num_graphs > file_size / sizeof(uint32_t)) {
    return Status::InvalidArgument(
        "the arena declares more graphs than the snapshot could hold: " +
        path);
  }
  for (size_t i = 0; i < kNumSections; ++i) {
    const std::string where = "arena section " + std::to_string(i);
    if (Status e = ValidateSectionEntry(dir.sections[i], where, file_size,
                                        &prev_end, path);
        !e.ok()) {
      return e;
    }
  }
  const uint64_t size_table_bytes = dir.num_graphs * sizeof(uint32_t);
  if (dir.sections[kSecNumNodes].raw_bytes != size_table_bytes ||
      dir.sections[kSecNumCritical].raw_bytes != size_table_bytes) {
    return Status::InvalidArgument(
        "size-table sections disagree with the arena's graph count: " + path);
  }
  // Older writers left this entry all-zero on compressed snapshots.
  if (coverage.offset == 0 && coverage.stored_bytes == 0 &&
      coverage.raw_bytes == 0) {
    return Status::InvalidArgument(
        "pool snapshot has no coverage section (written by an older build); "
        "re-save the pool from its graph and options: " +
        path);
  }
  if (Status e = ValidateSectionEntry(coverage, "the coverage section",
                                      file_size, &prev_end, path);
      !e.ok()) {
    return e;
  }
  if (coverage.raw_bytes != dir.sections[kSecCritical].raw_bytes) {
    return Status::InvalidArgument(
        "the coverage section disagrees with the arena's critical pool: " +
        path);
  }
  return Status::Ok();
}

/// Reads the directory at `dir_offset` (which must lie past `body_begin`)
/// and validates it.
Status ParseDirectory(const char* base, uint64_t file_size,
                      uint64_t dir_offset, uint64_t body_begin,
                      const std::string& path, ArenaDir* dir,
                      SectionEntry* coverage) {
  if (dir_offset < body_begin || dir_offset > file_size ||
      kDirBytes > file_size - dir_offset) {
    return Status::InvalidArgument("snapshot directory out of bounds: " +
                                   path);
  }
  const char* p = base + dir_offset;
  dir->num_graphs = LoadAt<uint64_t>(p);
  p += sizeof(uint64_t);
  for (SectionEntry& e : dir->sections) {
    e = ReadSectionEntry(p);
    p += kSectionEntryBytes;
  }
  *coverage = ReadSectionEntry(p);
  return ValidateDirectory(*dir, *coverage, dir_offset + kDirBytes, file_size,
                           path);
}

/// Calls `f` on the global id of every critical node of every graph in
/// `store`, in stored-graph order: the coverage section's contents.
template <typename F>
void ForEachCriticalGlobal(const PrrStore& store, F&& f) {
  const NodeId* ids = store.raw_global_ids().data();
  const uint32_t* cursor = store.raw_critical().data();
  uint64_t node_begin = 0;
  for (size_t g = 0; g < store.num_graphs(); ++g) {
    const NodeId* base = ids + node_begin;
    for (const uint32_t* end = cursor + store.critical_count(g);
         cursor != end; ++cursor) {
      f(base[*cursor]);
    }
    node_begin += store.num_nodes(g);
  }
}

/// Deep check of the coverage section against the arena.
Status CheckCoverage(const PrrStore& store, std::span<const uint32_t> coverage,
                     const std::string& path) {
  const uint32_t* want = coverage.data();
  bool same = true;
  ForEachCriticalGlobal(store, [&](NodeId v) { same &= *want++ == v; });
  if (!same) {
    return Status::InvalidArgument(
        "coverage section disagrees with the arena critical sets: " + path);
  }
  return Status::Ok();
}

/// LB body: the critical sets as one flat offsets/nodes pair over the
/// non-empty sample numbering — u64 num_sets, num_sets + 1 u64 offsets,
/// then the u32 nodes.
void WriteLbBody(std::ostream& out, const PrrCollection& pool) {
  const CoverageSelector& coverage = pool.coverage();
  const uint64_t num_sets = coverage.num_nonempty_sets();
  WritePod(out, num_sets);
  uint64_t offset = 0;
  WritePod(out, offset);
  for (uint64_t i = 0; i < num_sets; ++i) {
    offset += coverage.SetNodes(i).size();
    WritePod(out, offset);
  }
  for (uint64_t i = 0; i < num_sets; ++i) {
    const std::span<const NodeId> nodes = coverage.SetNodes(i);
    out.write(reinterpret_cast<const char*>(nodes.data()),
              static_cast<std::streamsize>(nodes.size() * sizeof(NodeId)));
  }
}

/// Parses the LB body starting at `begin` into per-set sizes plus the node
/// pool, which stays in place in the snapshot bytes.
Status ParseLbBody(const char* base, uint64_t file_size, uint64_t begin,
                   uint64_t num_boostable, const std::string& path,
                   std::vector<uint32_t>* set_sizes,
                   std::span<const NodeId>* nodes) {
  const Status corrupt =
      Status::InvalidArgument("corrupt LB pool snapshot: " + path);
  if (file_size - begin < sizeof(uint64_t)) return corrupt;
  const uint64_t num_sets = LoadAt<uint64_t>(base + begin);
  const uint64_t offsets_begin = begin + sizeof(uint64_t);
  if (num_sets != num_boostable ||
      num_sets >= (file_size - offsets_begin) / sizeof(uint64_t)) {
    return corrupt;
  }
  const char* offsets = base + offsets_begin;
  uint64_t prev = LoadAt<uint64_t>(offsets);
  if (prev != 0) return corrupt;
  set_sizes->resize(num_sets);
  for (uint64_t i = 0; i < num_sets; ++i) {
    const uint64_t next =
        LoadAt<uint64_t>(offsets + (i + 1) * sizeof(uint64_t));
    if (next < prev || next - prev > std::numeric_limits<uint32_t>::max()) {
      return corrupt;
    }
    (*set_sizes)[i] = static_cast<uint32_t>(next - prev);
    prev = next;
  }
  const uint64_t nodes_begin =
      offsets_begin + (num_sets + 1) * sizeof(uint64_t);
  if (prev > (file_size - nodes_begin) / sizeof(NodeId)) return corrupt;
  *nodes = {reinterpret_cast<const NodeId*>(base + nodes_begin), prev};
  return Status::Ok();
}

/// The values of one validated block, in place in the snapshot bytes.
std::span<const uint32_t> BlockValues(const SectionEntry& e,
                                      const char* base) {
  return {reinterpret_cast<const uint32_t*>(base + e.offset),
          e.raw_bytes / sizeof(uint32_t)};
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
  const PrrBoostEngine& engine = session.engine();
  const PrrCollection& pool = engine.collection();
  const PrrSamplerStats& stats = engine.stats();

  Header h;
  h.flags = (session.lb_only() ? kFlagLbOnly : 0) |
            (engine.samples_capped() ? kFlagSamplesCapped : 0);
  h.num_graph_nodes = pool.num_graph_nodes();
  h.pool_budget = session.budget();
  h.epsilon = session.options().epsilon;
  h.ell = session.options().ell;
  h.rng_seed = session.options().seed;
  h.max_samples = session.options().max_samples;
  h.num_threads = static_cast<uint32_t>(session.options().num_threads);
  h.num_seeds = session.seeds().size();
  h.num_boostable = pool.num_boostable();
  h.num_activated = pool.num_activated();
  h.num_hopeless = pool.num_hopeless();
  h.edges_examined = stats.edges_examined;
  h.uncompressed_edges = stats.uncompressed_edges;
  h.compressed_edges = stats.compressed_edges;
  const uint64_t seeds_bytes = h.num_seeds * sizeof(NodeId);
  h.dir_offset = session.lb_only() ? 0 : kHeaderBytes + kExtBytes + seeds_bytes;
  WriteHeader(out, h);
  out.write(reinterpret_cast<const char*>(session.seeds().data()),
            static_cast<std::streamsize>(seeds_bytes));

  if (session.lb_only()) {
    WriteLbBody(out, pool);
    return static_cast<uint64_t>(out.tellp());
  }

  // Full-mode body: a zeroed directory placeholder, the arena's eight
  // section blocks streamed verbatim from its spans, the coverage section,
  // then the directory backpatched with the final offsets and sizes.
  WriteZeros(out, kDirBytes);
  uint64_t pos = h.dir_offset + kDirBytes;

  const auto write_block = [&](std::span<const uint32_t> values,
                               SectionEntry* e) {
    const uint64_t block_begin = AlignUp(pos, kBlockAlign);
    WriteZeros(out, block_begin - pos);
    e->offset = block_begin;
    e->raw_bytes = values.size() * sizeof(uint32_t);
    e->stored_bytes = e->raw_bytes;
    if (!values.empty()) {
      out.write(reinterpret_cast<const char*>(values.data()),
                static_cast<std::streamsize>(e->raw_bytes));
    }
    pos = block_begin + e->stored_bytes;
  };

  const PrrStore& store = pool.store();
  const size_t num_graphs = store.num_graphs();
  std::vector<uint32_t> num_nodes(num_graphs), num_critical(num_graphs);
  for (size_t g = 0; g < num_graphs; ++g) {
    num_nodes[g] = store.num_nodes(g);
    num_critical[g] = static_cast<uint32_t>(store.critical_count(g));
  }
  const std::span<const uint32_t> sections[kNumSections] = {
      num_nodes,
      num_critical,
      store.raw_global_ids(),
      store.raw_out_offsets(),
      store.raw_in_offsets(),
      store.raw_out_edges(),
      store.raw_in_edges(),
      store.raw_critical()};
  ArenaDir dir;
  dir.num_graphs = num_graphs;
  const uint64_t arena_begin = AlignUp(pos, kArenaAlign);
  WriteZeros(out, arena_begin - pos);
  pos = arena_begin;
  for (size_t i = 0; i < kNumSections; ++i) {
    write_block(sections[i], &dir.sections[i]);
  }

  // The coverage section: every graph's critical set translated to global
  // ids, in stored-graph order — exactly the node pool the loader binds the
  // greedy-coverage selector to.
  std::vector<uint32_t> coverage_pool;
  coverage_pool.reserve(store.raw_critical().size());
  ForEachCriticalGlobal(store, [&](NodeId v) { coverage_pool.push_back(v); });
  SectionEntry coverage;
  write_block(coverage_pool, &coverage);
  const uint64_t file_bytes = pos;

  out.seekp(static_cast<std::streamoff>(h.dir_offset));
  WritePod(out, dir.num_graphs);
  for (const SectionEntry& e : dir.sections) WriteSectionEntry(out, e);
  WriteSectionEntry(out, coverage);
  return file_bytes;
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
  const PrrCollection& pool = session.engine().collection();
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
  // mmap load runs them on request (verify_mapped).
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

  const uint64_t seeds_begin = kHeaderBytes + kExtBytes;
  const uint64_t body_begin = seeds_begin + h.num_seeds * sizeof(NodeId);
  if (body_begin > file_size ||
      MaybeInjectFault(FaultSite::kSnapshotShortRead)) {
    return Status::IoError("truncated pool snapshot: " + path);
  }
  std::vector<NodeId> seeds(h.num_seeds);
  std::memcpy(seeds.data(), base + seeds_begin,
              h.num_seeds * sizeof(NodeId));
  for (NodeId s : seeds) {
    if (s >= graph.num_nodes()) {
      return Status::OutOfRange("snapshot seed out of range: " +
                                std::to_string(s));
    }
  }

  if (MaybeInjectFault(FaultSite::kAllocPressure)) {
    return Status::ResourceExhausted(
        "injected fault: allocation pressure restoring pool: " + path);
  }
  // The body, all of it aliasing `bytes`: the arena (empty for an LB-only
  // pool), the coverage node pool and its set sizes.
  PrrStore store;
  std::vector<uint32_t> set_sizes;
  std::span<const NodeId> coverage_nodes;
  if (lb_only) {
    if (Status s = ParseLbBody(base, file_size, body_begin, h.num_boostable,
                               path, &set_sizes, &coverage_nodes);
        !s.ok()) {
      return s;
    }
  } else {
    ArenaDir dir;
    SectionEntry coverage;
    if (Status s = ParseDirectory(base, file_size, h.dir_offset, body_begin,
                                  path, &dir, &coverage);
        !s.ok()) {
      return s;
    }
    std::span<const uint32_t> v[kNumSections];
    for (size_t i = 0; i < kNumSections; ++i) {
      v[i] = BlockValues(dir.sections[i], base);
    }
    if (Status arena = store.AttachExternal(
            {v[kSecNumNodes], v[kSecNumCritical], v[kSecGlobalIds],
             v[kSecOutOffsets], v[kSecInOffsets], v[kSecOutEdges],
             v[kSecInEdges], v[kSecCritical]},
            deep);
        !arena.ok()) {
      return Status::InvalidArgument("corrupt PRR-graph arena of snapshot " +
                                     path + ": " + arena.ToString());
    }
    coverage_nodes = BlockValues(coverage, base);
    if (Status s = CheckGlobalIds(store, graph.num_nodes()); !s.ok()) return s;
    if (deep) {
      if (Status s = CheckCoverage(store, coverage_nodes, path); !s.ok()) {
        return s;
      }
    }
    set_sizes.assign(v[kSecNumCritical].begin(), v[kSecNumCritical].end());
    if (set_sizes.size() != h.num_boostable) {
      return Status::InvalidArgument(
          "snapshot header declares " + std::to_string(h.num_boostable) +
          " boostable graphs but the arena holds " +
          std::to_string(set_sizes.size()));
    }
  }
  if (Status s = CheckCoverageIds(coverage_nodes, graph.num_nodes(), path);
      !s.ok()) {
    return s;
  }

  auto pool = std::make_unique<PrrCollection>(graph.num_nodes());
  pool->RestorePool(std::move(store), set_sizes, coverage_nodes,
                    h.num_activated, h.num_hopeless);

  PrrSamplerStats stats;
  stats.edges_examined = h.edges_examined;
  stats.uncompressed_edges = h.uncompressed_edges;
  stats.compressed_edges = h.compressed_edges;

  auto session = std::make_unique<BoostSession>(graph, std::move(seeds),
                                                boost_options, lb_only);
  session->engine().AdoptPool(std::move(pool), stats,
                              (h.flags & kFlagSamplesCapped) != 0);
  session->RetainResource(bytes);
  return session;
}

}  // namespace kboost
