#ifndef KBOOST_IO_POOL_IO_H_
#define KBOOST_IO_POOL_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/boost_session.h"
#include "src/util/status.h"

namespace kboost {

/// Binary snapshot save/load of a prepared BoostSession pool — the sampled
/// PRR-graph arena (full mode) or critical sets (LB mode), the sample
/// counters, the sampler statistics and the sampling metadata (seeds, budget,
/// ε, ℓ, rng seed), behind a versioned header. A reloaded session answers
/// SolveForBudget with bit-identical best sets and estimates, enabling warm
/// restarts and cross-process serving against one prepared index.
///
/// Format v4, the only one this build reads or writes: a 120-byte header
/// (endianness marker included), the seed list, then one section directory
/// for both pool kinds — a set count, then an {offset, bytes} entry per flat
/// uint32 section. The first two sections are the pool's critical sets: the
/// per-set sizes, and the coverage section, the sets pre-translated to
/// global ids in stored-graph order, so the greedy-coverage node pool binds
/// in place. Then comes one page-aligned arena region of seven sections
/// (PrrStore::ArenaSections; the set sizes are its num_critical table). An
/// LB-only pool stores its critical sets alone: every arena section is
/// empty. Every section is stored raw: its bytes ARE the pool's memory.
///
/// A pool is a deterministic function of graph + BoostOptions, so a snapshot
/// is a cache, not an archive: files of any other version (v1/v2 stream
/// formats, and v3, whose LB-only pools had a body of their own) are
/// rejected with a typed InvalidArgument that asks for a re-save.
///
/// One load path, one attempt: the file's bytes come from a read-only mmap
/// (use_mmap) or from one read into an aligned heap buffer; the arena and
/// the coverage pool are then bound over those bytes in place, and the
/// session retains them. Every load, owned or mmap, validates the directory
/// and walks every id in the arena (PrrStore::AttachExternal), so no corrupt
/// file can make a later solve read out of bounds. A failed load returns its
/// typed Status; the caller decides whether to try again.
///
/// Byte order: headers stamp an endianness marker and the loader rejects
/// snapshots written on a different-endianness host with a typed Status.
///
/// Thread count: the header records the writer's num_threads (its sampling
/// width) as provenance only. A loaded pool never samples, so the loader
/// just clamps it into [1, ThreadPool::kMaxWorkers] and keeps it for a
/// re-save of the same pool.

/// How to write a snapshot: nothing to choose. The struct stays only
/// because the benchmark (kbench/) constructs it; delete it with the next
/// benchmark change.
struct PoolSaveOptions {};

/// What a save produced. num_samples is θ — every sampled PRR-graph,
/// boostable or not — so bytes_per_sample is comparable across modes.
struct PoolSaveResult {
  uint64_t file_bytes = 0;
  uint64_t num_samples = 0;
  double bytes_per_sample = 0.0;
};

/// How to load a snapshot.
struct PoolLoadOptions {
  /// Serve the pool from a read-only mmap of the file (prefaulted with
  /// MAP_POPULATE) instead of a private heap copy. The sections are then
  /// served zero-copy, warm start costs ~O(validate directory) instead of
  /// O(bytes), and the page cache shares the pool across every process
  /// mapping it. The mapping pins the file's inode, so replace a served
  /// snapshot only by rename (SavePoolSnapshot does); rewriting it in place
  /// can kill the serving process.
  bool use_mmap = false;
  /// Also run the deep checks on an mmap load: every super-seed out-edge
  /// must be a boost edge, and the coverage section must match the arena's
  /// critical sets element for element. A file that fails them loads
  /// memory-safely without them, but answers wrongly. Every load runs the
  /// directory checks and the arena id walk; an owned load always runs the
  /// deep checks too. Off by default for mmap, to keep a warm start cheap —
  /// set it for files from outside the program.
  bool verify_mapped = false;
};

/// Writes the session's pool to `path`. The session must be prepared()
/// (BoostSession::SavePool prepares and delegates here). The snapshot is
/// written to a temp file in the target's directory, fsynced, renamed over
/// `path`, and the directory is fsynced: a process serving the old file from
/// an mmap keeps its inode, and on any failure `path` is left untouched and
/// the temp file is removed.
StatusOr<PoolSaveResult> SavePoolSnapshot(const BoostSession& session,
                                          const std::string& path,
                                          const PoolSaveOptions& options);

/// Restores a session from a snapshot taken against a graph with the same
/// node count. Seeds and BoostOptions come from the snapshot; the returned
/// session is prepared() and never resamples.
StatusOr<std::unique_ptr<BoostSession>> LoadPoolSnapshot(
    const DirectedGraph& graph, const std::string& path,
    const PoolLoadOptions& options);

}  // namespace kboost

#endif  // KBOOST_IO_POOL_IO_H_
