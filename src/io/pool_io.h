#ifndef KBOOST_IO_POOL_IO_H_
#define KBOOST_IO_POOL_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/boost_session.h"
#include "src/io/codec.h"
#include "src/util/status.h"

namespace kboost {

/// Binary snapshot save/load of a prepared BoostSession pool — the sampled
/// PRR-graph arena (full mode) or critical sets (LB mode), the sample
/// counters, the sampler statistics and the sampling metadata (seeds, budget,
/// ε, ℓ, rng seed), behind a versioned header. A reloaded session answers
/// SolveForBudget with bit-identical best sets and estimates, enabling warm
/// restarts and cross-process serving against one prepared index.
///
/// Format v3, the only one this build reads or writes: a 128-byte header, a
/// 32-byte extension (endianness marker, default codec, alignment, directory
/// offset), the seed list, then the body. A full-mode body is a section
/// directory over one page-aligned arena region of eight flat uint32
/// sections, plus the coverage section — the critical sets pre-translated to
/// global ids, in stored-graph order — so the greedy-coverage node pool
/// binds in place too. Every section is independently coded by a pluggable
/// codec (src/io/codec.h); a nop-coded section IS the arena memory. An
/// LB-only body is the critical sets as one flat offsets/nodes pair.
///
/// A pool is a deterministic function of graph + BoostOptions, so a snapshot
/// is a cache, not an archive: v1/v2 files, v3 files written without a
/// coverage section, and v3 files whose header's num_shards is not 1 (older
/// builds could split a pool into several arenas) are rejected with a typed
/// InvalidArgument that asks for a re-save. A single-arena v3 file from an
/// older build stays valid byte for byte.
///
/// One load path: the file's bytes come from a read-only mmap (use_mmap) or
/// from one read into an aligned heap buffer; codec-coded sections decode
/// into one owned buffer; the arena and the coverage pool are then bound
/// over those bytes in place, and the session retains them.
///
/// Byte order: headers stamp an endianness marker and the loader rejects
/// snapshots written on a different-endianness host with a typed Status.
///
/// Thread count: the header records the writer's num_threads (its sampling
/// width) as provenance only. A loaded pool never samples, so the loader
/// just clamps it into [1, ThreadPool::kMaxWorkers] and keeps it for a
/// re-save of the same pool.

/// How to write a snapshot.
struct PoolSaveOptions {
  /// Codec applied to every section block (recorded per block in the
  /// directory). kNop makes the file servable in place from an mmap; kVarint
  /// shrinks it for cold storage at the cost of a decode on every load.
  SnapshotCodec codec = SnapshotCodec::kNop;
};

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
  /// MAP_POPULATE) instead of a private heap copy. Nop-coded sections are
  /// then served zero-copy, warm start costs ~O(validate directory) instead
  /// of O(bytes), and the page cache shares the pool across every process
  /// mapping it. The mapping pins the file's inode, so replace a served
  /// snapshot only by rename (SavePoolSnapshot does); rewriting it in place
  /// can kill the serving process.
  bool use_mmap = false;
  /// Also run the deep checks on an mmap load: the O(total_edges) walk over
  /// every edge endpoint and critical id, and the element-wise cross-check
  /// of the coverage section against the arenas. The structural checks
  /// memory safety needs always run; an owned load always runs the deep
  /// checks too. Off by default for mmap, since re-walking every edge pages
  /// in the whole file — set it for files from outside the program.
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
