// Fuzz harness for the snapshot loader (src/io/pool_io): the other decoder
// that parses bytes from outside the process trust boundary. A refresh admin
// frame points the server at a snapshot path, so the loader must survive
// arbitrary file contents with a typed Status — never a crash, an overread
// of the file bytes, or an unbounded allocation.
//
// Shape of one input: the bytes are written to a per-process temp file and
// loaded three times against a small fixed graph through the one load path
// — owned (a private heap copy, deep-validated), from an mmap with
// verify_mapped set, so both byte sources run the header and directory
// parses, the arena walk and the deep checks, and from an mmap without
// them, as `kboostd --mmap-pool` loads. When a load accepts the bytes, the
// loaded session must answer a solve: anything the validator lets through
// has to actually be servable, which is precisely the promise the loader's
// validation makes — the deep checks guard answers, never memory.
//
// The graph is intentionally tiny (matching fuzz/gen_corpus.cc, whose
// checked-in seeds were snapshotted against the same graph) so accepted
// inputs solve in microseconds and the harness stays I/O bound, not
// solve bound.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <fstream>

#include <unistd.h>

#include "src/core/boost_session.h"
#include "src/graph/generators.h"
#include "src/graph/graph_builder.h"
#include "src/io/pool_io.h"
#include "src/util/rng.h"

namespace kboost {
namespace {

#define FUZZ_ASSERT(cond)                                                  \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "FUZZ_ASSERT failed at %s:%d: %s\n", __FILE__,  \
                   __LINE__, #cond);                                       \
      std::abort();                                                        \
    }                                                                      \
  } while (0)

// The fixed graph every input is loaded against — identical to the one
// fuzz/gen_corpus.cc snapshots, so the checked-in seed corpus is loadable.
const DirectedGraph& FuzzGraph() {
  static const DirectedGraph* graph = [] {
    Rng rng(7);
    GraphBuilder b = BuildErdosRenyi(24, 96, rng);
    b.AssignConstantProbability(0.2);
    b.SetBoostWithBeta(2.0);
    return new DirectedGraph(std::move(b).Build());
  }();
  return *graph;
}

// One scratch file per process, reused across inputs (libFuzzer runs
// thousands of inputs per second; a mkstemp per input would be pure churn),
// and removed when the process exits normally.
const std::string& ScratchPath() {
  static const std::string* path = [] {
    char buf[] = "/tmp/kboost_fuzz_snapshot_XXXXXX";
    const int fd = mkstemp(buf);
    FUZZ_ASSERT(fd >= 0);
    close(fd);
    FUZZ_ASSERT(std::atexit([] { unlink(ScratchPath().c_str()); }) == 0);
    return new std::string(buf);
  }();
  return *path;
}

void FuzzOne(const uint8_t* data, size_t size) {
  {
    std::ofstream out(ScratchPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }

  const DirectedGraph& graph = FuzzGraph();

  // Owned (always deep-validated), mmap with the deep checks, and mmap
  // without them (the default a serving process uses).
  for (const int load : {0, 1, 2}) {
    PoolLoadOptions options;
    options.use_mmap = load > 0;
    options.verify_mapped = load == 1;
    StatusOr<std::unique_ptr<BoostSession>> loaded =
        LoadPoolSnapshot(graph, ScratchPath(), options);
    if (!loaded.ok()) continue;
    // The loader's contract: anything it accepts is a prepared, servable
    // pool. A crash or wild answer here means validation let bad data by.
    BoostSession& session = **loaded;
    FUZZ_ASSERT(session.prepared());
    session.Prepare();
    StatusOr<BoostResult> result = session.Solve({.k = 1});
    FUZZ_ASSERT(result.ok() && result->best_set.size() <= 1);
  }
}

}  // namespace
}  // namespace kboost

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  kboost::FuzzOne(data, size);
  return 0;
}
