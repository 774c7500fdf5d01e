#ifndef KBOOST_CORE_SOLVE_CONTEXT_H_
#define KBOOST_CORE_SOLVE_CONTEXT_H_

#include "src/core/prr_store.h"

namespace kboost {

/// The query-time mutable state of one in-flight boost query. A prepared
/// pool (sampled PrrCollection, warmed inverted indexes, cached LB greedy
/// order) is strictly read-only at query time; everything a solve scribbles
/// on lives either in oracle-local scratch created per call (the greedy
/// heap, the gain table, evaluator scratch) or here — the incremental
/// evaluation engine's per-graph status and bitmap arenas (one PrrEvalState
/// per pool shard), which are the one piece worth keeping warm across
/// queries.
///
/// Concurrency contract: one SolveContext per in-flight query. N threads
/// may solve different budgets/modes against one shared prepared pool
/// simultaneously by bringing one context each; the results are
/// bit-identical to the serial loop. Reusing a context across *sequential*
/// queries on the same pool keeps its allocations (the eval-state arenas are
/// kept while the shard generations are unchanged, and a solve zeroes only
/// the graphs it touches); a context carried across a pool hot-swap or a
/// reload simply re-attaches — even when the replacement pool has a
/// different shard count or reuses the old pool's memory.
struct SolveContext {
  ShardedEvalState eval_state;
};

}  // namespace kboost

#endif  // KBOOST_CORE_SOLVE_CONTEXT_H_
