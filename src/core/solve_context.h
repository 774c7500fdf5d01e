#ifndef KBOOST_CORE_SOLVE_CONTEXT_H_
#define KBOOST_CORE_SOLVE_CONTEXT_H_

namespace kboost {

/// Unused: a prepared solve slices cached orders and keeps no per-query
/// state. Still accepted by the Solve() overloads of BoostSession and
/// BoostService because kbench names it; delete with the next benchmark
/// change.
struct SolveContext {};

}  // namespace kboost

#endif  // KBOOST_CORE_SOLVE_CONTEXT_H_
