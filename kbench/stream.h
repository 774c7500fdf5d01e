#ifndef KBENCH_STREAM_H_
#define KBENCH_STREAM_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/prr_boost.h"

namespace kbench {

/// The budgets a what-if planner asks about. The stream draws k uniformly
/// from this set; the largest is the pool's sampling budget k_max.
inline constexpr std::array<size_t, 6> kStreamBudgets = {1, 5, 10, 20, 50,
                                                         100};
inline constexpr size_t kMaxBudget = 100;

struct StreamQuery {
  size_t k = 0;
  kboost::SolveMode mode = kboost::SolveMode::kAuto;
};

/// The one seeded query stream every tier replays: `per_budget` queries at
/// each budget of kStreamBudgets, all in `mode`, shuffled by a Fisher–Yates
/// pass driven by kboost::Rng(seed). Each budget appears equally often, so a
/// run's work does not depend on the luck of the draw; the same seed always
/// gives the same order on every platform.
std::vector<StreamQuery> MakeQueryStream(uint64_t seed, kboost::SolveMode mode,
                                         size_t per_budget);

const char* ModeName(kboost::SolveMode mode);

}  // namespace kbench

#endif  // KBENCH_STREAM_H_
