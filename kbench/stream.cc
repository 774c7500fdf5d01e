#include "stream.h"

#include <utility>

#include "src/util/rng.h"

namespace kbench {

std::vector<StreamQuery> MakeQueryStream(uint64_t seed, kboost::SolveMode mode,
                                         size_t per_budget) {
  std::vector<StreamQuery> stream;
  stream.reserve(per_budget * kStreamBudgets.size());
  for (size_t k : kStreamBudgets) {
    for (size_t i = 0; i < per_budget; ++i) stream.push_back({k, mode});
  }
  kboost::Rng rng(seed);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
  }
  return stream;
}

const char* ModeName(kboost::SolveMode mode) {
  switch (mode) {
    case kboost::SolveMode::kAuto:
      return "auto";
    case kboost::SolveMode::kFull:
      return "full";
    case kboost::SolveMode::kLbOnly:
      return "lb";
  }
  return "?";
}

}  // namespace kbench
