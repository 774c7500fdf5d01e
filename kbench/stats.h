#ifndef KBENCH_STATS_H_
#define KBENCH_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace kbench {

/// Linear-interpolation quantile of `values` at q ∈ [0, 1] (the "type 7"
/// definition numpy uses by default). 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Quantile(values, 0.5).
double Median(std::vector<double> values);

/// The three cut points Python's statistics.quantiles(values, n=4) returns
/// (its default 'exclusive' method), so a spread printed here matches the
/// one a Python script computes over the same numbers. Needs ≥ 2 values.
std::array<double, 3> Quartiles(std::vector<double> values);

/// (Q3 − Q1) / median, the run-to-run spread the benchmark's bounds are
/// stated in. 0 when the median is 0 or there are fewer than 2 values.
double RelativeIqr(const std::vector<double>& values);

/// A latency tail: the requested percentile when the sample has at least
/// ten values beyond it, else the highest percentile of {90, 50} that does,
/// else the maximum. `label` says which one was taken ("p99", "max", ...).
struct Tail {
  double value = 0.0;
  std::string label;
};
Tail TailPercentile(const std::vector<double>& values, double percentile);

/// Fixed-memory uniform sample of a stream (Vitter's Algorithm R): a probe
/// timing a sub-microsecond call millions of times keeps bounded memory.
/// The buffer is allocated up front; below capacity every value is kept.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed);

  void Add(double value);
  /// The kept values (all of them while fewer than capacity were added).
  std::vector<double> Values() const;
  uint64_t seen() const { return seen_; }

 private:
  std::vector<double> buffer_;
  uint64_t seen_ = 0;
  uint64_t state_;
};

}  // namespace kbench

#endif  // KBENCH_STATS_H_
