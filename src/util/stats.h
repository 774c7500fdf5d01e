#ifndef KBOOST_UTIL_STATS_H_
#define KBOOST_UTIL_STATS_H_

#include <cstddef>
#include <vector>

namespace kboost {

/// Streaming mean/variance accumulator (Welford). Numerically stable; O(1)
/// memory, so it is used by the Monte-Carlo estimators that draw millions of
/// samples.
class RunningStat {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double stderr_mean() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Returns the q-quantile (0 <= q <= 1) of `values` by linear interpolation.
/// Copies and partially sorts; intended for reporting, not hot paths.
double Quantile(std::vector<double> values, double q);

}  // namespace kboost

#endif  // KBOOST_UTIL_STATS_H_
