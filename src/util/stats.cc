#include "src/util/stats.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace kboost {

void RunningStat::Add(double x) {
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::stderr_mean() const {
  if (count_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double Quantile(std::vector<double> values, double q) {
  KB_CHECK(!values.empty());
  KB_CHECK(q >= 0.0 && q <= 1.0) << "q=" << q;
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values[0];
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace kboost
