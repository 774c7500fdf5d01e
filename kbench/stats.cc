#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/rng.h"

namespace kbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  // statistics.quantiles(data, n=4, method='exclusive'), integer for integer.
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long n = 4;
  const long m = ld + 1;
  std::array<double, 3> cuts{};
  if (ld < 2) {
    cuts.fill(ld == 1 ? values[0] : 0.0);
    return cuts;
  }
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                   values[j] * static_cast<double>(delta)) /
                  static_cast<double>(n);
  }
  return cuts;
}

double RelativeIqr(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  const double median = Median(values);
  if (median == 0.0) return 0.0;
  const std::array<double, 3> q = Quartiles(values);
  return (q[2] - q[0]) / std::fabs(median);
}

Tail TailPercentile(const std::vector<double>& values, double percentile) {
  const double n = static_cast<double>(values.size());
  for (double p : {percentile, 90.0, 50.0}) {
    if (p > percentile) continue;
    if (n * (1.0 - p / 100.0) >= 10.0) {
      char label[16];
      std::snprintf(label, sizeof(label), "p%g", p);
      return {Quantile(values, p / 100.0), label};
    }
  }
  return {values.empty() ? 0.0 : *std::max_element(values.begin(),
                                                   values.end()),
          "max"};
}

Reservoir::Reservoir(size_t capacity, uint64_t seed)
    : buffer_(capacity, 0.0), state_(seed) {}

void Reservoir::Add(double value) {
  if (seen_ < buffer_.size()) {
    buffer_[seen_] = value;
  } else {
    const uint64_t slot = kboost::SplitMix64(state_) % (seen_ + 1);
    if (slot < buffer_.size()) buffer_[slot] = value;
  }
  ++seen_;
}

std::vector<double> Reservoir::Values() const {
  const size_t kept = static_cast<size_t>(
      std::min<uint64_t>(seen_, buffer_.size()));
  return {buffer_.begin(), buffer_.begin() + static_cast<long>(kept)};
}

}  // namespace kbench
