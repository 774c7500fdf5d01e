// The benchmark's unit tests: stream determinism per seed, the quantile,
// quartile and reservoir helpers on known inputs, and span-log sampling. The tiny-scale smoke of
// every workload is run.py --self-test's contract check.

#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "stats.h"
#include "stream.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestStreamIsDeterministicPerSeed() {
  using kboost::SolveMode;
  const auto a = kbench::MakeQueryStream(7, SolveMode::kAuto, 25);
  const auto b = kbench::MakeQueryStream(7, SolveMode::kAuto, 25);
  const auto c = kbench::MakeQueryStream(8, SolveMode::kAuto, 25);
  EXPECT(a.size() == 25 * kbench::kStreamBudgets.size());
  bool same_ab = a.size() == b.size(), same_ac = a.size() == c.size();
  std::map<size_t, size_t> counts;
  for (size_t i = 0; i < a.size(); ++i) {
    same_ab = same_ab && a[i].k == b[i].k && a[i].mode == b[i].mode;
    same_ac = same_ac && a[i].k == c[i].k;
    EXPECT(a[i].mode == SolveMode::kAuto);
    ++counts[a[i].k];
  }
  EXPECT(same_ab);
  EXPECT(!same_ac);
  EXPECT(counts.size() == kbench::kStreamBudgets.size());
  for (size_t k : kbench::kStreamBudgets) EXPECT(counts[k] == 25);
  // Shuffled, not sorted by budget.
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted = sorted && a[i - 1].k <= a[i].k;
  EXPECT(!sorted);
}

void TestQuantiles() {
  EXPECT(Near(kbench::Quantile({4, 1, 3, 2}, 0.5), 2.5));
  EXPECT(Near(kbench::Quantile({4, 1, 3, 2}, 0.0), 1.0));
  EXPECT(Near(kbench::Quantile({4, 1, 3, 2}, 1.0), 4.0));
  EXPECT(Near(kbench::Quantile({10, 20}, 0.25), 12.5));
  EXPECT(Near(kbench::Median({5}), 5.0));
  EXPECT(Near(kbench::Median({}), 0.0));

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q10 = kbench::Quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT(Near(q10[0], 2.75) && Near(q10[1], 5.5) && Near(q10[2], 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = kbench::Quartiles({2, 1});
  EXPECT(Near(q2[0], 0.75) && Near(q2[1], 1.5) && Near(q2[2], 2.25));
  // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
  const auto q5 = kbench::Quartiles({3, 1, 4, 1, 5});
  EXPECT(Near(q5[0], 1.0) && Near(q5[1], 3.0) && Near(q5[2], 4.5));
  EXPECT(Near(kbench::RelativeIqr({10, 9, 8, 7, 6, 5, 4, 3, 2, 1}),
              (8.25 - 2.75) / 5.5));

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const kbench::Tail p99 = kbench::TailPercentile(thousand, 99.0);
  EXPECT(p99.label == "p99" && Near(p99.value, 990.01));
  std::vector<double> twenty(thousand.begin(), thousand.begin() + 20);
  EXPECT(kbench::TailPercentile(twenty, 99.0).label == "p50");
  const kbench::Tail few = kbench::TailPercentile({3, 9, 1}, 99.0);
  EXPECT(few.label == "max" && Near(few.value, 9.0));
}

void TestReservoirKeepsFixedMemory() {
  kbench::Reservoir r(4, 1);
  for (int i = 0; i < 3; ++i) r.Add(i);
  EXPECT(r.Values().size() == 3);
  for (int i = 0; i < 100; ++i) r.Add(i);
  EXPECT(r.Values().size() == 4);
  EXPECT(r.seen() == 103);
}

void TestSpanLogSamplesUniformly() {
  kbench::SpanLog log(1, 8);
  kbench::Span frame;
  frame.name = "frame";  // request 0: always kept
  log.Add(frame);
  for (uint64_t id = 1; id <= 100; ++id) {
    kbench::Span span;
    span.name = "request";
    span.request_id = id;
    if (log.Keeps(id)) log.Add(span);
  }
  // 100 requests into 7 free slots: the stride doubled to 16, keeping
  // requests 16, 32, ..., 96 from the whole range, not the first seven.
  EXPECT(log.stride() == 16);
  EXPECT(log.spans().size() == 7);
  EXPECT(log.spans().front().request_id == 0);
  EXPECT(log.spans().back().request_id == 96);
  for (const kbench::Span& s : log.spans()) EXPECT(s.request_id % 16 == 0);
  EXPECT(log.dropped() == 0);
}

}  // namespace

int main() {
  TestStreamIsDeterministicPerSeed();
  TestQuantiles();
  TestReservoirKeepsFixedMemory();
  TestSpanLogSamplesUniformly();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("kbench_test: all passed\n");
  return 0;
}
