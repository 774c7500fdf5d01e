#ifndef KBENCH_TRACE_H_
#define KBENCH_TRACE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/util/status.h"
#include "src/util/sync.h"

namespace kbench {

/// Nanoseconds on the steady clock; every span and latency uses it.
int64_t NowNanos();

/// One timed interval at a layer boundary, recorded by the benchmark around
/// a call into the library (the library itself carries no tracing).
struct Span {
  const char* name = "";     ///< static string, dotted "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;           ///< unique within a run, never 0
  uint64_t parent = 0;       ///< the span that caused this one; 0 = root
  uint64_t request_id = 0;   ///< groups the spans of one request or cycle
};

/// The spans of one thread. Only its owning thread appends, so recording
/// takes no lock, and the buffer is reserved up front so it never
/// reallocates mid-run. A log keeps the requests whose id is a multiple of
/// its stride (1 at first). When the buffer fills, the stride doubles and
/// the spans of requests no longer kept are discarded. What remains is a
/// uniform sample of the whole phase, not its first fraction. Request 0
/// (set-up and probe frames) is always kept. Only when the buffer is full of
/// request-0 spans are spans dropped outright.
class SpanLog {
 public:
  SpanLog(uint64_t index, size_t capacity);

  bool Keeps(uint64_t request_id) const { return request_id % stride_ == 0; }
  uint64_t NextId() { return (index_ << 40) | ++sequence_; }
  void Add(const Span& span);
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t stride() const { return stride_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint64_t index_;
  uint64_t sequence_ = 0;
  uint64_t stride_ = 1;
  uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Owns every thread's SpanLog for one run. Disabled tracers hand out null
/// logs, and a ScopedSpan over a null log records nothing — so the untraced
/// runs that produce end-to-end numbers pay one pointer test per boundary.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// A fresh log for the calling thread, or null when tracing is off.
  SpanLog* NewLog() KB_EXCLUDES(mutex_);
  /// The kept spans of every log. Call once all recording threads have
  /// joined.
  std::vector<Span> Collect() const KB_EXCLUDES(mutex_);
  /// The largest stride any log reached: 1 when every span was kept.
  uint64_t stride() const KB_EXCLUDES(mutex_);
  uint64_t dropped() const KB_EXCLUDES(mutex_);

 private:
  const bool enabled_;
  mutable kboost::Mutex mutex_;
  std::deque<std::unique_ptr<SpanLog>> logs_ KB_GUARDED_BY(mutex_);
};

/// Records [construction, destruction) as one span into `log` (no-op when
/// `log` is null or does not keep `request_id`).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0,
             uint64_t request_id = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id, to pass as the parent of nested spans (0 when off).
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

/// Per span name: how many were kept, the median duration, and the summed
/// self time (duration minus the part covered by the span's children). When
/// the tracer sampled (stride > 1), a span whose children carry other
/// request ids lost some children, so its self time is overstated.
struct SpanSummary {
  std::string name;
  size_t count = 0;
  double p50_us = 0.0;
  double self_total_ms = 0.0;
};
std::vector<SpanSummary> Summarize(const std::vector<Span>& spans);

/// Writes one JSON object per line: name, start_ns, end_ns, id, parent,
/// request_id.
kboost::Status WriteSpans(const std::vector<Span>& spans,
                          const std::string& path);

}  // namespace kbench

#endif  // KBENCH_TRACE_H_
