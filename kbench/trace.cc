#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "stats.h"

namespace kbench {

namespace {
constexpr size_t kSpansPerLog = 1 << 14;
/// Far beyond any request count a run reaches; stops the doubling when a
/// full log holds nothing a larger stride would discard.
constexpr uint64_t kMaxStride = uint64_t{1} << 40;
}  // namespace

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog(uint64_t index, size_t capacity) : index_(index) {
  spans_.reserve(capacity);
}

void SpanLog::Add(const Span& span) {
  if (spans_.size() == spans_.capacity() && span.request_id != 0 &&
      stride_ < kMaxStride) {
    stride_ *= 2;
    std::erase_if(spans_, [&](const Span& s) { return !Keeps(s.request_id); });
  }
  if (!Keeps(span.request_id)) return;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

SpanLog* Tracer::NewLog() {
  if (!enabled_) return nullptr;
  kboost::MutexLock lock(mutex_);
  logs_.push_back(std::make_unique<SpanLog>(logs_.size() + 1, kSpansPerLog));
  return logs_.back().get();
}

std::vector<Span> Tracer::Collect() const {
  kboost::MutexLock lock(mutex_);
  std::vector<Span> all;
  for (const auto& log : logs_) {
    all.insert(all.end(), log->spans().begin(), log->spans().end());
  }
  return all;
}

uint64_t Tracer::stride() const {
  kboost::MutexLock lock(mutex_);
  uint64_t largest = 1;
  for (const auto& log : logs_) largest = std::max(largest, log->stride());
  return largest;
}

uint64_t Tracer::dropped() const {
  kboost::MutexLock lock(mutex_);
  uint64_t total = 0;
  for (const auto& log : logs_) total += log->dropped();
  return total;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t parent,
                       uint64_t request_id)
    : log_(log != nullptr && log->Keeps(request_id) ? log : nullptr) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.parent = parent;
  span_.request_id = request_id;
  span_.id = log_->NextId();
  span_.start_ns = NowNanos();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = NowNanos();
  log_->Add(span_);
}

std::vector<SpanSummary> Summarize(const std::vector<Span>& spans) {
  // Children of one parent may run concurrently (a probe's callers), so the
  // covered part is the union of their intervals, clipped to the parent.
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  struct Acc {
    std::vector<double> durations_us;
    double self_ns = 0.0;
  };
  std::map<std::string, Acc> by_name;
  for (const Span& s : spans) {
    Acc& acc = by_name[s.name];
    acc.durations_us.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                               1e3);
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>>& kids = it->second;
      std::sort(kids.begin(), kids.end());
      int64_t reach = s.start_ns;
      for (const auto& [start, end] : kids) {
        const int64_t from = std::max(start, reach);
        const int64_t to = std::min(end, s.end_ns);
        if (to > from) covered += to - from;
        reach = std::max(reach, to);
      }
    }
    acc.self_ns += static_cast<double>(s.end_ns - s.start_ns - covered);
  }
  std::vector<SpanSummary> out;
  for (auto& [name, acc] : by_name) {
    out.push_back({name, acc.durations_us.size(), Median(acc.durations_us),
                   acc.self_ns / 1e6});
  }
  return out;
}

kboost::Status WriteSpans(const std::vector<Span>& spans,
                          const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return kboost::Status::IoError("cannot write " + path);
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request_id\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  const bool ok = std::fclose(f) == 0;
  return ok ? kboost::Status::Ok()
            : kboost::Status::IoError("short write to " + path);
}

}  // namespace kbench
