#include "src/serve/service_stats.h"

namespace kboost {

void PoolStatsCollector::RecordQuery(double latency_seconds) {
  const double ms = latency_seconds * 1e3;
  MutexLock lock(mutex_);
  latency_ms_.Add(ms);
  if (window_ms_.size() < kWindow) {
    window_ms_.push_back(ms);
  } else {
    window_ms_[window_next_] = ms;
  }
  window_next_ = (window_next_ + 1) % kWindow;
  ewma_ms_ = ewma_ms_ == 0.0 ? ms : ewma_ms_ + (ms - ewma_ms_) * kEwmaAlpha;
}

void PoolStatsCollector::RecordError() {
  MutexLock lock(mutex_);
  ++errors_;
}

void PoolStatsCollector::RecordShed() {
  shed_.fetch_add(1, std::memory_order_relaxed);
}

void PoolStatsCollector::RecordDeadlineMiss() {
  deadline_misses_.fetch_add(1, std::memory_order_relaxed);
}

void PoolStatsCollector::RecordLoadRetries(uint64_t retries) {
  load_retries_.fetch_add(retries, std::memory_order_relaxed);
}

void PoolStatsCollector::FillSnapshot(PoolStatsSnapshot* out) const {
  std::vector<double> window;
  {
    MutexLock lock(mutex_);
    out->queries = latency_ms_.count();
    out->errors = errors_;
    out->latency_mean_ms = latency_ms_.mean();
    out->latency_ewma_ms = ewma_ms_;
    window = window_ms_;
  }
  out->shed = shed_.load(std::memory_order_relaxed);
  out->deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
  out->load_retries = load_retries_.load(std::memory_order_relaxed);
  // Quantile sorts a copy; done outside the lock so a slow snapshot never
  // stalls the query path.
  if (!window.empty()) {
    out->latency_p50_ms = Quantile(window, 0.50);
    out->latency_p95_ms = Quantile(std::move(window), 0.95);
  }
}

}  // namespace kboost
