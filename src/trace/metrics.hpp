// Always-on named metrics: lock-free counters, gauges, and log2-bucketed
// histograms registered by name in a process-global MetricsRegistry.
// Unlike trace events, metrics are unconditional — an instrument is a
// couple of relaxed atomics, cheap enough to update on hot paths without
// a session being active — and are exported as a JSON snapshot (served
// by the ops plane's /metrics endpoint).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace presp::trace {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus the maximum ever written (for depth-style
/// instruments where the peak matters more than the final sample).
class Gauge {
 public:
  void set(double v) {
    value_.store(v, std::memory_order_relaxed);
    update_max(v);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  double max_seen() const { return max_.load(std::memory_order_relaxed); }
  void reset() {
    value_.store(0.0, std::memory_order_relaxed);
    max_.store(0.0, std::memory_order_relaxed);
  }

 private:
  void update_max(double v) {
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::atomic<double> value_{0.0};
  std::atomic<double> max_{0.0};
};

/// Log2-bucketed distribution of non-negative samples. Bucket i counts
/// samples in [2^(i-1), 2^i) (bucket 0 counts samples < 1), which gives
/// ~2x-resolution percentiles over 64 decades with zero allocation.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v);
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  /// Upper bound of the bucket containing the p-quantile (p in [0,1]);
  /// 0 when empty.
  double quantile_upper_bound(double p) const;
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Structured point-in-time copy of every registered instrument, used by
/// consumers that need values rather than a rendered report (the ops
/// plane's SSE pump diffs two of these to publish counter deltas).
struct MetricsSnapshot {
  struct GaugeSample {
    double value = 0.0;
    double max = 0.0;
  };
  struct HistogramSample {
    std::uint64_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, GaugeSample> gauges;
  std::map<std::string, HistogramSample> histograms;
};

/// Process-global registry of named instruments. Lookup takes a mutex;
/// the returned references stay valid for the life of the process, so
/// hot paths resolve their instruments once and cache the reference.
class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  bool empty() const;
  /// Zeroes every instrument (instruments themselves stay registered).
  void reset();

  /// Sorted-by-name JSON object:
  ///   {"counters":{...},"gauges":{...},"histograms":{...}}
  std::string snapshot_json() const;

  /// Structured snapshot of every instrument's current value.
  MetricsSnapshot snapshot() const;

  /// Prometheus text exposition (one sanitized `presp_`-prefixed family
  /// per instrument; histograms render count/sum plus p50/p95 quantile
  /// samples from the log2 buckets).
  std::string prometheus_text() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace presp::trace
