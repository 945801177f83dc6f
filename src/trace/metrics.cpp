#include "trace/metrics.hpp"

#include <cmath>

#include "util/json.hpp"

namespace presp::trace {

namespace {

int bucket_for(double v) {
  if (!(v >= 1.0)) return 0;  // v < 1, NaN
  const int exponent = std::ilogb(v) + 1;
  return exponent >= Histogram::kBuckets ? Histogram::kBuckets - 1 : exponent;
}

}  // namespace

void Histogram::observe(double v) {
  buckets_[static_cast<std::size_t>(bucket_for(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::quantile_upper_bound(double p) const {
  const std::uint64_t total = count();
  if (total == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const auto rank = static_cast<std::uint64_t>(p * static_cast<double>(total));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (seen > rank || (seen == total && seen != 0)) {
      return i == 0 ? 1.0 : std::ldexp(1.0, i);
    }
  }
  return std::ldexp(1.0, kBuckets - 1);
}

void Histogram::reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

bool MetricsRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.empty() && gauges_.empty() && histograms_.empty();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::string MetricsRegistry::snapshot_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ':';
    out += std::to_string(counter->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"value\":";
    append_json_number(out, gauge->value());
    out += ",\"max\":";
    append_json_number(out, gauge->max_seen());
    out += '}';
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":";
    out += std::to_string(histogram->count());
    out += ",\"sum\":";
    append_json_number(out, histogram->sum());
    out += ",\"p50\":";
    append_json_number(out, histogram->quantile_upper_bound(0.50));
    out += ",\"p95\":";
    append_json_number(out, histogram->quantile_upper_bound(0.95));
    out += '}';
  }
  out += "}}";
  return out;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_)
    snap.counters[name] = counter->value();
  for (const auto& [name, gauge] : gauges_)
    snap.gauges[name] = {gauge->value(), gauge->max_seen()};
  for (const auto& [name, histogram] : histograms_)
    snap.histograms[name] = {histogram->count(), histogram->sum(),
                             histogram->quantile_upper_bound(0.50),
                             histogram->quantile_upper_bound(0.95)};
  return snap;
}

namespace {

/// Metric names are dotted identifiers ("fleet.shed"); Prometheus wants
/// [a-zA-Z0-9_:] with a family prefix.
std::string prometheus_name(const std::string& name) {
  std::string out = "presp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

/// A sample value in the exposition format, which spells the non-finite
/// values NaN, +Inf and -Inf (JSON's `null` is not a sample value).
void append_prometheus_value(std::string& out, double v) {
  if (std::isnan(v)) out += "NaN";
  else if (std::isinf(v)) out += v > 0 ? "+Inf" : "-Inf";
  else append_json_number(out, v);
}

}  // namespace

std::string MetricsRegistry::prometheus_text() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, sample] : snap.gauges) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " gauge\n";
    out += prom + " ";
    append_prometheus_value(out, sample.value);
    out += "\n# TYPE " + prom + "_max gauge\n";
    out += prom + "_max ";
    append_prometheus_value(out, sample.max);
    out += "\n";
  }
  for (const auto& [name, sample] : snap.histograms) {
    const std::string prom = prometheus_name(name);
    out += "# TYPE " + prom + " summary\n";
    out += prom + "{quantile=\"0.5\"} ";
    append_prometheus_value(out, sample.p50);
    out += "\n" + prom + "{quantile=\"0.95\"} ";
    append_prometheus_value(out, sample.p95);
    out += "\n" + prom + "_sum ";
    append_prometheus_value(out, sample.sum);
    out += "\n" + prom + "_count " + std::to_string(sample.count) + "\n";
  }
  return out;
}

}  // namespace presp::trace
