// Shared plumbing of the repository benchmark: options, the result report,
// the span recorder that times calls into each layer, and the flow digest.
//
// A run either measures the end-to-end metrics (untraced) or the per-layer
// metrics (traced); the two are never mixed in one process, so the traced
// run's bookkeeping cannot slow the end-to-end numbers down.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/flow.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run directory for every cache, artifact and floorplan the run
  /// writes; created and removed by the caller.
  std::string scratch;
  /// Test hook: breaks one output on purpose so an oracle must fail
  /// ("corrupt-partial", "skew-params" or "drop-outcome").
  std::string sabotage;
  /// Test hook: the smallest configuration that still emits every metric.
  bool tiny = false;
  /// Pool width of every parallel path: min(4, hardware threads).
  int pool_threads = 1;
};

/// Everything one run reports. Operations are counted as attempted, and
/// every oracle violation is counted against them as failed.
class Report {
 public:
  void set(const std::string& name, double value) { metrics_[name] = value; }
  /// Per-part samples of one end-to-end timing (one part per SoC or load
  /// rate; every sample of a part repeats identical work).
  using PartSamples = std::map<std::string, std::vector<double>>;
  /// Sets `name` to `scale` times the sum over parts of each part's fastest
  /// sample, and keeps the samples for the detail output. On a shared host
  /// other tenants slow execution by up to 2x in phases lasting seconds,
  /// so the spread within a part is interference, and the fastest sample
  /// of each short part is the steadiest estimate of its undisturbed cost.
  void set_best(const std::string& name, const PartSamples& parts,
                double scale = 1.0);
  const std::map<std::string, PartSamples>& samples() const {
    return samples_;
  }
  const std::map<std::string, double>& metrics() const { return metrics_; }

  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Records a failed operation with the reason on stderr.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// fail(why) unless `ok`; returns ok.
  bool check(bool ok, const std::string& why);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, PartSamples> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Host time per named span, accumulated across calls. The benchmark
/// wraps each call into a layer in one span; nothing inside src/ is
/// instrumented.
class Spans {
 public:
  template <class F>
  decltype(auto) time(const std::string& name, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    struct Stop {
      Spans* spans;
      const std::string& name;
      Clock::time_point t0;
      ~Stop() { spans->ms_[name] += ms_since(t0); }
    } stop{this, name, t0};
    return fn();
  }
  double ms(const std::string& name) const;
  /// Sum over every span.
  double total_ms() const;

 private:
  std::map<std::string, double> ms_;
};

double median(std::vector<double> values);

/// Loop condition of every timed loop: at least one iteration, exactly one
/// with --tiny, otherwise until --seconds have passed.
bool out_of_time(Clock::time_point start, const Options& options, int done);

// ------------------------------------------------------------ flow digest

std::uint64_t mix(std::uint64_t h, std::uint64_t v);
std::uint64_t bits_of(double d);
std::uint64_t hash_words(const std::vector<std::uint32_t>& words);

/// The observable outcome of one flow build. Both PrEspFlow::run (via its
/// FlowResult and the partials it wrote) and the traced replay reduce to
/// this record, so their digests must agree.
struct PartialRecord {
  std::string partition;
  std::string module;
  std::uint32_t crc = 0;
  std::uint64_t word_hash = 0;
  std::size_t raw_bytes = 0;
  std::size_t compressed_bytes = 0;
  bool routed = false;
};

struct BuildRecord {
  std::string design;
  std::string strategy;
  int tau = 0;
  std::map<std::string, presp::fabric::Pblock> pblocks;
  std::vector<PartialRecord> partials;
  std::size_t full_bitstream_bytes = 0;
  double fmax_mhz = 0.0;
  double total_minutes = 0.0;
  bool physical_ok = false;
};

std::uint64_t digest(const BuildRecord& record);

/// Reduces a finished PrEspFlow::run to its record, reading every partial
/// back from `artifacts_dir` (read_bitstream re-checks each CRC). Throws
/// when a partial is missing or corrupt.
BuildRecord record_of(const presp::core::FlowResult& result,
                      const std::string& artifacts_dir);

// -------------------------------------------------------------- workloads

void run_flow_cold(const Options& options, Report& report);
void run_flow_edit(const Options& options, Report& report);
void run_wami(const Options& options, Report& report);
void run_fleet(const Options& options, Report& report);

}  // namespace perfbench
