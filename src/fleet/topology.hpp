// Fleet topology & policy, parsed from the `[fleet]` section of an
// .esp_config file:
//
//   [fleet]
//   shards = 2
//   quantum_cycles = 4000
//   coalesce_limit = 4
//   # class_<name> = weight, tokens_per_quantum, burst, queue_bound,
//   #                deadline_quanta
//   class_realtime   = 8, 4.0, 8, 32, 600
//   class_standard   = 4, 2.0, 16, 64, 2000
//   class_besteffort = 1, 1.0, 32, 128, 8000
//   tenant_tokens_per_quantum = 0.5   # 0 (default) disables
//   tenant_burst = 8
//   breaker_failure_threshold = 0.5
//   breaker_window = 8
//   breaker_open_base_cycles = 200000
//   breaker_open_max_cycles = 3200000
//   breaker_half_open_probes = 2
//   repack = 1                        # 0 (default) disables
//   repack_interval_cycles = 2000000
//   repack_frag_threshold = 0.05
//   repack_max_migrations = 4
//   repack_migration_budget = 2
//
// from_config() is deliberately lenient (defaults for every key) — the
// presp-lint `fleet.*` rule pack is where misconfigurations are reported
// with file/line diagnostics; FleetManager re-validates the invariants it
// cannot run without and throws ConfigError.
#pragma once

#include <string>

#include "fleet/breaker.hpp"
#include "fleet/types.hpp"
#include "util/config.hpp"

namespace presp::fleet {

struct FleetTopology {
  /// Independent SoC instances driven in lock-step quanta.
  int shards = 2;
  /// Fleet scheduling quantum: each shard's kernel advances this many
  /// cycles between admission/dispatch/reap passes.
  long long quantum_cycles = 4'000;
  /// Max followers coalesced onto one in-flight reconfiguration.
  int coalesce_limit = 4;
  /// Dispatch estimate used for reject-early deadline shedding.
  long long service_estimate_cycles = 120'000;
  /// Modeled latency of the best-effort software fallback path.
  long long fallback_latency_cycles = 400'000;
  /// Cycles an injected shard stall freezes a shard's kernel.
  long long stall_cycles = 400'000;
  /// Arrival multiplier while an injected burst overload is active.
  int burst_multiplier = 8;
  /// Tenant-level token bucket layered *under* the per-class buckets:
  /// consumed at submit time, before class admission. 0 disables tenant
  /// throttling entirely (the default — class buckets alone govern).
  double tenant_tokens_per_quantum = 0.0;
  /// Tenant bucket capacity (burst allowance). Ignored while disabled.
  double tenant_burst = 8.0;
  /// Online defragmentation: when true every shard runs a background
  /// runtime::Repacker over a dynamic floorplan of its fabric
  /// (`repack = 1` in [fleet], the only section that configures
  /// repacking; presp-lint runtime.repacker-bounds checks the knobs
  /// below).
  bool repack = false;
  /// Cycles between repack passes on each shard. Must stay positive.
  long long repack_interval_cycles = 2'000'000;
  /// Fragmentation ratio a pass must exceed before it migrates.
  double repack_frag_threshold = 0.05;
  /// Migrations attempted per pass.
  int repack_max_migrations = 4;
  /// Consecutive aborted/failed migrations tolerated per pass.
  int repack_migration_budget = 2;
  /// Indexed by QosClass.
  QosClassParams classes[kNumQosClasses] = {
      {8.0, 4.0, 8.0, 32, 600},     // realtime
      {4.0, 2.0, 16.0, 64, 2000},   // standard
      {1.0, 1.0, 32.0, 128, 8000},  // besteffort
  };
  BreakerOptions breaker;

  /// Reads the `[fleet]` section (missing keys keep defaults; a missing
  /// section returns the default topology).
  static FleetTopology from_config(const Config& config);

  /// Throws presp::InvalidArgument on values the manager cannot run with
  /// (shards < 1, non-positive quantum/queue bounds, zero class weight
  /// sum, breaker thresholds outside (0,1], window outside [1,64]).
  void validate() const;
};

}  // namespace presp::fleet
