// Fleet topology & policy: shard count, scheduling quantum, QoS class
// parameters, tenant buckets, circuit breakers and online repacking.
// Callers (bench_soak, perfbench, the fleet tests) set the fields in
// code; FleetManager runs validate() and throws on values it cannot run
// with.
#pragma once

#include "fleet/breaker.hpp"
#include "fleet/types.hpp"

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
  /// runtime::Repacker over a dynamic floorplan of its fabric.
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

  /// Throws presp::InvalidArgument on values the manager cannot run with
  /// (shards < 1, non-positive quantum/queue bounds, zero class weight
  /// sum, breaker thresholds outside (0,1], window outside [1,64]).
  void validate() const;
};

}  // namespace presp::fleet
