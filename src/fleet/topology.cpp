#include "fleet/topology.hpp"

#include "util/error.hpp"

namespace presp::fleet {

const char* to_string(QosClass cls) {
  switch (cls) {
    case QosClass::kRealtime: return "realtime";
    case QosClass::kStandard: return "standard";
    case QosClass::kBestEffort: return "besteffort";
  }
  return "?";
}

const char* to_string(FleetError error) {
  switch (error) {
    case FleetError::kNone: return "none";
    case FleetError::kThrottled: return "throttled";
    case FleetError::kTenantThrottled: return "tenant-throttled";
    case FleetError::kQueueFull: return "queue-full";
    case FleetError::kDeadlineShed: return "deadline-shed";
    case FleetError::kSaturated: return "saturated";
    case FleetError::kShardUnavailable: return "shard-unavailable";
    case FleetError::kExecFailed: return "exec-failed";
  }
  return "?";
}

void FleetTopology::validate() const {
  PRESP_REQUIRE(shards >= 1, "fleet needs at least one shard");
  PRESP_REQUIRE(quantum_cycles > 0, "fleet quantum must be positive");
  PRESP_REQUIRE(coalesce_limit >= 0, "negative coalesce limit");
  double weight_sum = 0.0;
  for (const QosClassParams& cls : classes) {
    PRESP_REQUIRE(cls.weight >= 0.0, "negative QoS class weight");
    PRESP_REQUIRE(cls.queue_bound > 0, "QoS queue bound must be positive");
    PRESP_REQUIRE(cls.deadline_quanta > 0, "QoS deadline must be positive");
    weight_sum += cls.weight;
  }
  PRESP_REQUIRE(weight_sum > 0.0, "QoS class weights sum to zero");
  PRESP_REQUIRE(tenant_tokens_per_quantum >= 0.0,
                "negative tenant token rate");
  PRESP_REQUIRE(tenant_tokens_per_quantum == 0.0 || tenant_burst >= 1.0,
                "tenant bucket burst must admit at least one request");
  PRESP_REQUIRE(
      breaker.failure_threshold > 0.0 && breaker.failure_threshold <= 1.0,
      "breaker failure threshold must be in (0, 1]");
  PRESP_REQUIRE(breaker.window >= 1 && breaker.window <= 64,
                "breaker window must be in [1, 64]");
  PRESP_REQUIRE(breaker.open_base_cycles > 0 &&
                    breaker.open_max_cycles >= breaker.open_base_cycles,
                "breaker backoff interval is empty");
  PRESP_REQUIRE(breaker.half_open_probes >= 1,
                "breaker needs at least one half-open probe");
  if (repack) {
    PRESP_REQUIRE(repack_interval_cycles > 0,
                  "repack interval must be positive");
    PRESP_REQUIRE(repack_frag_threshold >= 0.0 && repack_frag_threshold < 1.0,
                  "repack fragmentation threshold must be in [0, 1)");
    PRESP_REQUIRE(repack_max_migrations >= 1,
                  "repack needs at least one migration per pass");
    PRESP_REQUIRE(repack_migration_budget >= 1,
                  "repack needs a positive migration budget");
  }
}

}  // namespace presp::fleet
