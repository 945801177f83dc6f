// Shared vocabulary of the fleet layer: QoS classes, typed rejection
// errors, the client request record and the fleet-wide stats block.
//
// The invariants the whole layer is built around (asserted by
// FleetManager::check_invariants and the bench_soak fleet scenario):
//
//   submitted == completed_ok + completed_fallback + completed_failed
//                + shed_total            (no request is ever silently lost)
//   shed_total == sum of the per-reason shed counters
//                                        (every shed carries a typed error)
#pragma once

#include <cstdint>
#include <string>

#include "sim/kernel.hpp"

namespace presp::fleet {

/// Service classes, strictest first. Indices are dense: used to address
/// per-class queues, buckets and stats.
enum class QosClass : std::uint8_t { kRealtime = 0, kStandard, kBestEffort };
inline constexpr int kNumQosClasses = 3;

const char* to_string(QosClass cls);

/// Typed rejection reasons. Shedding is always explicit: a request that
/// is not completed carries exactly one of these.
enum class FleetError : std::uint8_t {
  kNone = 0,
  /// The class token bucket stayed empty past the request's deadline.
  kThrottled,
  /// The submitting tenant's own token bucket was empty at submit time
  /// (tenant-level throttling, distinct from the class-limit kThrottled).
  kTenantThrottled,
  /// The class admission queue was full at submit time.
  kQueueFull,
  /// Reject-early: the deadline cannot be met even if dispatched now.
  kDeadlineShed,
  /// Every shard was saturated (or the soak drained with work queued).
  kSaturated,
  /// No shard/tile passed its circuit breaker for this request.
  kShardUnavailable,
  /// Dispatched, but the runtime reported a terminal failure.
  kExecFailed,
};
inline constexpr int kNumFleetErrors = 8;

const char* to_string(FleetError error);

/// Per-class admission parameters (one row of FleetTopology::classes).
struct QosClassParams {
  /// Dispatch weight for the deficit round-robin across classes.
  double weight = 1.0;
  /// Token-bucket refill, tokens per scheduling quantum (1 token = 1
  /// request). Fractions accumulate.
  double tokens_per_quantum = 1.0;
  /// Token-bucket capacity (burst allowance).
  double burst = 8.0;
  /// Bounded admission queue depth; submits beyond it shed kQueueFull.
  int queue_bound = 32;
  /// Relative deadline assigned to requests of this class, in quanta.
  long long deadline_quanta = 100;
};

/// One tenant request for an accelerator swap + run.
struct FleetRequest {
  std::uint64_t id = 0;
  int tenant = 0;
  QosClass cls = QosClass::kStandard;
  std::string module;
  long long items = 256;
  /// Absolute fleet-clock deadline (cycles).
  sim::Time deadline = 0;
  /// Fleet-clock submit time (cycles).
  sim::Time submitted_at = 0;
};

/// Terminal disposition of one request.
enum class OutcomeKind : std::uint8_t {
  kOk = 0,          // ran on fabric, completed
  kCoalescedOk,     // completed by fanning out a coalesced leader's work
  kFallback,        // best-effort software path (graceful degradation)
  kFailed,          // dispatched but the runtime failed it (kExecFailed)
  kShed,            // rejected with a typed FleetError before dispatch
};

struct FleetOutcome {
  std::uint64_t request_id = 0;
  QosClass cls = QosClass::kStandard;
  OutcomeKind kind = OutcomeKind::kOk;
  FleetError error = FleetError::kNone;
  /// Shard the request ran on (-1 for shed/fallback outcomes).
  int shard = -1;
  /// Fleet-clock completion time (cycles).
  sim::Time completed_at = 0;
  /// submit -> completion, fleet clock (0 for sheds).
  sim::Time latency = 0;
  bool deadline_met = false;
};

struct FleetStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed_ok = 0;
  std::uint64_t completed_fallback = 0;
  std::uint64_t completed_failed = 0;
  std::uint64_t shed_total = 0;
  /// Indexed by FleetError (kNone slot stays 0).
  std::uint64_t shed_by_reason[kNumFleetErrors] = {};
  /// Requests that piggybacked on another tenant's reconfiguration.
  std::uint64_t coalesced = 0;
  /// Coalesced followers whose leader failed and who were re-queued.
  std::uint64_t coalesce_requeues = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  /// Half-open probes that re-opened a breaker.
  std::uint64_t breaker_reopens = 0;
  /// Quanta during which at least one shard was stall-injected.
  std::uint64_t stall_quanta = 0;
  std::uint64_t burst_arrivals = 0;
  /// Tile rehabilitations requested by half-open tile breakers.
  std::uint64_t probe_rehabilitations = 0;

  std::uint64_t completed() const {
    return completed_ok + completed_fallback + completed_failed;
  }
  /// Zero requests lost: every submit has a terminal outcome.
  bool conserved() const {
    return submitted == completed() + shed_total;
  }
  /// Every shed carries a reason.
  bool sheds_explained() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t n : shed_by_reason) sum += n;
    return sum == shed_total;
  }
};

}  // namespace presp::fleet
