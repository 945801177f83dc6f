// Fleet-scale DPR service (DESIGN.md §13).
//
// A FleetManager shards tenant reconfiguration requests across N
// independent SoC instances, each driven by its own runtime
// ReconfigurationManager. Every Soc owns its own sim::Kernel, so the
// fleet advances them in lock-step quanta under one fleet clock:
//
//   per quantum:
//     1. arrivals    — the driver submits FleetRequests (open loop);
//     2. admission   — per-class token buckets + bounded queues; typed
//                      sheds (never silent drops); best-effort requests
//                      degrade to the software-fallback path instead;
//     3. dispatch    — deficit-weighted round-robin over the classes;
//                      reject-early deadline shedding; same-module
//                      coalescing; shard/tile routing gated by circuit
//                      breakers;
//     4. advance     — each non-stalled shard's kernel runs to the fleet
//                      clock (a stall-injected shard freezes, modeling a
//                      control-plane wedge the dispatcher cannot see);
//     5. reap        — completed requests are retired, coalesced
//                      followers fan out onto the still-warm tile,
//                      breakers ingest successes/failures/lateness.
//
// Everything outside the shard kernels runs in host code on one thread
// between quanta, and every random draw comes from one seeded stream —
// the whole fleet replays bit-identically (digest() is the proof the
// tests and bench_soak diff).
//
// The breakers are the overload backpressure path: a stalled or sick
// shard stops completing work, its in-flight requests age past their
// deadlines, the failure window fills, the breaker opens and new traffic
// routes to healthy shards until a jittered-backoff half-open probe
// succeeds. Tile breakers layer on TileHealthRegistry transitions
// (quarantine trips them open; their half-open probe is what re-admits
// the tile via ReconfigurationManager::rehabilitate).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "fleet/breaker.hpp"
#include "fleet/topology.hpp"
#include "fleet/types.hpp"
#include "floorplan/dynamic.hpp"
#include "runtime/api.hpp"
#include "runtime/health.hpp"
#include "runtime/repacker.hpp"
#include "soc/soc.hpp"

namespace presp::fleet {

/// Point-in-time copy of everything the ops plane's /health endpoint and
/// SSE pump publish about a fleet: taken under the manager's observer
/// mutex so a server worker can read a consistent state while the driver
/// thread keeps stepping quanta. All time is the fleet's *virtual* clock,
/// so taking a snapshot (an uncontended host-side lock) cannot perturb
/// the simulated run.
struct FleetOpsSnapshot {
  sim::Time now = 0;
  FleetStats stats;
  struct ShardState {
    BreakerState breaker = BreakerState::kClosed;
    int inflight = 0;
    std::map<int, BreakerState> tile_breakers;
    std::map<int, runtime::TileHealth> tile_health;
  };
  std::vector<ShardState> shards;
  /// Requests waiting in each class admission queue.
  std::size_t queued[kNumQosClasses] = {};
  /// Current tenant-bucket fills (empty while tenant throttling is off).
  std::map<int, double> tenant_tokens;
};

class FleetManager {
 public:
  /// Builds `topology.shards` identical SoC instances from `config` and
  /// `registry` (both must outlive the manager; the topology is copied
  /// and validated). `injector` is optional chaos: it is attached to
  /// every shard's hardware hooks and consulted for the fleet-level
  /// sites (kShardStall via step(), kBurstOverload by SyntheticLoad).
  /// `manager_options` seeds every shard's ReconfigurationManager (the
  /// per-shard backoff seed is decorrelated by shard index).
  FleetManager(FleetTopology topology, const netlist::SocConfig& config,
               const soc::AcceleratorRegistry& registry,
               std::uint64_t seed = 1,
               fault::FaultInjector* injector = nullptr,
               runtime::ManagerOptions manager_options = {});
  ~FleetManager();
  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// Registers a partial bitstream for `module` on every reconfigurable
  /// tile of every shard.
  void add_module(const std::string& module, std::size_t bytes);

  /// Admits or sheds one request at the current fleet time. Admission is
  /// synchronous: a shed is recorded (typed) before this returns; an
  /// admitted request is queued for dispatch.
  void submit(FleetRequest request);

  /// Load generators report burst-window arrivals here — the fleet
  /// cannot tell an organic spike from an injected one on its own.
  void note_burst_arrivals(std::uint64_t n) {
    std::lock_guard<std::mutex> lock(ops_mutex_);
    stats_.burst_arrivals += n;
  }

  /// Advances the fleet by one scheduling quantum.
  void step();
  void run_quanta(int quanta);
  /// Steps without new arrivals until idle() or `max_quanta` is hit;
  /// leftover queued work is shed kSaturated (typed, conserved). Returns
  /// true if fully idle.
  bool drain(int max_quanta);

  /// No queued, in-flight or pending-fallback work.
  bool idle() const;

  sim::Time now() const { return now_; }
  const FleetTopology& topology() const { return topology_; }
  const FleetStats& stats() const { return stats_; }
  /// Terminal outcome of every request, in retirement order.
  const std::vector<FleetOutcome>& outcomes() const { return outcomes_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  runtime::ReconfigurationManager& manager(int shard);
  /// Per-shard defragmentation state; null while `[fleet] repack` is off.
  const runtime::Repacker* repacker(int shard) const;
  const floorplan::DynamicFloorplan* dynamic_floorplan(int shard) const;
  BreakerState shard_breaker(int shard) const;
  BreakerState tile_breaker(int shard, int tile) const;
  /// Requests currently executing on a shard.
  int inflight(int shard) const;

  /// Stable one-line summary for determinism diffs.
  std::string digest() const;

  /// Consistent observer copy for the ops plane. Safe to call from a
  /// server worker while the driver thread steps the fleet; the manager
  /// itself remains single-driver by contract (the observer mutex
  /// serializes readers against the driver, not drivers against each
  /// other). Lock order: ops mutex, then each shard's health mutex.
  FleetOpsSnapshot ops_snapshot() const;

 private:
  struct ClassQueue {
    std::deque<FleetRequest> queue;
    double tokens = 0.0;
    double deficit = 0.0;
  };
  struct Inflight {
    FleetRequest request;
    int shard = -1;
    int tile = -1;
    std::unique_ptr<runtime::Completion> completion;
    /// Same-module requests riding this reconfiguration.
    std::vector<FleetRequest> followers;
    /// Set once the entry ages past its deadline while executing. While
    /// late it feeds the shard breaker one failure per quantum (sustained
    /// no-progress is what opens the breaker under a shard stall) and
    /// stops accepting coalesced followers.
    bool late = false;
    /// Fan-out of a coalesced leader (module already resident).
    bool coalesced = false;
  };
  struct Shard {
    std::unique_ptr<soc::Soc> soc;
    std::unique_ptr<runtime::BitstreamStore> store;
    std::unique_ptr<runtime::ReconfigurationManager> manager;
    std::unique_ptr<CircuitBreaker> breaker;
    std::map<int, std::unique_ptr<CircuitBreaker>> tile_breakers;
    std::vector<int> tiles;  // reconfigurable tile grid indices
    std::uint64_t buffer = 0;
    sim::Time stalled_until = 0;
    int inflight = 0;
    /// Online-defrag state (only with `[fleet] repack`): a live region
    /// map of the shard's fabric plus its background repacker. The
    /// repacker's loop runs inside the shard kernel, so the lock-step
    /// quanta drive defragmentation deterministically.
    std::unique_ptr<floorplan::DynamicFloorplan> plan;
    std::unique_ptr<runtime::Repacker> repacker;
  };
  struct PendingFallback {
    FleetRequest request;
    sim::Time due = 0;
  };

  struct TenantBucket {
    double tokens = 0.0;
    sim::Time last_refill = 0;
  };

  void admit(FleetRequest request);
  /// Takes one token from `tenant`'s bucket (lazily refilled from the
  /// elapsed virtual time). Always true while tenant throttling is off.
  bool take_tenant_token(int tenant);
  void dispatch_pass();
  /// True if the request was dispatched (or coalesced/shed); false if it
  /// should stay queued.
  bool try_dispatch(FleetRequest& request);
  bool try_coalesce(const FleetRequest& request);
  /// Routes to (shard, tile) through the breakers; tile >= 0 pins the
  /// tile (coalesced fan-out). Returns false if nothing allowed it.
  bool route(const std::string& module, int* out_shard, int* out_tile);
  void start_run(int shard, int tile, FleetRequest request, bool coalesced);
  void advance_shards();
  void reap();
  void retire(const Inflight& entry, runtime::RequestStatus status);
  void shed(const FleetRequest& request, FleetError error);
  /// Best-effort graceful degradation; other classes shed hard.
  void shed_or_fallback(const FleetRequest& request, FleetError error);
  void complete(const FleetRequest& request, OutcomeKind kind, int shard);
  sim::Time deadline_for(const FleetRequest& request) const;
  CircuitBreaker& tile_breaker_ref(Shard& shard, int tile);
  void wire_breaker_trace(CircuitBreaker& breaker, int shard, int tile);

  FleetTopology topology_;
  /// Device model the per-shard dynamic floorplans are built over
  /// (resolved from the SoC config's device name).
  fabric::Device device_;
  fault::FaultInjector* injector_;
  Rng rng_;
  sim::Time now_ = 0;
  FleetStats stats_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ClassQueue classes_[kNumQosClasses];
  std::map<int, TenantBucket> tenants_;
  std::vector<std::unique_ptr<Inflight>> inflight_;
  std::vector<PendingFallback> fallbacks_;
  std::vector<FleetOutcome> outcomes_;
  int next_shard_rr_ = 0;
  /// Serializes ops-plane observers (ops_snapshot) against the driver
  /// thread's mutations. Held across each submit()/step() body, so an
  /// observer only ever sees quantum boundaries.
  mutable std::mutex ops_mutex_;
};

}  // namespace presp::fleet
