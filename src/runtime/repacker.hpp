// Background fabric defragmentation ("repacker").
//
// Under churn the dynamic floorplan fragments: free cells everywhere, no
// rectangle anywhere. The repacker is a low-priority background process
// that periodically measures fragmentation and migrates *idle*
// accelerators toward the packing origin: quiesce (take the tile lock —
// never blocking, a busy tile is skipped) → pick a footprint-compatible
// free region (floorplan::DynamicFloorplan::relocation_target) →
// reprogram the tile's module through the regular pipelined DFXC path
// (ReconfigurationManager::repack_tile: fetch, then program) → commit
// the region move (DynamicFloorplan::relocate). A reprogram that
// escalates leaves the tile to the ordinary quarantine machinery —
// subsequent requests re-route through the TileHealthRegistry — and the
// region move is never committed.
//
// Hard safety invariants, enforced here and tested in repacker_test:
//   1. an in-flight tile is never moved (idle check + tile lock);
//   2. a pinned tile is never moved (pin()/unpin(), e.g. latency-critical
//      tenants);
//   3. every migration is traced (runtime category, "migrate" spans) and
//      fault-injectable: the kRepackAbort site fires after the target
//      is chosen, before the reprogram, and must leave the floorplan
//      unchanged.
#pragma once

#include <cstdint>
#include <set>
#include <string>

#include "fault/fault.hpp"
#include "floorplan/dynamic.hpp"
#include "runtime/manager.hpp"

namespace presp::runtime {

struct RepackerOptions {
  /// Cycles between repack passes. Must be positive: a zero interval
  /// starves the request path (fleet::FleetTopology::validate rejects
  /// it).
  long long interval_cycles = 2'000'000;
  /// Fragmentation ratio above which a pass migrates (<= means skip).
  double frag_threshold = 0.05;
  /// Migrations attempted per pass (bounds the reconfiguration bandwidth
  /// stolen from foreground requests).
  int max_migrations_per_pass = 4;
  /// Consecutive failed/aborted migrations tolerated per pass before the
  /// pass gives up. Keep it at or below the manager's retry budget, or
  /// the repacker out-retries the request path.
  int migration_budget = 2;
  /// Gauge prefix for the published fragmentation metrics.
  std::string metrics_prefix = "floorplan";
};

struct RepackerStats {
  std::uint64_t passes = 0;
  /// Committed migrations (region moved, reprogram OK).
  std::uint64_t migrations = 0;
  /// kRepackAbort injections rolled back (floorplan unchanged).
  std::uint64_t aborts = 0;
  /// Migrations abandoned because the reprogram escalated.
  std::uint64_t failures = 0;
  std::uint64_t skipped_busy = 0;
  std::uint64_t skipped_pinned = 0;
};

class Repacker {
 public:
  /// `plan` maps tile grid index -> region. All references must outlive
  /// the repacker.
  Repacker(soc::Soc& soc, ReconfigurationManager& manager,
           floorplan::DynamicFloorplan& plan, RepackerOptions options = {});

  /// Pins a tile: the repacker will never migrate it until unpinned.
  void pin(int tile) { pinned_.insert(tile); }
  void unpin(int tile) { pinned_.erase(tile); }
  bool pinned(int tile) const { return pinned_.count(tile) > 0; }

  /// Optional chaos hook (kRepackAbort). Not owned.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// The background loop: sleep interval_cycles, measure fragmentation,
  /// migrate when above threshold, repeat until stop(). Start it like any
  /// other software process; keep the returned Process alive.
  sim::Process process();
  void stop() { stopped_ = true; }

  /// One synchronous repack pass (the loop body); `done` completes with
  /// kOk always — per-migration outcomes land in stats().
  sim::Process pass(Completion& done);

  const RepackerStats& stats() const { return stats_; }
  const RepackerOptions& options() const { return options_; }
  const floorplan::DynamicFloorplan& plan() const { return plan_; }

 private:
  soc::Soc& soc_;
  ReconfigurationManager& manager_;
  floorplan::DynamicFloorplan& plan_;
  RepackerOptions options_;
  RepackerStats stats_;
  std::set<int> pinned_;
  fault::FaultInjector* injector_ = nullptr;
  bool stopped_ = false;
  /// Completion channels for the background chain, deliberately
  /// object-owned rather than frame-local: a pass suspended on these at
  /// teardown is destroyed by ~Completion/~SimEvent, upholding the
  /// kernel.hpp single-owner frame rule (a frame-local Completion whose
  /// only waiter is its own frame would leak). One pass runs at a time.
  Completion pass_done_;
  Completion migrate_done_;
};

}  // namespace presp::runtime
