// Deterministic cross-layer fault injection (the chaos harness behind the
// resilience work of ROADMAP's "handle every scenario" goal).
//
// A FaultPlan expands a seed into a reproducible schedule of FaultSpecs;
// the FaultInjector arms them and answers hook queries from the
// instrumented layers (ICAP/DFXC in the aux tile, decoupler/wrapper in
// the reconfigurable tile, the NoC's send path). Every hook is
// count-triggered — "the Nth matching event fires the fault" — so a given
// plan replays bit-identically against the same workload: no wall clock,
// no free-running processes, just the xoshiro-seeded schedule.
//
// Fault sites (matrix in DESIGN.md §8):
//   kIcapStall       — the Nth ICAP bitstream transfer wedges mid-stream
//   kDfxcHang        — the DFX controller never completes after a trigger
//   kDecouplerStuck  — a decoupler release (write 0) is silently dropped
//   kAccelHang       — an accelerator run never raises its done interrupt
//   kSeuFlip         — an SEU upsets a configured partition's frames
//   kNocCorrupt      — the Nth packet on a NoC plane is poisoned
//
// Fleet-level sites (hooked by fleet::FleetManager, not the SoC model;
// `tile` addresses the shard index instead of a tile):
//   kShardStall      — a whole SoC shard stops making progress for a
//                      while (control-plane wedge / host stall)
//   kBurstOverload   — the open-loop client population bursts far above
//                      its nominal arrival rate
//
// Runtime-level sites (hooked by runtime::Repacker):
//   kRepackAbort     — the Nth repack migration aborts mid-flight, after
//                      its target region is chosen but before the
//                      reprogram and the region move (the repacker must
//                      leave the floorplan unchanged)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace presp::fault {

enum class FaultSite : std::uint8_t {
  kIcapStall = 0,
  kDfxcHang,
  kDecouplerStuck,
  kAccelHang,
  kSeuFlip,
  kNocCorrupt,
  kShardStall,
  kBurstOverload,
  kRepackAbort,
};
inline constexpr int kNumFaultSites = 9;
/// Sites hooked by the SoC model itself (the first six). WAMI-scale chaos
/// soaks assert coverage over these; the fleet-level sites above only
/// fire when a FleetManager is driving the hooks.
inline constexpr int kNumSocFaultSites = 6;

const char* to_string(FaultSite site);

/// One armed fault. `trigger_count` is 1-based: the fault fires on the
/// Nth matching event observed *after arming* (per site+target stream).
struct FaultSpec {
  FaultSite site = FaultSite::kIcapStall;
  /// Target reconfigurable tile (grid index); -1 matches any tile.
  int tile = -1;
  /// NoC plane index for kNocCorrupt; ignored elsewhere.
  int plane = -1;
  std::uint64_t trigger_count = 1;

  bool operator==(const FaultSpec&) const = default;
};

struct FaultInjectorStats {
  /// Faults injected per site (indexed by FaultSite).
  std::uint64_t injected[kNumFaultSites] = {};
  /// Hook events observed per site (fault fired or not).
  std::uint64_t observed[kNumFaultSites] = {};

  std::uint64_t total_injected() const {
    std::uint64_t sum = 0;
    for (const auto n : injected) sum += n;
    return sum;
  }
};

/// Arms FaultSpecs and answers the layer hooks. All hooks are O(armed)
/// and consume the fault when it fires (one-shot).
class FaultInjector {
 public:
  void arm(FaultSpec spec);
  void arm(const std::vector<FaultSpec>& specs);

  /// Number of armed faults that have not fired yet.
  std::size_t pending() const { return armed_.size(); }

  // ---- hooks (called by the instrumented components) ----------------

  /// Aux tile, start of the ICAP streaming phase. True = wedge the
  /// transfer (the caller models the stall; recovery is a DFXC reset).
  bool on_icap_transfer(int target_tile);
  /// Aux tile, end of a successful reconfiguration. True = suppress the
  /// completion (controller hangs with STATUS busy).
  bool on_dfxc_completion(int target_tile);
  /// Reconfigurable tile, decoupler release (write 0). True = the write
  /// is dropped and the decoupler stays engaged.
  bool on_decoupler_release(int tile);
  /// Reconfigurable tile, accelerator start. True = the datapath wedges
  /// before producing output (done interrupt never fires).
  bool on_accelerator_start(int tile);
  /// Reconfigurable tile, accelerator start (second stream): true = an
  /// SEU has upset the partition's configuration frames; the wrapper
  /// rejects commands until the partition is rewritten.
  bool on_seu_check(int tile);
  /// NoC send path. True = poison this packet (receivers detect via
  /// Packet::poisoned and run their own recovery).
  bool on_noc_packet(int plane);
  /// Fleet dispatcher, once per shard per scheduling quantum. True = the
  /// shard stalls (stops making progress) for the fleet's configured
  /// stall window.
  bool on_shard_stall(int shard);
  /// Synthetic load generator, once per arrival batch. True = the client
  /// population bursts above its nominal open-loop rate.
  bool on_burst_overload(int shard);
  /// Repacker, once per attempted migration (after the target region is
  /// chosen, before the reprogram). True = abort this migration; the
  /// region map is unchanged.
  bool on_repack_abort(int tile);

  const FaultInjectorStats& stats() const { return stats_; }

 private:
  struct Armed {
    FaultSpec spec;
    std::uint64_t remaining = 1;  // matching events until it fires
  };
  bool fire(FaultSite site, int tile, int plane);

  std::vector<Armed> armed_;
  FaultInjectorStats stats_;
};

// ---------------------------------------------------------------------------

/// Relative weight of each fault site in a generated plan. Zero disables
/// the site.
struct FaultMix {
  double icap_stall = 1.0;
  double dfxc_hang = 1.0;
  double decoupler_stuck = 1.0;
  double accel_hang = 1.0;
  double seu_flip = 1.0;
  double noc_corrupt = 1.0;
  /// Fleet-level sites default to 0 so SoC-scale plans (and their seeded
  /// schedules) are unchanged; fleet soaks opt in explicitly.
  double shard_stall = 0.0;
  double burst_overload = 0.0;
  /// Repacker site, likewise opt-in: only defrag soaks weight it.
  double repack_abort = 0.0;
};

struct FaultPlanOptions {
  std::uint64_t seed = 1;
  /// Total faults to schedule.
  int faults = 16;
  /// Candidate target tiles (reconfigurable tile grid indices).
  std::vector<int> tiles;
  /// Candidate NoC planes for kNocCorrupt (defaults to DMA-rsp +
  /// interrupt when empty — the planes whose loss is recoverable).
  std::vector<int> planes;
  /// Trigger counts are drawn uniformly from [1, max_trigger_count]:
  /// spreads faults across the event stream instead of front-loading.
  std::uint64_t max_trigger_count = 8;
  FaultMix mix;
};

/// Deterministic plan generation: the same options (seed included)
/// produce the identical schedule on every platform.
class FaultPlan {
 public:
  explicit FaultPlan(const FaultPlanOptions& options);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  std::uint64_t seed() const { return seed_; }

  /// Arms the whole schedule on an injector.
  void arm(FaultInjector& injector) const;

  /// One line per spec, stable formatting — the determinism property
  /// tests and the bench_soak chaos replay diff this.
  std::string describe() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<FaultSpec> specs_;
};

}  // namespace presp::fault
