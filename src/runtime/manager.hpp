// The DPR runtime reconfiguration manager (paper Section V).
//
// Kernel-level services, modeled as coroutines over the simulated CPU:
//   - per-device (tile) locking: while a reconfiguration or an accelerator
//     run is in flight, other software threads targeting the tile block;
//   - a reconfiguration workqueue: requests share the single DFX
//     controller / ICAP pair and are executed "as soon as the PRC is
//     ready", each as a split transaction whose fetch stage (DMA + CRC
//     into the controller's staging buffer) overlaps the previous
//     request's program stage (ICAP streaming);
//   - before queueing, the calling thread waits for the accelerator in the
//     tile to finish (the per-tile lock enforces this);
//   - decoupler control around the reconfiguration, driver swap after it.
//
// The driver registry mirrors ESP's driver (un)registration: each tile has
// at most one loaded driver; swapping costs a modeled latency.
//
// Fault tolerance (the robustness layer): every ICAP transfer and every
// accelerator run is guarded by a simulated-clock watchdog. A watchdog
// fire reads back the hardware status registers to distinguish a lost
// completion interrupt (accepted as success) from a genuine hang
// (recovered by a DFX-controller reset or a forced partition rewrite),
// then retries with exponential backoff under a per-request retry budget.
// When the budget is exhausted the request escalates instead of throwing:
// the partition is blanked with the greybox image, the tile is
// quarantined in the TileHealthRegistry, and the final status is surfaced
// through the request's Completion. Subsequent run() calls re-route to a
// healthy tile that hosts — or can be reconfigured to — the same module;
// if none exists the caller learns via kQuarantined and falls back to
// software. Error paths never throw across a coroutine suspension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "runtime/bitstream_store.hpp"
#include "runtime/health.hpp"
#include "soc/soc.hpp"
#include "util/rng.hpp"

namespace presp::runtime {

/// Final status of a manager request, surfaced through its Completion.
enum class RequestStatus {
  kOk = 0,
  /// Every reconfiguration attempt failed the bitstream CRC check.
  kCrcExhausted,
  /// The watchdog retry budget was exhausted on hangs/stalls.
  kTimeout,
  /// The target tile is quarantined and no healthy tile could take the
  /// request.
  kQuarantined,
};

const char* to_string(RequestStatus status);

/// Deterministic seeded-jitter exponential backoff: attempt n (1-based)
/// yields a duration drawn uniformly from [(1 - jitter) * d, d] with
/// d = base_cycles << min(n - 1, 16). jitter is clamped to [0, 1]; 0
/// returns the fixed schedule without consuming the stream.
sim::Time jittered_backoff(long long base_cycles, int attempt,
                           double jitter, Rng& rng);

/// Completion channel for manager requests: a SimEvent plus the final
/// status and the tile the request actually landed on (re-routing may
/// pick a different tile than requested). Must outlive the request.
class Completion {
 public:
  explicit Completion(sim::Kernel& kernel) : event_(kernel) {}

  auto wait() { return event_.wait(); }
  void reset() {
    event_.reset();
    status_ = RequestStatus::kOk;
    tile_ = -1;
  }

  bool triggered() const { return event_.triggered(); }
  RequestStatus status() const { return status_; }
  bool ok() const { return status_ == RequestStatus::kOk; }
  /// Tile the request finally executed on (-1 if it never reached one).
  int tile() const { return tile_; }

  /// Called by the manager: records the outcome and wakes waiters.
  void complete(RequestStatus status, int tile = -1) {
    status_ = status;
    tile_ = tile;
    event_.trigger();
  }

 private:
  sim::SimEvent event_;
  RequestStatus status_ = RequestStatus::kOk;
  int tile_ = -1;
};

struct ManagerOptions {
  /// Cycles to unregister + register an accelerator driver (Linux module
  /// swap cost; ~0.5 ms at 78 MHz).
  long long driver_swap_cycles = 39'000;
  /// Extra kernel-entry overhead per reconfiguration request.
  long long request_overhead_cycles = 2'000;
  /// Attempts per reconfiguration before giving up on CRC errors.
  int max_attempts = 3;
  /// Watchdog floor for one ICAP transfer; the actual deadline adds
  /// watchdog_reconf_margin times the image's nominal streaming time.
  long long watchdog_reconf_base_cycles = 200'000;
  double watchdog_reconf_margin = 8.0;
  /// Watchdog for one accelerator run (applications should size this a
  /// comfortable multiple of their longest kernel).
  long long watchdog_run_cycles = 100'000'000;
  /// Backoff before retry attempt n is drawn uniformly from
  /// [(1 - backoff_jitter) * d, d] with d = backoff_base_cycles << (n-1).
  long long backoff_base_cycles = 10'000;
  /// Jitter fraction for the retry backoff, in [0, 1]. A fixed
  /// exponential schedule synchronizes retries across tiles that failed
  /// together (thundering herd on the single DFXC under chaos load); the
  /// seeded draw decorrelates them while keeping every replay of the same
  /// seed bit-identical. 0 restores the fixed schedule.
  double backoff_jitter = 0.5;
  /// Seed of the per-manager jitter stream. The stream is consumed in
  /// simulation event order, which is deterministic, so two runs with the
  /// same seed (and workload) produce identical backoff schedules —
  /// the bench_soak replays rely on this.
  std::uint64_t backoff_seed = 0x9e3779b97f4a7c15ULL;
  /// Watchdog recoveries per request before the tile is quarantined.
  int retry_budget = 3;
  /// Settle time after a recovery before stale interrupts are drained.
  long long irq_drain_cycles = 2'000;
  TileHealthOptions health;
};

struct ManagerStats {
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfigurations_avoided = 0;  // module already loaded
  /// Requests that escalated (blank + quarantine) instead of completing.
  std::uint64_t reconfigurations_failed = 0;
  std::uint64_t runs = 0;
  std::uint64_t driver_swaps = 0;
  /// Fetch stages completed (DMA+CRC staged in the DFXC ahead of —
  /// possibly overlapping — another request's program).
  std::uint64_t pipelined_fetches = 0;
  /// CRC failures detected by the DFX controller and retried.
  std::uint64_t crc_retries = 0;
  std::uint64_t readbacks = 0;
  /// Watchdog timeouts (reconfiguration or run) that triggered recovery.
  std::uint64_t watchdog_fires = 0;
  /// Completions whose interrupt was lost but whose status register
  /// showed success (accepted without re-execution).
  std::uint64_t lost_irq_recoveries = 0;
  /// Interrupts that arrived for a superseded attempt and were discarded.
  std::uint64_t stray_irqs = 0;
  /// DFXC triggers nacked (controller busy) and retried.
  std::uint64_t dropped_trigger_retries = 0;
  /// Decoupler releases nacked (stuck-at fault) and retried.
  std::uint64_t stuck_decouple_retries = 0;
  /// Rejected CMD writes recovered by a forced partition rewrite.
  std::uint64_t cmd_retries = 0;
  /// Hung accelerator runs superseded by a forced partition rewrite.
  std::uint64_t hung_run_repairs = 0;
  /// run() requests re-routed from an unusable tile to a healthy one.
  std::uint64_t reroutes = 0;
  /// Tiles pulled from rotation after exhausting their retry budget.
  std::uint64_t quarantines = 0;
  /// Scrub passes (readback verify, rewrite on mismatch).
  std::uint64_t scrubs = 0;
  /// Forced reprograms issued by the defragmentation repacker.
  std::uint64_t repacks = 0;
  /// Scrubs/recoveries that repaired an upset partition by rewriting it.
  std::uint64_t seu_repairs = 0;
  /// Software-fallback executions recorded by the application layer.
  std::uint64_t fallbacks = 0;
  /// Cycles software threads spent blocked on tile locks.
  long long lock_wait_cycles = 0;
  /// Cycles reconfiguration requests waited for the PRC.
  long long prc_wait_cycles = 0;
  /// Cycles spent actually reconfiguring (decouple -> driver loaded).
  long long reconfiguration_cycles = 0;
  /// Cycles between a watchdog fire and the request completing (summed;
  /// divide by watchdog_fires for the mean recovery latency).
  long long recovery_cycles = 0;
  int max_queue_depth = 0;
};

/// The manager's semaphores, as vertices of the lock-nesting table below.
enum class ManagerLock { kTile, kPrc, kFetch, kReg };
inline constexpr int kManagerLockCount = 4;

/// One declared nesting edge: `inner` may be acquired while `outer` is
/// held.
struct LockNesting {
  ManagerLock outer;
  ManagerLock inner;
};

/// The manager's semaphores are coroutine locks multiplexed onto one OS
/// thread, so a thread-level checker (TSan included) would conflate
/// interleaved logical processes and never sees their order; the nesting
/// is declared statically instead, and runtime_test checks it is acyclic
/// with lint::find_cycle. Observed orders: the program path holds the
/// tile lock across the prc and register stages, the fetch stage nests
/// the register update, and one request's fetch overlaps the previous
/// request's prc stage.
inline constexpr LockNesting kManagerLockNesting[] = {
    {ManagerLock::kTile, ManagerLock::kPrc},
    {ManagerLock::kTile, ManagerLock::kReg},
    {ManagerLock::kPrc, ManagerLock::kReg},
    {ManagerLock::kFetch, ManagerLock::kReg},
};

class ReconfigurationManager {
 public:
  ReconfigurationManager(soc::Soc& soc, BitstreamStore& store,
                         ManagerOptions options = {});

  /// Ensures `module` is loaded in a usable tile (re-routing away from
  /// `tile` if it is quarantined), reconfiguring if needed, then programs
  /// and runs the task and waits for the done interrupt under a watchdog.
  /// Completes `done` with the final status and the tile that ran. Call
  /// from a software Process; one call at a time per Completion.
  /// Parameters are taken by value: these are coroutines, and reference
  /// parameters would dangle across suspensions (`done` must outlive the
  /// call — it is the completion channel).
  sim::Process run(int tile, std::string module, soc::AccelTask task,
                   Completion& done);

  /// Reconfiguration only (no task): loads `module` into `tile`.
  sim::Process ensure_module(int tile, std::string module,
                             Completion& done);

  /// Blanks the tile's partition (loads the greybox bitstream registered
  /// with BitstreamStore::add_blank) and unregisters its driver.
  sim::Process clear_partition(int tile, Completion& done);

  /// Readback verification: streams the partition's configuration back
  /// through the ICAP and compares it with the golden image of `module`.
  /// Writes the outcome to *ok and completes `done`.
  sim::Process verify_partition(int tile, std::string module, bool* ok,
                                Completion& done);

  /// Scrub pass: readback-verify the tile's current module and repair an
  /// upset partition by rewriting it with the golden bitstream. Completes
  /// kOk when the partition is clean (or empty) afterwards.
  sim::Process scrub(int tile, Completion& done);

  /// True when nothing (run or reconfiguration) holds the tile's lock —
  /// the repacker's idle precondition, so a repack never blocks behind
  /// in-flight work (it skips the tile instead).
  bool tile_idle(int tile) { return tile_lock(tile).available() > 0; }

  /// Repack commit path: forced reprogram of `module` on `tile` through
  /// the regular DFXC flow, under the tile lock. Used by the
  /// defragmentation repacker between choosing a relocation target and
  /// committing the region move; on escalation the usual
  /// quarantine/re-route machinery applies and the move is never
  /// committed.
  sim::Process repack_tile(int tile, std::string module, Completion& done);

  /// Legacy completion-event entry points; identical behavior, but the
  /// final status is dropped (they exist so single-threaded callers that
  /// predate the fault layer keep working unchanged).
  sim::Process run(int tile, std::string module, soc::AccelTask task,
                   sim::SimEvent& done);
  sim::Process ensure_module(int tile, std::string module,
                             sim::SimEvent& done);
  sim::Process clear_partition(int tile, sim::SimEvent& done);
  sim::Process verify_partition(int tile, std::string module, bool* ok,
                                sim::SimEvent& done);

  /// Re-admits a quarantined tile (administrative: the next request
  /// reconfigures it from scratch and it must earn healthy status back).
  void rehabilitate(int tile) { health_.rehabilitate(tile); }

  /// Records a software-fallback execution (kept here so the fault
  /// tolerance story is visible in one stats block).
  void note_fallback() { ++stats_.fallbacks; }

  const ManagerStats& stats() const { return stats_; }
  const TileHealthRegistry& health() const { return health_; }
  TileHealthRegistry& health() { return health_; }
  /// Currently loaded driver for a tile ("" if none).
  const std::string& driver(int tile) const;

 private:
  /// Core reconfiguration sequence; caller must hold the tile lock. A
  /// split transaction: the fetch stage (DMA + CRC into the DFXC staging
  /// buffer, serialized on fetch_lock_) overlaps the previous request's
  /// program stage (ICAP streaming under prc_lock_); staging_sem_ bounds
  /// the requests between them. Never throws after its first suspension:
  /// failures surface through `done`, and on escalation the partition is
  /// blanked (the DFXC's combined transfer) and the tile quarantined
  /// before completion.
  sim::Process reconfigure_locked(int tile, std::string module,
                                  Completion& done);
  /// Demultiplexes the shared aux-tile IRQ stream into per-target
  /// mailboxes so concurrently waiting fetch/program stages and readbacks
  /// never steal each other's completions. Started lazily by the first
  /// reconfiguration or readback.
  sim::Process aux_irq_pump();
  void start_irq_pump();
  sim::Mailbox<std::uint64_t>& aux_box(int tile);
  /// Picks a usable tile for (tile, module): the tile itself when
  /// usable, else a healthy tile already hosting — or reconfigurable
  /// to — the module. Returns -1 if none.
  int route_tile(int tile, const std::string& module);
  sim::Semaphore& tile_lock(int tile);
  /// Jittered backoff before retry `attempt` (see ManagerOptions).
  sim::Time backoff(int attempt);
  /// Watchdog deadline for one DFXC transfer of `bytes`: a generous
  /// multiple of the nominal ICAP streaming time, so a firing means the
  /// controller is wedged, not merely slow.
  sim::Time reconf_watchdog(std::size_t bytes) const;

  // Synchronous bookkeeping shared by the recovery and escalation paths.
  /// Counts a CRC failure; the request gives up after max_attempts.
  void note_crc_retry(int& crc_attempts, RequestStatus& status,
                      std::uint32_t track);
  /// Adds the time since the first watchdog fire or nack (0 = none) to
  /// recovery_cycles.
  void note_recovery(sim::Time first_fire);
  /// Pulls `tile` from rotation, once, and records the quarantine.
  void quarantine_tile(int tile, std::uint32_t track);
  /// A reconfiguration escalated: counts it, quarantines the tile and
  /// unloads its driver.
  void fail_reconfiguration(int tile, std::uint32_t track);
  /// Closes a reconfiguration request: records its recovery latency,
  /// leaves the queue and ends its span.
  void finish_request(sim::Time first_fire, const std::string& span_label,
                      std::uint32_t track);

  soc::Soc& soc_;
  BitstreamStore& store_;
  ManagerOptions options_;
  ManagerStats stats_;
  TileHealthRegistry health_;
  /// The single PRC/ICAP: guards the program (ICAP streaming) stage, the
  /// escalation's blanking transfer and readbacks.
  sim::Semaphore prc_lock_;
  /// Serializes the DFXC fetch engine (one DMA+CRC in flight).
  sim::Semaphore fetch_lock_;
  /// Bounded fetch->program buffer: one credit per DFXC staging slot
  /// (SocOptions::dfxc_staging_slots), so the controller does not nack
  /// a fetch for a full buffer.
  sim::Semaphore staging_sem_;
  /// Guards the shared DFXC address/length/target register file so a
  /// fetch-stage write sequence never interleaves with a program-stage
  /// (or readback) one.
  sim::Semaphore reg_lock_;
  std::map<int, std::unique_ptr<sim::Semaphore>> tile_locks_;
  std::map<int, std::unique_ptr<sim::Mailbox<std::uint64_t>>> aux_boxes_;
  bool irq_pump_started_ = false;
  std::map<int, std::string> drivers_;
  int queue_depth_ = 0;
  std::string no_driver_;
  /// Seeded jitter stream for retry backoff (consumed in deterministic
  /// sim event order).
  Rng backoff_rng_;
};

}  // namespace presp::runtime
