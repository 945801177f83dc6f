#include "runtime/manager.hpp"

#include <algorithm>

#include "soc/tiles.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace presp::runtime {

namespace {

constexpr std::uint64_t kAckRefused = 1;
constexpr trace::Category kTrc = trace::Category::kRuntime;

/// Sim-track id for a tile's request-lifecycle spans (named lazily).
std::uint32_t tile_track(int tile) {
  const auto track = static_cast<std::uint32_t>(std::max(tile, 0));
  if (trace::enabled(kTrc)) {
    trace::set_sim_track_name(track, "tile " + std::to_string(tile));
  }
  return track;
}

void trace_queue_depth(sim::Kernel& kernel, long long depth) {
  if (trace::enabled(kTrc)) {
    trace::sim_counter(kTrc, "runtime.queue_depth", kernel.now(),
                       trace::kTrackRuntime, static_cast<double>(depth));
  }
}

/// One stage of the DFX controller's split transaction: the registers
/// that start it, abort it and report its status, the interrupt that
/// ends it, and its trace span names.
struct DfxcStage {
  bool fetch;
  std::uint32_t start_reg;
  std::uint32_t reset_reg;
  std::uint32_t status_reg;
  std::uint64_t done_irq;
  const char* span;
  const char* nack_span;
};

/// Fetch (DMA + CRC into the staging buffer), then program (ICAP
/// streaming of the staged image). Each stage resets only its own engine.
constexpr DfxcStage kDfxcStages[] = {
    {true, soc::kRegDfxcFetch, soc::kRegDfxcFetchReset,
     soc::kRegDfxcFetchStatus, soc::kIrqFetchDone, "fetch", "fetch-nack"},
    {false, soc::kRegDfxcTrigger, soc::kRegDfxcReset, soc::kRegDfxcStatus,
     soc::kIrqReconfDone, "icap", "trigger-nack"},
};

}  // namespace

sim::Time jittered_backoff(long long base_cycles, int attempt,
                           double jitter, Rng& rng) {
  const int shift = std::min(std::max(attempt - 1, 0), 16);
  const auto full = static_cast<sim::Time>(base_cycles) << shift;
  if (jitter <= 0.0 || full == 0) return full;
  const double fraction = std::min(jitter, 1.0);
  const auto span =
      static_cast<sim::Time>(fraction * static_cast<double>(full));
  if (span == 0) return full;
  return full - span + static_cast<sim::Time>(rng.next_below(span + 1));
}

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kCrcExhausted: return "crc_exhausted";
    case RequestStatus::kTimeout: return "timeout";
    case RequestStatus::kQuarantined: return "quarantined";
  }
  return "?";
}

ReconfigurationManager::ReconfigurationManager(soc::Soc& soc,
                                               BitstreamStore& store,
                                               ManagerOptions options)
    : soc_(soc), store_(store), options_(options),
      health_(options.health), prc_lock_(soc.kernel(), 1),
      fetch_lock_(soc.kernel(), 1),
      staging_sem_(soc.kernel(),
                   static_cast<std::uint32_t>(
                       std::max(soc.options().dfxc_staging_slots, 1))),
      reg_lock_(soc.kernel(), 1), backoff_rng_(options.backoff_seed) {}

sim::Time ReconfigurationManager::backoff(int attempt) {
  return jittered_backoff(options_.backoff_base_cycles, attempt,
                          options_.backoff_jitter, backoff_rng_);
}

sim::Time ReconfigurationManager::reconf_watchdog(std::size_t bytes) const {
  return static_cast<sim::Time>(
      options_.watchdog_reconf_base_cycles +
      static_cast<long long>(options_.watchdog_reconf_margin *
                             static_cast<double>(bytes) /
                             soc_.options().icap_bytes_per_cycle));
}

void ReconfigurationManager::note_crc_retry(int& crc_attempts,
                                            RequestStatus& status,
                                            std::uint32_t track) {
  ++stats_.crc_retries;
  if (trace::enabled(kTrc))
    trace::sim_instant(kTrc, "crc-retry", soc_.kernel().now(), track);
  if (++crc_attempts >= options_.max_attempts)
    status = RequestStatus::kCrcExhausted;
}

void ReconfigurationManager::note_recovery(sim::Time first_fire) {
  if (first_fire != 0)
    stats_.recovery_cycles +=
        static_cast<long long>(soc_.kernel().now() - first_fire);
}

void ReconfigurationManager::quarantine_tile(int tile, std::uint32_t track) {
  if (health_.health(tile) == TileHealth::kQuarantined) return;
  health_.quarantine(tile);
  ++stats_.quarantines;
  if (trace::enabled(kTrc))
    trace::sim_instant(kTrc, "quarantine", soc_.kernel().now(), track);
}

void ReconfigurationManager::fail_reconfiguration(int tile,
                                                  std::uint32_t track) {
  ++stats_.reconfigurations_failed;
  quarantine_tile(tile, track);
  drivers_.erase(tile);
}

void ReconfigurationManager::finish_request(sim::Time first_fire,
                                            const std::string& span_label,
                                            std::uint32_t track) {
  note_recovery(first_fire);
  --queue_depth_;
  trace_queue_depth(soc_.kernel(), queue_depth_);
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, span_label, soc_.kernel().now(), track);
}

sim::Mailbox<std::uint64_t>& ReconfigurationManager::aux_box(int tile) {
  auto it = aux_boxes_.find(tile);
  if (it == aux_boxes_.end()) {
    it = aux_boxes_
             .emplace(tile, std::make_unique<sim::Mailbox<std::uint64_t>>(
                                soc_.kernel()))
             .first;
  }
  return *it->second;
}

void ReconfigurationManager::start_irq_pump() {
  if (irq_pump_started_) return;
  irq_pump_started_ = true;
  aux_irq_pump();
}

sim::Process ReconfigurationManager::aux_irq_pump() {
  // Forwards every aux-tile interrupt to the per-target mailbox. With the
  // fetch and program stages of different requests in flight at once, two
  // coroutines would otherwise block on the shared IRQ mailbox and the
  // front waiter would swallow the other's completion.
  auto& aux_irq = soc_.cpu().irq_from(soc_.aux_tile_index());
  while (true) {
    const std::uint64_t payload = co_await aux_irq.receive();
    aux_box(static_cast<int>(payload >> 8)).send(payload);
  }
}

sim::Semaphore& ReconfigurationManager::tile_lock(int tile) {
  auto it = tile_locks_.find(tile);
  if (it == tile_locks_.end()) {
    it = tile_locks_
             .emplace(tile,
                      std::make_unique<sim::Semaphore>(soc_.kernel(), 1))
             .first;
  }
  return *it->second;
}

const std::string& ReconfigurationManager::driver(int tile) const {
  const auto it = drivers_.find(tile);
  return it == drivers_.end() ? no_driver_ : it->second;
}

int ReconfigurationManager::route_tile(int tile, const std::string& module) {
  int fallback = -1;
  for (const auto& rt : soc_.reconf_tiles()) {
    const int idx = rt->index();
    if (idx == tile || !health_.usable(idx)) continue;
    // Prefer a tile already hosting the module (no reconfiguration);
    // otherwise the first healthy tile with a registered bitstream.
    if (rt->module() == module && driver(idx) == module) return idx;
    if (fallback < 0 && store_.has(idx, module)) fallback = idx;
  }
  return fallback;
}

sim::Process ReconfigurationManager::reconfigure_locked(
    int tile, std::string module, Completion& done) {
  auto& kernel = soc_.kernel();
  const sim::Time requested = kernel.now();
  const std::uint32_t track = tile_track(tile);
  const std::string span_label =
      "reconfigure:" + (module.empty() ? std::string("(blank)") : module);
  if (trace::enabled(kTrc)) {
    trace::sim_begin(kTrc, span_label, requested, track);
    trace::sim_begin(kTrc, "queued", requested, track);
  }
  // Queue on the DFX controller ("reconfiguration requests are queued up
  // and executed as soon as the PRC is ready").
  ++queue_depth_;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth_);
  trace_queue_depth(kernel, queue_depth_);

  start_irq_pump();
  auto& cpu = soc_.cpu();
  const int aux = soc_.aux_tile_index();
  auto& irq = aux_box(tile);

  co_await sim::Delay(kernel,
                      static_cast<sim::Time>(
                          options_.request_overhead_cycles));

  const BitstreamImage& image = store_.lookup(tile, module);
  const sim::Time watchdog = reconf_watchdog(image.bytes);

  // Admission into the bounded fetch->program buffer: at most one request
  // per DFXC staging slot between fetch trigger and program completion.
  co_await staging_sem_.acquire();

  // 1. Decouple the tile's wrapper from its socket.
  if (trace::enabled(kTrc))
    trace::sim_begin(kTrc, "decouple", kernel.now(), track);
  co_await cpu.write_reg(tile, soc::kRegDecouple, 1);
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, "decouple", kernel.now(), track);

  RequestStatus status = RequestStatus::kOk;
  sim::Time first_fire = 0;
  sim::Time start = 0;
  int crc_attempts = 0;
  int recoveries = 0;
  bool configured = false;
  bool prc_held = false;

  // 2./3. One pass per DFXC stage. The fetch stage is serialized on the
  // fetch engine but free to overlap another request's program stage —
  // that is the whole point of the split transaction. The program stage
  // runs under the PRC lock; the controller sees the matching staged
  // entry and skips the DMA + CRC it already did. Each stage recovers
  // from CRC errors, lost interrupts, dropped triggers and hangs until
  // the budgets run out.
  for (const DfxcStage& stage : kDfxcStages) {
    if (status != RequestStatus::kOk) break;
    const sim::Time q0 = kernel.now();
    co_await (stage.fetch ? fetch_lock_ : prc_lock_).acquire();
    stats_.prc_wait_cycles += static_cast<long long>(kernel.now() - q0);
    if (stage.fetch) {
      start = kernel.now();
      if (trace::enabled(kTrc)) trace::sim_end(kTrc, "queued", start, track);
    }

    bool finished = false;
    while (!finished && status == RequestStatus::kOk) {
      if (trace::enabled(kTrc)) {
        trace::sim_begin(kTrc, stage.span, kernel.now(), track,
                         static_cast<double>(image.bytes));
      }
      // The address/length/target registers are shared by both stages of
      // every request in flight; the register lock keeps two write
      // sequences from interleaving.
      co_await reg_lock_.acquire();
      co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, image.address);
      co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, image.bytes);
      co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                             static_cast<std::uint64_t>(tile));
      const std::uint64_t nack =
          co_await cpu.write_reg(aux, stage.start_reg, 1);
      reg_lock_.release();
      if (nack == kAckRefused) {
        // The engine was busy (a leftover from an earlier wedge) or the
        // staging buffer was full and dropped the trigger: reset the
        // engine, back off, retry.
        ++stats_.dropped_trigger_retries;
        if (trace::enabled(kTrc)) {
          trace::sim_instant(kTrc, stage.nack_span, kernel.now(), track);
          trace::sim_end(kTrc, stage.span, kernel.now(), track);
        }
        if (first_fire == 0) first_fire = kernel.now();
        co_await cpu.write_reg(aux, stage.reset_reg, 1);
        if (++recoveries > options_.retry_budget) {
          status = RequestStatus::kTimeout;
        } else {
          co_await sim::Delay(kernel, backoff(recoveries));
        }
        continue;
      }

      bool waiting = true;
      while (waiting) {
        const auto payload = co_await irq.receive_for(watchdog);
        if (payload.has_value()) {
          const std::uint64_t code = *payload & 0xFF;
          if (code == stage.done_irq) {
            finished = true;
            waiting = false;
          } else if (code == soc::kIrqReconfError) {
            waiting = false;
            note_crc_retry(crc_attempts, status, track);
          } else {
            ++stats_.stray_irqs;  // a superseded attempt's late interrupt
          }
          continue;
        }

        // Watchdog fired: the stage's own status register tells a lost
        // interrupt from a wedged engine — never reset the other engine,
        // whose transfer may be mid-flight for another request.
        waiting = false;
        ++stats_.watchdog_fires;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "watchdog", kernel.now(), track);
        if (first_fire == 0) first_fire = kernel.now();
        const std::uint64_t engine_status =
            co_await cpu.read_reg(aux, stage.status_reg);
        if (engine_status == 0) {
          // Transfer completed; only its done interrupt was lost.
          ++stats_.lost_irq_recoveries;
          if (trace::enabled(kTrc))
            trace::sim_instant(kTrc, "lost-irq", kernel.now(), track);
          finished = true;
        } else if (engine_status == 2) {
          // CRC error whose interrupt was lost.
          note_crc_retry(crc_attempts, status, track);
        } else {
          // Genuinely wedged (ICAP stall or controller hang): abort the
          // transfer and retry after a backoff.
          co_await cpu.write_reg(aux, stage.reset_reg, 1);
          if (++recoveries > options_.retry_budget) {
            status = RequestStatus::kTimeout;
          } else {
            co_await sim::Delay(kernel, backoff(recoveries));
          }
        }
        // Settle, then drain stale interrupts so a late completion of the
        // aborted attempt is never attributed to the next one.
        co_await sim::Delay(
            kernel, static_cast<sim::Time>(options_.irq_drain_cycles));
        while (irq.try_receive().has_value()) ++stats_.stray_irqs;
      }
      if (trace::enabled(kTrc))
        trace::sim_end(kTrc, stage.span, kernel.now(), track);
    }

    if (stage.fetch) {
      fetch_lock_.release();
      if (finished) ++stats_.pipelined_fetches;
    } else {
      prc_held = true;
      configured = finished;
    }
  }

  if (!configured) {
    // Escalate instead of throwing: quarantine the tile, blank its
    // partition with the greybox image (the DFXC's combined transfer,
    // under the PRC lock) so the fabric is left safe, and surface the
    // status through the completion channel.
    fail_reconfiguration(tile, track);
    if (!prc_held) co_await prc_lock_.acquire();
    if (!module.empty() && store_.has(tile, "")) {
      const BitstreamImage& blank = store_.get(tile, "");
      co_await reg_lock_.acquire();
      co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, blank.address);
      co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, blank.bytes);
      co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                             static_cast<std::uint64_t>(tile));
      const std::uint64_t nack =
          co_await cpu.write_reg(aux, soc::kRegDfxcTrigger, 1);
      reg_lock_.release();
      bool blanked = nack != kAckRefused;
      while (blanked) {
        const auto payload = co_await irq.receive_for(watchdog);
        if (!payload.has_value()) {
          // Best effort only: reset the controller, leave the tile
          // decoupled.
          ++stats_.watchdog_fires;
          co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
          break;
        }
        const std::uint64_t code = *payload & 0xFF;
        if (code == soc::kIrqReconfDone) {
          // Blank in place: safe to re-enable the decoupler (a nack from a
          // stuck decoupler is tolerable here — the partition is empty).
          co_await cpu.write_reg(tile, soc::kRegDecouple, 0);
          break;
        }
        if (code == soc::kIrqReconfError) break;
        ++stats_.stray_irqs;
      }
    }
    finish_request(first_fire, span_label, track);
    prc_lock_.release();
    staging_sem_.release();
    done.complete(status, tile);
    co_return;
  }

  // Programmed: the ICAP and the staging slot are free for the next
  // request before we even recouple.
  prc_lock_.release();
  staging_sem_.release();

  // 4. Re-enable the decoupler (resets the wrapper + NoC queues). An
  // injected stuck-at fault nacks the release; retry with backoff.
  if (trace::enabled(kTrc))
    trace::sim_begin(kTrc, "recouple", kernel.now(), track);
  int release_tries = 0;
  while (status == RequestStatus::kOk) {
    const std::uint64_t nack =
        co_await cpu.write_reg(tile, soc::kRegDecouple, 0);
    if (nack != kAckRefused) break;
    ++stats_.stuck_decouple_retries;
    if (trace::enabled(kTrc))
      trace::sim_instant(kTrc, "stuck-decouple", kernel.now(), track);
    if (first_fire == 0) first_fire = kernel.now();
    if (++release_tries > options_.retry_budget) {
      status = RequestStatus::kTimeout;
      break;
    }
    co_await sim::Delay(kernel, backoff(release_tries));
  }
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, "recouple", kernel.now(), track);
  if (status != RequestStatus::kOk) {
    // The module is configured but unreachable behind a stuck decoupler:
    // pull the tile from rotation.
    fail_reconfiguration(tile, track);
    finish_request(first_fire, span_label, track);
    done.complete(status, tile);
    co_return;
  }

  // 5. Swap the accelerator driver (nothing to load for a blanking image).
  if (trace::enabled(kTrc))
    trace::sim_begin(kTrc, "driver-swap", kernel.now(), track);
  co_await sim::Delay(kernel,
                      static_cast<sim::Time>(options_.driver_swap_cycles));
  if (module.empty()) {
    drivers_.erase(tile);
  } else {
    drivers_[tile] = module;
    ++stats_.driver_swaps;
  }
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, "driver-swap", kernel.now(), track);

  ++stats_.reconfigurations;
  stats_.reconfiguration_cycles +=
      static_cast<long long>(kernel.now() - start);
  if (recoveries > 0 || crc_attempts > 0 || release_tries > 0) {
    health_.record_failure(tile);
  } else {
    health_.record_success(tile);
  }
  finish_request(first_fire, span_label, track);
  done.complete(RequestStatus::kOk, tile);
}

sim::Process ReconfigurationManager::ensure_module(int tile,
                                                   std::string module,
                                                   Completion& done) {
  auto& kernel = soc_.kernel();
  if (!health_.usable(tile)) {
    done.complete(RequestStatus::kQuarantined, tile);
    co_return;
  }
  const sim::Time t0 = kernel.now();
  co_await tile_lock(tile).acquire();
  stats_.lock_wait_cycles += static_cast<long long>(kernel.now() - t0);

  RequestStatus status = RequestStatus::kOk;
  if (soc_.reconf_tile(tile).module() == module &&
      driver(tile) == module) {
    ++stats_.reconfigurations_avoided;
  } else {
    Completion reconfigured(kernel);
    reconfigure_locked(tile, module, reconfigured);
    co_await reconfigured.wait();
    status = reconfigured.status();
  }
  tile_lock(tile).release();
  done.complete(status, tile);
}

sim::Process ReconfigurationManager::clear_partition(int tile,
                                                     Completion& done) {
  auto& kernel = soc_.kernel();
  co_await tile_lock(tile).acquire();
  RequestStatus status = RequestStatus::kOk;
  if (!soc_.reconf_tile(tile).module().empty() || !driver(tile).empty()) {
    Completion reconfigured(kernel);
    reconfigure_locked(tile, "", reconfigured);
    co_await reconfigured.wait();
    status = reconfigured.status();
  }
  tile_lock(tile).release();
  done.complete(status, tile);
}

sim::Process ReconfigurationManager::verify_partition(int tile,
                                                      std::string module,
                                                      bool* ok,
                                                      Completion& done) {
  auto& kernel = soc_.kernel();
  co_await tile_lock(tile).acquire();
  co_await prc_lock_.acquire();
  const std::uint32_t track = tile_track(tile);
  if (trace::enabled(kTrc))
    trace::sim_begin(kTrc, "readback:" + module, kernel.now(), track);
  auto& cpu = soc_.cpu();
  const BitstreamImage& image = store_.lookup(tile, module);
  const int aux = soc_.aux_tile_index();
  // The IRQ pump owns the raw aux stream; every waiter goes through its
  // per-tile mailbox.
  start_irq_pump();
  auto& aux_irq = aux_box(tile);
  const sim::Time watchdog = reconf_watchdog(image.bytes);

  RequestStatus status = RequestStatus::kOk;
  int recoveries = 0;
  bool verified = false;
  *ok = false;
  while (!verified && status == RequestStatus::kOk) {
    co_await reg_lock_.acquire();
    co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, image.address);
    co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                           static_cast<std::uint64_t>(tile));
    const std::uint64_t nack =
        co_await cpu.write_reg(aux, soc::kRegDfxcReadback, 1);
    reg_lock_.release();
    if (nack == kAckRefused) {
      ++stats_.dropped_trigger_retries;
      co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
      if (++recoveries > options_.retry_budget) {
        status = RequestStatus::kTimeout;
      } else {
        co_await sim::Delay(kernel, backoff(recoveries));
      }
      continue;
    }
    bool waiting = true;
    while (waiting) {
      const auto payload = co_await aux_irq.receive_for(watchdog);
      if (payload.has_value()) {
        if ((*payload & 0xFF) == soc::kIrqReadbackDone) {
          verified = true;
          waiting = false;
        } else {
          ++stats_.stray_irqs;
        }
        continue;
      }
      waiting = false;
      ++stats_.watchdog_fires;
      const std::uint64_t dfxc_status =
          co_await cpu.read_reg(aux, soc::kRegDfxcStatus);
      if (dfxc_status == 0) {
        // Readback finished; its interrupt was lost.
        ++stats_.lost_irq_recoveries;
        verified = true;
      } else {
        co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
        if (++recoveries > options_.retry_budget) {
          status = RequestStatus::kTimeout;
        } else {
          co_await sim::Delay(kernel, backoff(recoveries));
        }
      }
      co_await sim::Delay(kernel,
                          static_cast<sim::Time>(options_.irq_drain_cycles));
      while (aux_irq.try_receive().has_value()) ++stats_.stray_irqs;
    }
  }
  if (verified) {
    const std::uint64_t verdict =
        co_await cpu.read_reg(aux, soc::kRegDfxcVerify);
    *ok = verdict == 1;
    ++stats_.readbacks;
  }
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, "readback:" + module, kernel.now(), track);
  prc_lock_.release();
  tile_lock(tile).release();
  done.complete(status, tile);
}

sim::Process ReconfigurationManager::scrub(int tile, Completion& done) {
  auto& kernel = soc_.kernel();
  ++stats_.scrubs;
  if (trace::enabled(kTrc))
    trace::sim_instant(kTrc, "scrub", kernel.now(), tile_track(tile));
  const std::string module = soc_.reconf_tile(tile).module();
  if (module.empty() || !store_.has(tile, module)) {
    done.complete(RequestStatus::kOk, tile);
    co_return;
  }
  bool clean = false;
  Completion sub(kernel);
  verify_partition(tile, module, &clean, sub);
  co_await sub.wait();
  if (!sub.ok()) {
    done.complete(sub.status(), tile);
    co_return;
  }
  if (clean) {
    done.complete(RequestStatus::kOk, tile);
    co_return;
  }
  // Upset configuration frames: repair by rewriting the partition with
  // the golden bitstream.
  ++stats_.seu_repairs;
  co_await tile_lock(tile).acquire();
  sub.reset();
  reconfigure_locked(tile, module, sub);
  co_await sub.wait();
  tile_lock(tile).release();
  done.complete(sub.status(), tile);
}

sim::Process ReconfigurationManager::repack_tile(int tile, std::string module,
                                                 Completion& done) {
  auto& kernel = soc_.kernel();
  ++stats_.repacks;
  if (trace::enabled(kTrc))
    trace::sim_instant(kTrc, "repack", kernel.now(), tile_track(tile));
  co_await tile_lock(tile).acquire();
  // Suspend only on `done`, which the repacker owns outside any coroutine
  // frame: if the shard is torn down mid-reconfigure, ~Completion reaches
  // and frees this frame (the kernel.hpp single-owner rule). A frame-local
  // Completion here would form an unreachable self-cycle and leak.
  reconfigure_locked(tile, module, done);
  co_await done.wait();
  tile_lock(tile).release();
}

sim::Process ReconfigurationManager::run(int tile, std::string module,
                                         soc::AccelTask task,
                                         Completion& done) {
  auto& kernel = soc_.kernel();
  auto& cpu = soc_.cpu();
  sim::Time first_fire = 0;
  RequestStatus status = RequestStatus::kOk;
  int routed = tile;
  // One pass per reconfigurable tile at most: every failed pass
  // quarantines its tile, so the loop cannot revisit one.
  const int max_routes =
      std::max<int>(1, static_cast<int>(soc_.reconf_tiles().size()));
  for (int route_attempt = 0; route_attempt < max_routes; ++route_attempt) {
    if (!health_.usable(routed)) {
      const int alt = route_tile(routed, module);
      if (alt < 0) {
        status = RequestStatus::kQuarantined;
        break;
      }
      ++stats_.reroutes;
      routed = alt;
      if (trace::enabled(kTrc)) {
        trace::sim_instant(kTrc, "reroute", kernel.now(),
                           tile_track(routed));
      }
    }
    status = RequestStatus::kOk;

    // "During reconfiguration, it locks access to the device so that
    // other threads trying to access it must wait."
    const sim::Time t0 = kernel.now();
    co_await tile_lock(routed).acquire();
    stats_.lock_wait_cycles += static_cast<long long>(kernel.now() - t0);
    const std::uint32_t run_track = tile_track(routed);
    if (trace::enabled(kTrc))
      trace::sim_begin(kTrc, "run:" + module, kernel.now(), run_track);

    if (soc_.reconf_tile(routed).module() != module ||
        driver(routed) != module) {
      Completion reconfigured(kernel);
      reconfigure_locked(routed, module, reconfigured);
      co_await reconfigured.wait();
      status = reconfigured.status();
    } else {
      ++stats_.reconfigurations_avoided;
    }

    int recoveries = 0;
    auto& irq = cpu.irq_from(routed);
    bool finished = false;
    while (status == RequestStatus::kOk && !finished) {
      // Program the task and start the accelerator.
      co_await cpu.write_reg(routed, soc::kRegSrc, task.src);
      co_await cpu.write_reg(routed, soc::kRegDst, task.dst);
      co_await cpu.write_reg(routed, soc::kRegItems,
                             static_cast<std::uint64_t>(task.items));
      co_await cpu.write_reg(routed, soc::kRegAuxArg, task.aux);
      const std::uint64_t nack = co_await cpu.write_reg(routed,
                                                        soc::kRegCmd, 1);
      if (nack == kAckRefused) {
        // The wrapper refused to start: upset configuration frames (SEU),
        // leftover decoupling, or a wedged status. A forced partition
        // rewrite clears all three.
        ++stats_.cmd_retries;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "cmd-retry", kernel.now(), run_track);
        if (first_fire == 0) first_fire = kernel.now();
        if (++recoveries > options_.retry_budget) {
          status = RequestStatus::kTimeout;
          break;
        }
        Completion repaired(kernel);
        reconfigure_locked(routed, module, repaired);
        co_await repaired.wait();
        status = repaired.status();
        continue;
      }

      // Wait for the done interrupt from the tile under the watchdog.
      bool waiting = true;
      while (waiting) {
        const auto payload = co_await irq.receive_for(
            static_cast<sim::Time>(options_.watchdog_run_cycles));
        if (payload.has_value()) {
          if (*payload == soc::kIrqAccelDone) {
            finished = true;
            waiting = false;
          } else {
            ++stats_.stray_irqs;
          }
          continue;
        }
        waiting = false;
        ++stats_.watchdog_fires;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "watchdog", kernel.now(), run_track);
        if (first_fire == 0) first_fire = kernel.now();
        const std::uint64_t status_reg =
            co_await cpu.read_reg(routed, soc::kRegStatus);
        if (status_reg == soc::kStatusDone) {
          // The run finished; only its done interrupt was lost. Accepting
          // the status register avoids re-executing a non-idempotent
          // kernel.
          ++stats_.lost_irq_recoveries;
          finished = true;
        } else if (++recoveries > options_.retry_budget) {
          status = RequestStatus::kTimeout;
        } else if (status_reg == soc::kStatusRunning) {
          // Genuine hang: force a partition rewrite, which supersedes the
          // wedged datapath (it never ran any compute), then restart.
          ++stats_.hung_run_repairs;
          Completion repaired(kernel);
          reconfigure_locked(routed, module, repaired);
          co_await repaired.wait();
          status = repaired.status();
          if (status == RequestStatus::kOk)
            co_await sim::Delay(kernel,
                                backoff(recoveries));
        } else {
          // Idle: the run aborted without side effects; restart.
          co_await sim::Delay(kernel, backoff(recoveries));
        }
        co_await sim::Delay(
            kernel, static_cast<sim::Time>(options_.irq_drain_cycles));
        while (irq.try_receive().has_value()) ++stats_.stray_irqs;
      }
    }

    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, "run:" + module, kernel.now(), run_track);
    if (status == RequestStatus::kOk) {
      ++stats_.runs;
      if (recoveries > 0) {
        health_.record_failure(routed);
      } else {
        health_.record_success(routed);
      }
      tile_lock(routed).release();
      break;
    }

    // The pass failed: pull the tile from rotation and leave its
    // partition blank, then let the next pass re-route.
    quarantine_tile(routed, run_track);
    if (store_.has(routed, "") &&
        !soc_.reconf_tile(routed).module().empty()) {
      Completion blanked(kernel);
      reconfigure_locked(routed, "", blanked);
      co_await blanked.wait();
    } else {
      drivers_.erase(routed);
    }
    tile_lock(routed).release();
  }

  note_recovery(first_fire);
  done.complete(status, routed);
}

// ------------------------------------------------------- legacy wrappers

sim::Process ReconfigurationManager::run(int tile, std::string module,
                                         soc::AccelTask task,
                                         sim::SimEvent& done) {
  Completion completion(soc_.kernel());
  run(tile, std::move(module), task, completion);
  co_await completion.wait();
  if (!completion.ok()) {
    PRESP_WARN("manager") << "run on tile " << tile << " completed with "
                          << to_string(completion.status());
  }
  done.trigger();
}

sim::Process ReconfigurationManager::ensure_module(int tile,
                                                   std::string module,
                                                   sim::SimEvent& done) {
  Completion completion(soc_.kernel());
  ensure_module(tile, std::move(module), completion);
  co_await completion.wait();
  done.trigger();
}

sim::Process ReconfigurationManager::clear_partition(int tile,
                                                     sim::SimEvent& done) {
  Completion completion(soc_.kernel());
  clear_partition(tile, completion);
  co_await completion.wait();
  done.trigger();
}

sim::Process ReconfigurationManager::verify_partition(int tile,
                                                      std::string module,
                                                      bool* ok,
                                                      sim::SimEvent& done) {
  Completion completion(soc_.kernel());
  verify_partition(tile, std::move(module), ok, completion);
  co_await completion.wait();
  done.trigger();
}

}  // namespace presp::runtime
