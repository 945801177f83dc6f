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
                       std::max(options.staging_slots, 1))),
      reg_lock_(soc.kernel(), 1), backoff_rng_(options.backoff_seed) {}

sim::Time ReconfigurationManager::backoff(int attempt) {
  return jittered_backoff(options_.backoff_base_cycles, attempt,
                          options_.backoff_jitter, backoff_rng_);
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

sim::Process ReconfigurationManager::reconfigure_locked(
    int tile, std::string module, Completion& done) {
  return options_.pipelined ? reconfigure_pipelined(tile, std::move(module),
                                                    done)
                            : reconfigure_serial(tile, std::move(module),
                                                 done);
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

sim::Process ReconfigurationManager::reconfigure_serial(
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

  // Queue on the single PRC ("reconfiguration requests are queued up and
  // executed as soon as the PRC is ready").
  ++queue_depth_;
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_depth_);
  trace_queue_depth(kernel, queue_depth_);
  co_await prc_lock_.acquire();
  stats_.prc_wait_cycles +=
      static_cast<long long>(kernel.now() - requested);
  const sim::Time start = kernel.now();
  if (trace::enabled(kTrc)) trace::sim_end(kTrc, "queued", start, track);

  co_await sim::Delay(kernel,
                      static_cast<sim::Time>(
                          options_.request_overhead_cycles));

  auto& cpu = soc_.cpu();
  const int aux = soc_.aux_tile_index();
  auto& aux_irq = cpu.irq_from(aux);

  // Pin the image DRAM-resident for the whole transfer (synchronous for
  // eager stores; a cache miss waits out the source fetch here).
  StoreTicket ticket(kernel);
  store_.acquire(kernel, tile, module, ticket);
  co_await ticket.done.wait();
  const BitstreamImage image = ticket.image;

  // Watchdog deadline: generous multiple of the nominal transfer time, so
  // a firing means the controller is wedged, not merely slow.
  const auto watchdog = static_cast<sim::Time>(
      options_.watchdog_reconf_base_cycles +
      static_cast<long long>(
          options_.watchdog_reconf_margin * static_cast<double>(image.bytes) /
          soc_.options().icap_bytes_per_cycle));

  // 1. Decouple the tile's wrapper from its socket.
  if (trace::enabled(kTrc))
    trace::sim_begin(kTrc, "decouple", kernel.now(), track);
  co_await cpu.write_reg(tile, soc::kRegDecouple, 1);
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, "decouple", kernel.now(), track);

  RequestStatus status = RequestStatus::kOk;
  sim::Time first_fire = 0;
  int crc_attempts = 0;
  int recoveries = 0;
  bool configured = false;

  // 2./3. Program and trigger the DFX controller, wait for its completion
  // interrupt under the watchdog, recover from CRC errors, lost
  // interrupts, dropped triggers and hangs until the budgets run out.
  while (!configured && status == RequestStatus::kOk) {
    if (trace::enabled(kTrc)) {
      trace::sim_begin(kTrc, "fetch", kernel.now(), track,
                       static_cast<double>(image.bytes));
    }
    co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, image.address);
    co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, image.bytes);
    co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                           static_cast<std::uint64_t>(tile));
    const std::uint64_t nack =
        co_await cpu.write_reg(aux, soc::kRegDfxcTrigger, 1);
    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, "fetch", kernel.now(), track);
    if (nack == kAckRefused) {
      // The controller was busy and dropped the trigger (a leftover from
      // an earlier wedge): reset it, back off, retry.
      ++stats_.dropped_trigger_retries;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "trigger-nack", kernel.now(), track);
      if (first_fire == 0) first_fire = kernel.now();
      co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
      if (++recoveries > options_.retry_budget) {
        status = RequestStatus::kTimeout;
      } else {
        const sim::Time delay = backoff(recoveries);
        if (trace::enabled(kTrc)) {
          trace::sim_instant(kTrc, "backoff", kernel.now(), track,
                             static_cast<double>(delay));
        }
        co_await sim::Delay(kernel, delay);
      }
      continue;
    }

    if (trace::enabled(kTrc)) {
      trace::sim_begin(kTrc, "icap", kernel.now(), track,
                       static_cast<double>(image.bytes));
    }
    bool waiting = true;
    while (waiting) {
      const auto payload = co_await aux_irq.receive_for(watchdog);
      if (payload.has_value()) {
        const int target = static_cast<int>(*payload >> 8);
        const std::uint64_t code = *payload & 0xFF;
        if (target != tile || (code != soc::kIrqReconfDone &&
                               code != soc::kIrqReconfError)) {
          ++stats_.stray_irqs;  // late interrupt of a superseded attempt
          continue;
        }
        waiting = false;
        if (code == soc::kIrqReconfDone) {
          configured = true;
        } else {
          ++stats_.crc_retries;
          if (trace::enabled(kTrc))
            trace::sim_instant(kTrc, "crc-retry", kernel.now(), track);
          if (++crc_attempts >= options_.max_attempts)
            status = RequestStatus::kCrcExhausted;
        }
        continue;
      }

      // Watchdog fired: read the controller's status register to tell a
      // lost interrupt from a genuine wedge.
      waiting = false;
      ++stats_.watchdog_fires;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "watchdog", kernel.now(), track);
      if (first_fire == 0) first_fire = kernel.now();
      const std::uint64_t dfxc_status =
          co_await cpu.read_reg(aux, soc::kRegDfxcStatus);
      if (dfxc_status == 0) {
        // Transfer completed; only its done interrupt was lost.
        ++stats_.lost_irq_recoveries;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "lost-irq", kernel.now(), track);
        configured = true;
      } else if (dfxc_status == 2) {
        // CRC error whose interrupt was lost.
        ++stats_.crc_retries;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "crc-retry", kernel.now(), track);
        if (++crc_attempts >= options_.max_attempts)
          status = RequestStatus::kCrcExhausted;
      } else {
        // Genuinely wedged (ICAP stall or controller hang): abort the
        // transfer and retry after a backoff.
        co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
        if (++recoveries > options_.retry_budget) {
          status = RequestStatus::kTimeout;
        } else {
          const sim::Time delay = backoff(recoveries);
          if (trace::enabled(kTrc)) {
            trace::sim_instant(kTrc, "backoff", kernel.now(), track,
                               static_cast<double>(delay));
          }
          co_await sim::Delay(kernel, delay);
        }
      }
      // Settle, then drain stale interrupts so a late completion of the
      // aborted attempt is never attributed to the next one.
      co_await sim::Delay(kernel,
                          static_cast<sim::Time>(options_.irq_drain_cycles));
      while (aux_irq.try_receive().has_value()) ++stats_.stray_irqs;
    }
    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, "icap", kernel.now(), track);
  }

  if (!configured) {
    // Escalate instead of throwing: quarantine the tile, blank its
    // partition with the greybox image so the fabric is left safe, and
    // surface the status through the completion channel.
    ++stats_.reconfigurations_failed;
    if (health_.health(tile) != TileHealth::kQuarantined) {
      health_.quarantine(tile);
      ++stats_.quarantines;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "quarantine", kernel.now(), track);
    }
    drivers_.erase(tile);
    if (!module.empty() && store_.has(tile, "")) {
      const BitstreamImage& blank = store_.get(tile, "");
      co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, blank.address);
      co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, blank.bytes);
      co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                             static_cast<std::uint64_t>(tile));
      const std::uint64_t nack =
          co_await cpu.write_reg(aux, soc::kRegDfxcTrigger, 1);
      bool blanked = nack != kAckRefused;
      while (blanked) {
        const auto payload = co_await aux_irq.receive_for(watchdog);
        if (!payload.has_value()) {
          // Best effort only: reset the controller and leave the tile
          // decoupled.
          ++stats_.watchdog_fires;
          co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
          break;
        }
        const int target = static_cast<int>(*payload >> 8);
        const std::uint64_t code = *payload & 0xFF;
        if (target != tile) {
          ++stats_.stray_irqs;
          continue;
        }
        if (code == soc::kIrqReconfDone) {
          // Blank in place: safe to re-enable the decoupler (nack from a
          // stuck decoupler is tolerable here — the partition is empty).
          co_await cpu.write_reg(tile, soc::kRegDecouple, 0);
        }
        break;
      }
    }
    if (first_fire != 0)
      stats_.recovery_cycles +=
          static_cast<long long>(kernel.now() - first_fire);
    --queue_depth_;
    trace_queue_depth(kernel, queue_depth_);
    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, span_label, kernel.now(), track);
    store_.release(tile, module);
    prc_lock_.release();
    done.complete(status, tile);
    co_return;
  }

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
    ++stats_.reconfigurations_failed;
    if (health_.health(tile) != TileHealth::kQuarantined) {
      health_.quarantine(tile);
      ++stats_.quarantines;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "quarantine", kernel.now(), track);
    }
    drivers_.erase(tile);
    if (first_fire != 0)
      stats_.recovery_cycles +=
          static_cast<long long>(kernel.now() - first_fire);
    --queue_depth_;
    trace_queue_depth(kernel, queue_depth_);
    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, span_label, kernel.now(), track);
    store_.release(tile, module);
    prc_lock_.release();
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
  if (first_fire != 0)
    stats_.recovery_cycles +=
        static_cast<long long>(kernel.now() - first_fire);
  if (recoveries > 0 || crc_attempts > 0 || release_tries > 0) {
    health_.record_failure(tile);
  } else {
    health_.record_success(tile);
  }
  --queue_depth_;
  trace_queue_depth(kernel, queue_depth_);
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, span_label, kernel.now(), track);
  store_.release(tile, module);
  prc_lock_.release();
  done.complete(RequestStatus::kOk, tile);
}

sim::Process ReconfigurationManager::reconfigure_pipelined(
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

  // Source stage: pin the image DRAM-resident (cache fill / async read).
  StoreTicket ticket(kernel);
  store_.acquire(kernel, tile, module, ticket);
  co_await ticket.done.wait();
  const BitstreamImage image = ticket.image;

  const auto watchdog = static_cast<sim::Time>(
      options_.watchdog_reconf_base_cycles +
      static_cast<long long>(
          options_.watchdog_reconf_margin * static_cast<double>(image.bytes) /
          soc_.options().icap_bytes_per_cycle));

  // Admission into the bounded fetch->program buffer: at most
  // staging_slots requests between fetch trigger and program completion.
  co_await staging_sem_.acquire();

  // 1. Decouple the tile's wrapper from its socket.
  if (trace::enabled(kTrc))
    trace::sim_begin(kTrc, "decouple", kernel.now(), track);
  co_await cpu.write_reg(tile, soc::kRegDecouple, 1);
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, "decouple", kernel.now(), track);

  RequestStatus status = RequestStatus::kOk;
  sim::Time first_fire = 0;
  int crc_attempts = 0;
  int recoveries = 0;

  // 2. Fetch stage: DMA + CRC into the DFX controller's staging buffer.
  // Serialized on the fetch engine, but free to overlap another request's
  // program stage — that is the whole point of the split transaction.
  {
    const sim::Time q0 = kernel.now();
    co_await fetch_lock_.acquire();
    stats_.prc_wait_cycles += static_cast<long long>(kernel.now() - q0);
  }
  const sim::Time start = kernel.now();
  if (trace::enabled(kTrc)) trace::sim_end(kTrc, "queued", start, track);

  bool fetched = false;
  while (!fetched && status == RequestStatus::kOk) {
    if (trace::enabled(kTrc)) {
      trace::sim_begin(kTrc, "fetch", kernel.now(), track,
                       static_cast<double>(image.bytes));
    }
    // The address/length/target registers are shared with the program
    // stage of whatever request currently owns the ICAP; the register
    // lock keeps the two write sequences from interleaving.
    co_await reg_lock_.acquire();
    co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, image.address);
    co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, image.bytes);
    co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                           static_cast<std::uint64_t>(tile));
    const std::uint64_t nack =
        co_await cpu.write_reg(aux, soc::kRegDfxcFetch, 1);
    reg_lock_.release();
    if (nack == kAckRefused) {
      ++stats_.dropped_trigger_retries;
      if (trace::enabled(kTrc)) {
        trace::sim_instant(kTrc, "fetch-nack", kernel.now(), track);
        trace::sim_end(kTrc, "fetch", kernel.now(), track);
      }
      if (first_fire == 0) first_fire = kernel.now();
      co_await cpu.write_reg(aux, soc::kRegDfxcFetchReset, 1);
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
        if (code == soc::kIrqFetchDone) {
          fetched = true;
          waiting = false;
        } else if (code == soc::kIrqReconfError) {
          waiting = false;
          ++stats_.crc_retries;
          if (trace::enabled(kTrc))
            trace::sim_instant(kTrc, "crc-retry", kernel.now(), track);
          if (++crc_attempts >= options_.max_attempts)
            status = RequestStatus::kCrcExhausted;
        } else {
          ++stats_.stray_irqs;  // a superseded attempt's late interrupt
        }
        continue;
      }

      // Watchdog fired: distinguish a lost interrupt from a wedged fetch
      // engine via its own status register — never by resetting the
      // program engine, whose transfer may be mid-flight.
      waiting = false;
      ++stats_.watchdog_fires;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "watchdog", kernel.now(), track);
      if (first_fire == 0) first_fire = kernel.now();
      const std::uint64_t fetch_status =
          co_await cpu.read_reg(aux, soc::kRegDfxcFetchStatus);
      if (fetch_status == 0) {
        ++stats_.lost_irq_recoveries;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "lost-irq", kernel.now(), track);
        fetched = true;
      } else if (fetch_status == 2) {
        ++stats_.crc_retries;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "crc-retry", kernel.now(), track);
        if (++crc_attempts >= options_.max_attempts)
          status = RequestStatus::kCrcExhausted;
      } else {
        co_await cpu.write_reg(aux, soc::kRegDfxcFetchReset, 1);
        if (++recoveries > options_.retry_budget) {
          status = RequestStatus::kTimeout;
        } else {
          co_await sim::Delay(kernel, backoff(recoveries));
        }
      }
      co_await sim::Delay(kernel,
                          static_cast<sim::Time>(options_.irq_drain_cycles));
      while (irq.try_receive().has_value()) ++stats_.stray_irqs;
    }
    if (trace::enabled(kTrc) && nack != kAckRefused)
      trace::sim_end(kTrc, "fetch", kernel.now(), track);
  }
  fetch_lock_.release();
  if (fetched) ++stats_.pipelined_fetches;

  // 3. Program stage: stream the staged bitstream into the ICAP under the
  // PRC lock. The controller sees the matching staged entry and skips the
  // DMA + CRC it already did.
  bool configured = false;
  bool prc_held = false;
  if (status == RequestStatus::kOk) {
    const sim::Time p0 = kernel.now();
    co_await prc_lock_.acquire();
    prc_held = true;
    stats_.prc_wait_cycles += static_cast<long long>(kernel.now() - p0);
    while (!configured && status == RequestStatus::kOk) {
      if (trace::enabled(kTrc)) {
        trace::sim_begin(kTrc, "icap", kernel.now(), track,
                         static_cast<double>(image.bytes));
      }
      co_await reg_lock_.acquire();
      co_await cpu.write_reg(aux, soc::kRegDfxcBsAddr, image.address);
      co_await cpu.write_reg(aux, soc::kRegDfxcBsBytes, image.bytes);
      co_await cpu.write_reg(aux, soc::kRegDfxcTarget,
                             static_cast<std::uint64_t>(tile));
      const std::uint64_t nack =
          co_await cpu.write_reg(aux, soc::kRegDfxcTrigger, 1);
      reg_lock_.release();
      if (nack == kAckRefused) {
        ++stats_.dropped_trigger_retries;
        if (trace::enabled(kTrc)) {
          trace::sim_instant(kTrc, "trigger-nack", kernel.now(), track);
          trace::sim_end(kTrc, "icap", kernel.now(), track);
        }
        if (first_fire == 0) first_fire = kernel.now();
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
        const auto payload = co_await irq.receive_for(watchdog);
        if (payload.has_value()) {
          const std::uint64_t code = *payload & 0xFF;
          if (code == soc::kIrqReconfDone) {
            configured = true;
            waiting = false;
          } else if (code == soc::kIrqReconfError) {
            waiting = false;
            ++stats_.crc_retries;
            if (trace::enabled(kTrc))
              trace::sim_instant(kTrc, "crc-retry", kernel.now(), track);
            if (++crc_attempts >= options_.max_attempts)
              status = RequestStatus::kCrcExhausted;
          } else {
            ++stats_.stray_irqs;
          }
          continue;
        }

        waiting = false;
        ++stats_.watchdog_fires;
        if (trace::enabled(kTrc))
          trace::sim_instant(kTrc, "watchdog", kernel.now(), track);
        if (first_fire == 0) first_fire = kernel.now();
        const std::uint64_t dfxc_status =
            co_await cpu.read_reg(aux, soc::kRegDfxcStatus);
        if (dfxc_status == 0) {
          ++stats_.lost_irq_recoveries;
          if (trace::enabled(kTrc))
            trace::sim_instant(kTrc, "lost-irq", kernel.now(), track);
          configured = true;
        } else if (dfxc_status == 2) {
          ++stats_.crc_retries;
          if (trace::enabled(kTrc))
            trace::sim_instant(kTrc, "crc-retry", kernel.now(), track);
          if (++crc_attempts >= options_.max_attempts)
            status = RequestStatus::kCrcExhausted;
        } else {
          co_await cpu.write_reg(aux, soc::kRegDfxcReset, 1);
          if (++recoveries > options_.retry_budget) {
            status = RequestStatus::kTimeout;
          } else {
            co_await sim::Delay(kernel, backoff(recoveries));
          }
        }
        co_await sim::Delay(
            kernel, static_cast<sim::Time>(options_.irq_drain_cycles));
        while (irq.try_receive().has_value()) ++stats_.stray_irqs;
      }
      if (trace::enabled(kTrc))
        trace::sim_end(kTrc, "icap", kernel.now(), track);
    }
  }

  if (!configured) {
    // Escalate exactly like the serial flow: quarantine, blank the
    // partition with the greybox image (a combined transfer under the
    // PRC lock), surface the status.
    ++stats_.reconfigurations_failed;
    if (health_.health(tile) != TileHealth::kQuarantined) {
      health_.quarantine(tile);
      ++stats_.quarantines;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "quarantine", kernel.now(), track);
    }
    drivers_.erase(tile);
    if (!prc_held) {
      co_await prc_lock_.acquire();
      prc_held = true;
    }
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
          co_await cpu.write_reg(tile, soc::kRegDecouple, 0);
          break;
        }
        if (code == soc::kIrqReconfError) break;
        ++stats_.stray_irqs;
      }
    }
    if (first_fire != 0)
      stats_.recovery_cycles +=
          static_cast<long long>(kernel.now() - first_fire);
    --queue_depth_;
    trace_queue_depth(kernel, queue_depth_);
    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, span_label, kernel.now(), track);
    prc_lock_.release();
    staging_sem_.release();
    store_.release(tile, module);
    done.complete(status, tile);
    co_return;
  }

  // Programmed: the ICAP, the staging slot and the image pin are free for
  // the next request before we even recouple.
  prc_lock_.release();
  staging_sem_.release();
  store_.release(tile, module);

  // 4. Re-enable the decoupler; an injected stuck-at fault nacks the
  // release, retried with backoff.
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
    ++stats_.reconfigurations_failed;
    if (health_.health(tile) != TileHealth::kQuarantined) {
      health_.quarantine(tile);
      ++stats_.quarantines;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "quarantine", kernel.now(), track);
    }
    drivers_.erase(tile);
    if (first_fire != 0)
      stats_.recovery_cycles +=
          static_cast<long long>(kernel.now() - first_fire);
    --queue_depth_;
    trace_queue_depth(kernel, queue_depth_);
    if (trace::enabled(kTrc))
      trace::sim_end(kTrc, span_label, kernel.now(), track);
    done.complete(status, tile);
    co_return;
  }

  // 5. Swap the accelerator driver.
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
  if (first_fire != 0)
    stats_.recovery_cycles +=
        static_cast<long long>(kernel.now() - first_fire);
  if (recoveries > 0 || crc_attempts > 0 || release_tries > 0) {
    health_.record_failure(tile);
  } else {
    health_.record_success(tile);
  }
  --queue_depth_;
  trace_queue_depth(kernel, queue_depth_);
  if (trace::enabled(kTrc))
    trace::sim_end(kTrc, span_label, kernel.now(), track);
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
  StoreTicket ticket(kernel);
  store_.acquire(kernel, tile, module, ticket);
  co_await ticket.done.wait();
  const BitstreamImage image = ticket.image;
  const int aux = soc_.aux_tile_index();
  // Once the pipelined flow's IRQ pump owns the raw aux stream, every
  // waiter must go through its per-tile mailbox.
  if (options_.pipelined) start_irq_pump();
  auto& aux_irq =
      options_.pipelined ? aux_box(tile) : cpu.irq_from(aux);
  const auto watchdog = static_cast<sim::Time>(
      options_.watchdog_reconf_base_cycles +
      static_cast<long long>(
          options_.watchdog_reconf_margin * static_cast<double>(image.bytes) /
          soc_.options().icap_bytes_per_cycle));

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
        const int target = static_cast<int>(*payload >> 8);
        const std::uint64_t code = *payload & 0xFF;
        if (target == tile && code == soc::kIrqReadbackDone) {
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
  store_.release(tile, module);
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
    if (health_.health(routed) != TileHealth::kQuarantined) {
      health_.quarantine(routed);
      ++stats_.quarantines;
      if (trace::enabled(kTrc))
        trace::sim_instant(kTrc, "quarantine", kernel.now(), run_track);
    }
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

  if (first_fire != 0)
    stats_.recovery_cycles +=
        static_cast<long long>(kernel.now() - first_fire);
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
