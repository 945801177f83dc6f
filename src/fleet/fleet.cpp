#include "fleet/fleet.hpp"

#include <algorithm>
#include <sstream>

#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"

namespace presp::fleet {

namespace {
constexpr std::size_t kShardBufferBytes = 1 << 16;
constexpr std::size_t kBlankBitstreamBytes = 120'000;

trace::Counter& counter(const char* name) {
  return trace::MetricsRegistry::global().counter(name);
}

fabric::Device device_for(const std::string& name) {
  if (name == "vcu118") return fabric::Device::vcu118();
  if (name == "vcu128") return fabric::Device::vcu128();
  return fabric::Device::vc707();
}

/// Starting columns of every non-overlapping CLB column pair: the
/// relocation slots the shard floorplans place (and repack) full-height
/// width-2 regions on. Pair regions keep footprint signatures trivially
/// compatible across slots.
std::vector<int> clb_pair_slots(const fabric::Device& device) {
  std::vector<int> slots;
  int col = 0;
  while (col + 1 < device.num_columns()) {
    if (device.column_type(col) == fabric::ColumnType::kClb &&
        device.column_type(col + 1) == fabric::ColumnType::kClb) {
      slots.push_back(col);
      col += 2;
    } else {
      ++col;
    }
  }
  return slots;
}
}  // namespace

FleetManager::FleetManager(FleetTopology topology,
                           const netlist::SocConfig& config,
                           const soc::AcceleratorRegistry& registry,
                           std::uint64_t seed,
                           fault::FaultInjector* injector,
                           runtime::ManagerOptions manager_options)
    : topology_(std::move(topology)), device_(device_for(config.device)),
      injector_(injector), rng_(seed) {
  topology_.validate();
  shards_.reserve(static_cast<std::size_t>(topology_.shards));
  for (int s = 0; s < topology_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->soc = std::make_unique<soc::Soc>(config, registry);
    shard->store = std::make_unique<runtime::BitstreamStore>(
        shard->soc->memory());
    runtime::ManagerOptions shard_options = manager_options;
    // Decorrelate the shards' retry-jitter streams deterministically.
    shard_options.backoff_seed += static_cast<std::uint64_t>(s);
    shard->manager = std::make_unique<runtime::ReconfigurationManager>(
        *shard->soc, *shard->store, shard_options);
    if (injector_ != nullptr) shard->soc->set_fault_injector(injector_);
    for (const auto& tile : shard->soc->reconf_tiles()) {
      shard->tiles.push_back(tile->index());
      shard->store->add_blank(tile->index(), kBlankBitstreamBytes);
    }
    PRESP_REQUIRE(!shard->tiles.empty(),
                  "fleet shards need at least one reconfigurable tile");
    shard->buffer =
        shard->soc->memory().allocate("fleet_buf", kShardBufferBytes);
    shard->breaker =
        std::make_unique<CircuitBreaker>(topology_.breaker, &rng_);
    wire_breaker_trace(*shard->breaker, s, -1);
    // Quarantine decisions made deep inside the runtime surface here via
    // the health listener and trip the tile breaker open, so routing
    // reacts in the same quantum.
    shard->manager->health().set_listener(
        [this, s](int tile, runtime::TileHealth /*from*/,
                  runtime::TileHealth to) {
          if (to != runtime::TileHealth::kQuarantined) return;
          tile_breaker_ref(*shards_[static_cast<std::size_t>(s)], tile)
              .force_open(now_);
          trace::sim_instant(trace::Category::kFleet, "fleet.quarantine",
                             now_, trace::kTrackFleet,
                             static_cast<double>(tile));
        });
    if (topology_.repack) {
      // Live region map: each reconfigurable tile holds a full-height
      // width-2 CLB region, spread across the die the way a static
      // floorplan scatters pblocks. The repacker compacts them toward
      // the left edge while the fleet keeps serving.
      shard->plan = std::make_unique<floorplan::DynamicFloorplan>(device_);
      const std::vector<int> slots = clb_pair_slots(device_);
      const int tiles = static_cast<int>(shard->tiles.size());
      PRESP_REQUIRE(static_cast<int>(slots.size()) > tiles,
                    "device too small for per-tile relocation slots");
      for (int k = 0; k < tiles; ++k) {
        const auto slot = static_cast<std::size_t>(
            (static_cast<long long>(k + 1) *
             static_cast<long long>(slots.size())) /
            (tiles + 1));
        const int col = slots[std::min(slot, slots.size() - 1)];
        shard->plan->claim(shard->tiles[static_cast<std::size_t>(k)],
                           fabric::Pblock{col, col + 1, 0,
                                          device_.region_rows() - 1});
      }
      runtime::RepackerOptions repack_options;
      repack_options.interval_cycles = topology_.repack_interval_cycles;
      repack_options.frag_threshold = topology_.repack_frag_threshold;
      repack_options.max_migrations_per_pass = topology_.repack_max_migrations;
      repack_options.migration_budget = topology_.repack_migration_budget;
      repack_options.metrics_prefix =
          "fleet.shard" + std::to_string(s) + ".floorplan";
      shard->repacker = std::make_unique<runtime::Repacker>(
          *shard->soc, *shard->manager, *shard->plan, repack_options);
      if (injector_ != nullptr) shard->repacker->set_fault_injector(injector_);
      shard->plan->publish_metrics(repack_options.metrics_prefix);
      // Detached coroutine on the shard kernel: the lock-step advance in
      // step() is what wakes it each interval.
      shard->repacker->process();
    }
    shards_.push_back(std::move(shard));
  }
}

FleetManager::~FleetManager() {
  // In-flight completions must outlive the coroutines parked on them, so
  // drop them before the shard kernels; detach the (caller-owned)
  // injector while we are at it.
  inflight_.clear();
  for (auto& shard : shards_) {
    shard->soc->set_fault_injector(nullptr);
    if (shard->repacker) {
      shard->repacker->stop();
      shard->repacker->set_fault_injector(nullptr);
    }
  }
}

const runtime::Repacker* FleetManager::repacker(int shard) const {
  return shards_[static_cast<std::size_t>(shard)]->repacker.get();
}

const floorplan::DynamicFloorplan* FleetManager::dynamic_floorplan(
    int shard) const {
  return shards_[static_cast<std::size_t>(shard)]->plan.get();
}

void FleetManager::wire_breaker_trace(CircuitBreaker& breaker, int shard,
                                      int tile) {
  breaker.set_listener([this, shard, tile](BreakerState from, BreakerState to,
                                           sim::Time at) {
    switch (to) {
      case BreakerState::kOpen:
        if (from == BreakerState::kHalfOpen) {
          ++stats_.breaker_reopens;
        } else {
          ++stats_.breaker_opens;
        }
        break;
      case BreakerState::kHalfOpen:
        ++stats_.breaker_half_opens;
        if (tile >= 0) {
          // The half-open probe is the tile's re-admission path: the
          // runtime reconfigures it from scratch and it must earn
          // healthy status back (or fail the probe and re-open).
          shards_[static_cast<std::size_t>(shard)]->manager->rehabilitate(
              tile);
          ++stats_.probe_rehabilitations;
        }
        break;
      case BreakerState::kClosed:
        ++stats_.breaker_closes;
        break;
    }
    counter("fleet.breaker_transitions").add();
    std::ostringstream name;
    name << "fleet.breaker shard=" << shard;
    if (tile >= 0) name << " tile=" << tile;
    name << ' ' << to_string(from) << "->" << to_string(to);
    trace::sim_instant(trace::Category::kFleet, name.str(), at,
                       trace::kTrackFleet, static_cast<double>(shard));
  });
}

CircuitBreaker& FleetManager::tile_breaker_ref(Shard& shard, int tile) {
  auto it = shard.tile_breakers.find(tile);
  if (it == shard.tile_breakers.end()) {
    auto breaker = std::make_unique<CircuitBreaker>(topology_.breaker, &rng_);
    const auto shard_index = static_cast<int>(
        std::find_if(shards_.begin(), shards_.end(),
                     [&shard](const std::unique_ptr<Shard>& s) {
                       return s.get() == &shard;
                     }) -
        shards_.begin());
    wire_breaker_trace(*breaker, shard_index, tile);
    it = shard.tile_breakers.emplace(tile, std::move(breaker)).first;
  }
  return *it->second;
}

void FleetManager::add_module(const std::string& module, std::size_t bytes) {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  for (auto& shard : shards_) {
    for (const int tile : shard->tiles) shard->store->add(tile, module, bytes);
  }
}

sim::Time FleetManager::deadline_for(const FleetRequest& request) const {
  const QosClassParams& cls =
      topology_.classes[static_cast<int>(request.cls)];
  return request.submitted_at +
         static_cast<sim::Time>(cls.deadline_quanta *
                                topology_.quantum_cycles);
}

void FleetManager::submit(FleetRequest request) {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  ++stats_.submitted;
  counter("fleet.submitted").add();
  if (request.submitted_at == 0) request.submitted_at = now_;
  if (request.deadline == 0) request.deadline = deadline_for(request);
  admit(std::move(request));
}

bool FleetManager::take_tenant_token(int tenant) {
  if (topology_.tenant_tokens_per_quantum <= 0.0) return true;
  TenantBucket& bucket = tenants_[tenant];
  // Lazy refill from the elapsed virtual time: tenants appear on first
  // submit with a full burst allowance, and an idle tenant's bucket
  // refills without the step loop ever touching it.
  if (bucket.last_refill == 0 && bucket.tokens == 0.0) {
    bucket.tokens = topology_.tenant_burst;
  } else {
    const double quanta =
        static_cast<double>(now_ - bucket.last_refill) /
        static_cast<double>(topology_.quantum_cycles);
    bucket.tokens =
        std::min(bucket.tokens + quanta * topology_.tenant_tokens_per_quantum,
                 topology_.tenant_burst);
  }
  bucket.last_refill = now_;
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void FleetManager::admit(FleetRequest request) {
  // Tenant bucket first: it is the per-client admission edge, layered
  // under (checked before) the shared class bucket and queue bound, and
  // its shed reason is distinct so operators can tell "you exceeded your
  // quota" from "the class is saturated".
  if (!take_tenant_token(request.tenant)) {
    counter(("fleet.tenant." + std::to_string(request.tenant) + ".shed")
                .c_str())
        .add();
    // A quota rejection is hard even for best-effort work: routing it to
    // the software fallback would let a tenant tunnel past its budget.
    shed(request, FleetError::kTenantThrottled);
    return;
  }
  ClassQueue& cq = classes_[static_cast<int>(request.cls)];
  const QosClassParams& params =
      topology_.classes[static_cast<int>(request.cls)];
  if (static_cast<int>(cq.queue.size()) >= params.queue_bound) {
    shed_or_fallback(request, FleetError::kQueueFull);
    return;
  }
  counter(("fleet.tenant." + std::to_string(request.tenant) + ".admitted")
              .c_str())
      .add();
  cq.queue.push_back(std::move(request));
}

void FleetManager::step() {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  now_ += static_cast<sim::Time>(topology_.quantum_cycles);
  for (int c = 0; c < kNumQosClasses; ++c) {
    ClassQueue& cq = classes_[c];
    const QosClassParams& params = topology_.classes[c];
    cq.tokens = std::min(cq.tokens + params.tokens_per_quantum, params.burst);
  }
  dispatch_pass();
  advance_shards();
  reap();
  trace::MetricsRegistry::global().gauge("fleet.inflight").set(
      static_cast<double>(inflight_.size()));
}

void FleetManager::run_quanta(int quanta) {
  for (int i = 0; i < quanta; ++i) step();
}

void FleetManager::dispatch_pass() {
  // Shed expired heads first (FIFO per class, so the head is oldest):
  // a request that aged out waiting for tokens was throttled; one that
  // aged out with tokens available missed its dispatch window.
  for (int c = 0; c < kNumQosClasses; ++c) {
    ClassQueue& cq = classes_[c];
    while (!cq.queue.empty() && now_ > cq.queue.front().deadline) {
      const FleetRequest expired = std::move(cq.queue.front());
      cq.queue.pop_front();
      shed_or_fallback(expired, cq.tokens >= 1.0
                                    ? FleetError::kDeadlineShed
                                    : FleetError::kThrottled);
    }
  }
  // Deficit-weighted round-robin across the classes.
  for (int c = 0; c < kNumQosClasses; ++c) {
    if (!classes_[c].queue.empty())
      classes_[c].deficit += topology_.classes[c].weight;
  }
  bool blocked[kNumQosClasses] = {};
  for (;;) {
    int best = -1;
    for (int c = 0; c < kNumQosClasses; ++c) {
      ClassQueue& cq = classes_[c];
      if (blocked[c] || cq.queue.empty() || cq.tokens < 1.0) continue;
      if (best < 0 || cq.deficit > classes_[best].deficit) best = c;
    }
    if (best < 0) break;
    ClassQueue& cq = classes_[best];
    FleetRequest request = std::move(cq.queue.front());
    cq.queue.pop_front();
    if (try_dispatch(request)) {
      cq.tokens -= 1.0;
      cq.deficit = std::max(cq.deficit - 1.0, 0.0);
    } else {
      // No shard/tile admitted it; keep it queued and do not burn a
      // token, but stop asking for this class this pass.
      cq.queue.push_front(std::move(request));
      blocked[best] = true;
    }
  }
  for (int c = 0; c < kNumQosClasses; ++c) {
    if (classes_[c].queue.empty()) classes_[c].deficit = 0.0;
  }
}

bool FleetManager::try_dispatch(FleetRequest& request) {
  // Reject-early deadline shedding: if the estimate already overshoots
  // the deadline, failing fast beats wasting fabric time.
  if (now_ + static_cast<sim::Time>(topology_.service_estimate_cycles) >
      request.deadline) {
    shed_or_fallback(request, FleetError::kDeadlineShed);
    return true;
  }
  if (try_coalesce(request)) return true;
  int shard = -1;
  int tile = -1;
  if (!route(request.module, &shard, &tile)) {
    // Nothing admitted it right now. If another pass cannot possibly
    // make the deadline either, shed with the precise reason.
    if (now_ + static_cast<sim::Time>(topology_.service_estimate_cycles +
                                      topology_.quantum_cycles) >
        request.deadline) {
      shed_or_fallback(request, FleetError::kShardUnavailable);
      return true;
    }
    return false;
  }
  start_run(shard, tile, std::move(request), false);
  return true;
}

bool FleetManager::try_coalesce(const FleetRequest& request) {
  if (topology_.coalesce_limit <= 0) return false;
  for (auto& entry : inflight_) {
    if (entry->coalesced || entry->late ||
        entry->request.module != request.module)
      continue;
    if (entry->completion->triggered()) continue;
    // An open breaker must divert coalesced traffic too — riding a
    // leader on a tripped shard would tunnel new work past it.
    if (shards_[static_cast<std::size_t>(entry->shard)]->breaker->state() !=
        BreakerState::kClosed)
      continue;
    if (static_cast<int>(entry->followers.size()) >=
        topology_.coalesce_limit)
      continue;
    entry->followers.push_back(request);
    ++stats_.coalesced;
    counter("fleet.coalesced").add();
    trace::sim_instant(trace::Category::kFleet, "fleet.coalesce", now_,
                       trace::kTrackFleet,
                       static_cast<double>(entry->request.id));
    return true;
  }
  return false;
}

bool FleetManager::route(const std::string& module, int* out_shard,
                         int* out_tile) {
  const int n = num_shards();
  // Least-loaded first; round-robin start breaks ties fairly.
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order.push_back((next_shard_rr_ + i) % n);
  next_shard_rr_ = (next_shard_rr_ + 1) % std::max(n, 1);
  std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
    return shards_[static_cast<std::size_t>(a)]->inflight <
           shards_[static_cast<std::size_t>(b)]->inflight;
  });
  for (const int s : order) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    const BreakerState before = shard.breaker->state();
    if (!shard.breaker->allow(now_)) continue;
    const bool shard_probe =
        before != BreakerState::kClosed &&
        shard.breaker->state() == BreakerState::kHalfOpen;
    // Module affinity first (skips the reconfiguration entirely), then
    // any tile the health registry and tile breaker will take.
    int chosen = -1;
    for (const bool affinity_pass : {true, false}) {
      for (const int tile : shard.tiles) {
        if (affinity_pass && shard.manager->driver(tile) != module) continue;
        CircuitBreaker& tb = tile_breaker_ref(shard, tile);
        if (!tb.allow(now_)) continue;
        if (!shard.manager->health().usable(tile)) {
          tb.abandon();
          continue;
        }
        chosen = tile;
        break;
      }
      if (chosen >= 0) break;
    }
    if (chosen < 0) {
      if (shard_probe) shard.breaker->abandon();
      continue;
    }
    *out_shard = s;
    *out_tile = chosen;
    return true;
  }
  return false;
}

void FleetManager::start_run(int shard_index, int tile, FleetRequest request,
                             bool coalesced) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  auto entry = std::make_unique<Inflight>();
  entry->request = std::move(request);
  entry->shard = shard_index;
  entry->tile = tile;
  entry->coalesced = coalesced;
  entry->completion =
      std::make_unique<runtime::Completion>(shard.soc->kernel());
  soc::AccelTask task;
  task.src = shard.buffer;
  task.dst = shard.buffer + kShardBufferBytes / 2;
  task.items = entry->request.items;
  trace::sim_instant(trace::Category::kFleet, "fleet.dispatch", now_,
                     trace::kTrackFleet,
                     static_cast<double>(entry->request.id));
  shard.manager->run(tile, entry->request.module, task, *entry->completion);
  ++shard.inflight;
  inflight_.push_back(std::move(entry));
}

void FleetManager::advance_shards() {
  for (int s = 0; s < num_shards(); ++s) {
    Shard& shard = *shards_[static_cast<std::size_t>(s)];
    if (now_ >= shard.stalled_until && injector_ != nullptr &&
        injector_->on_shard_stall(s)) {
      shard.stalled_until =
          now_ + static_cast<sim::Time>(topology_.stall_cycles);
      trace::sim_instant(trace::Category::kFleet, "fleet.shard_stall", now_,
                         trace::kTrackFleet, static_cast<double>(s));
    }
    if (now_ < shard.stalled_until) {
      // The shard's kernel freezes: in-flight work stops making
      // progress. The dispatcher is deliberately not told — it must
      // discover the stall through aging requests and the breaker.
      ++stats_.stall_quanta;
      continue;
    }
    shard.soc->kernel().run_until(now_);
  }
}

void FleetManager::reap() {
  std::vector<std::unique_ptr<Inflight>> finished;
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    Inflight& entry = **it;
    if (entry.completion->triggered()) {
      finished.push_back(std::move(*it));
      it = inflight_.erase(it);
      continue;
    }
    if (now_ > entry.request.deadline) {
      // Still executing past its deadline: feed the shard breaker every
      // quantum instead of waiting for the (possibly stalled)
      // completion — sustained no-progress is the stall signature the
      // dispatcher can actually observe.
      if (!entry.late) {
        entry.late = true;
        trace::sim_instant(trace::Category::kFleet, "fleet.late", now_,
                           trace::kTrackFleet,
                           static_cast<double>(entry.request.id));
      }
      shards_[static_cast<std::size_t>(entry.shard)]->breaker->record_failure(
          now_);
    }
    ++it;
  }
  for (const auto& entry : finished)
    retire(*entry, entry->completion->status());
  // Software-fallback completions that have reached their modeled
  // latency.
  for (auto it = fallbacks_.begin(); it != fallbacks_.end();) {
    if (it->due <= now_) {
      complete(it->request, OutcomeKind::kFallback, -1);
      it = fallbacks_.erase(it);
    } else {
      ++it;
    }
  }
}

void FleetManager::retire(const Inflight& entry,
                          runtime::RequestStatus status) {
  Shard& shard = *shards_[static_cast<std::size_t>(entry.shard)];
  shard.inflight = std::max(shard.inflight - 1, 0);
  const int ran_tile =
      entry.completion->tile() >= 0 ? entry.completion->tile() : entry.tile;
  const bool ok = status == runtime::RequestStatus::kOk;
  if (ok) {
    if (!entry.late) shard.breaker->record_success(now_);
    // A run that was rescued on a different tile than requested means the
    // requested tile failed mid-flight (quarantine + internal re-route):
    // its breaker must see the failure or a half-open probe would leak.
    if (ran_tile != entry.tile)
      tile_breaker_ref(shard, entry.tile).record_failure(now_);
    tile_breaker_ref(shard, ran_tile).record_success(now_);
    complete(entry.request,
             entry.coalesced ? OutcomeKind::kCoalescedOk : OutcomeKind::kOk,
             entry.shard);
    // Fan the coalesced followers out onto the still-warm tile: the
    // module is resident there, so each follower's run skips the
    // reconfiguration ("program once").
    for (const FleetRequest& follower : entry.followers)
      start_run(entry.shard, ran_tile, follower, true);
    return;
  }
  shard.breaker->record_failure(now_);
  tile_breaker_ref(shard, ran_tile).record_failure(now_);
  complete(entry.request, OutcomeKind::kFailed, entry.shard);
  // The leader failed (e.g. its tile was quarantined mid-program): the
  // followers are NOT lost — they go back to the head of their class
  // queues and re-route, shed with a typed error, or fall back.
  for (auto it = entry.followers.rbegin(); it != entry.followers.rend();
       ++it) {
    ++stats_.coalesce_requeues;
    classes_[static_cast<int>(it->cls)].queue.push_front(*it);
  }
}

void FleetManager::complete(const FleetRequest& request, OutcomeKind kind,
                            int shard) {
  FleetOutcome outcome;
  outcome.request_id = request.id;
  outcome.cls = request.cls;
  outcome.kind = kind;
  outcome.shard = shard;
  outcome.completed_at = now_;
  outcome.latency = now_ - request.submitted_at;
  outcome.deadline_met = now_ <= request.deadline;
  switch (kind) {
    case OutcomeKind::kOk:
    case OutcomeKind::kCoalescedOk:
      ++stats_.completed_ok;
      break;
    case OutcomeKind::kFallback:
      ++stats_.completed_fallback;
      break;
    case OutcomeKind::kFailed:
      ++stats_.completed_failed;
      outcome.error = FleetError::kExecFailed;
      break;
    case OutcomeKind::kShed:
      break;  // recorded via shed()
  }
  if (!outcome.deadline_met) ++stats_.deadline_misses;
  counter("fleet.completed").add();
  trace::MetricsRegistry::global()
      .histogram("fleet.latency_cycles")
      .observe(static_cast<double>(outcome.latency));
  outcomes_.push_back(std::move(outcome));
}

void FleetManager::shed(const FleetRequest& request, FleetError error) {
  ++stats_.shed_total;
  ++stats_.shed_by_reason[static_cast<int>(error)];
  counter("fleet.shed").add();
  FleetOutcome outcome;
  outcome.request_id = request.id;
  outcome.cls = request.cls;
  outcome.kind = OutcomeKind::kShed;
  outcome.error = error;
  outcome.completed_at = now_;
  outcomes_.push_back(std::move(outcome));
  trace::sim_instant(trace::Category::kFleet,
                     std::string("fleet.shed ") + to_string(error), now_,
                     trace::kTrackFleet,
                     static_cast<double>(request.id));
}

void FleetManager::shed_or_fallback(const FleetRequest& request,
                                    FleetError error) {
  if (request.cls == QosClass::kBestEffort) {
    // Graceful degradation: best-effort work takes the modeled software
    // path (the WAMI pipeline's CPU implementation of the kernel)
    // instead of being rejected.
    counter("fleet.fallbacks").add();
    trace::sim_instant(trace::Category::kFleet, "fleet.fallback", now_,
                       trace::kTrackFleet,
                       static_cast<double>(request.id));
    fallbacks_.push_back(
        {request,
         now_ + static_cast<sim::Time>(topology_.fallback_latency_cycles)});
    return;
  }
  shed(request, error);
}

bool FleetManager::idle() const {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  if (!inflight_.empty() || !fallbacks_.empty()) return false;
  for (const ClassQueue& cq : classes_) {
    if (!cq.queue.empty()) return false;
  }
  return true;
}

bool FleetManager::drain(int max_quanta) {
  for (int i = 0; i < max_quanta && !idle(); ++i) step();
  if (!idle()) {
    // Out of budget: terminate what is left with a typed shed so the
    // conservation invariant still holds (nothing disappears silently).
    std::lock_guard<std::mutex> lock(ops_mutex_);
    for (ClassQueue& cq : classes_) {
      while (!cq.queue.empty()) {
        shed(cq.queue.front(), FleetError::kSaturated);
        cq.queue.pop_front();
      }
    }
    for (const PendingFallback& fb : fallbacks_)
      complete(fb.request, OutcomeKind::kFallback, -1);
    fallbacks_.clear();
  }
  return idle();
}

runtime::ReconfigurationManager& FleetManager::manager(int shard) {
  PRESP_REQUIRE(shard >= 0 && shard < num_shards(), "shard out of range");
  return *shards_[static_cast<std::size_t>(shard)]->manager;
}

BreakerState FleetManager::shard_breaker(int shard) const {
  PRESP_REQUIRE(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<std::size_t>(shard)]->breaker->state();
}

BreakerState FleetManager::tile_breaker(int shard, int tile) const {
  PRESP_REQUIRE(shard >= 0 && shard < num_shards(), "shard out of range");
  const auto& breakers =
      shards_[static_cast<std::size_t>(shard)]->tile_breakers;
  const auto it = breakers.find(tile);
  return it == breakers.end() ? BreakerState::kClosed : it->second->state();
}

int FleetManager::inflight(int shard) const {
  PRESP_REQUIRE(shard >= 0 && shard < num_shards(), "shard out of range");
  return shards_[static_cast<std::size_t>(shard)]->inflight;
}

FleetOpsSnapshot FleetManager::ops_snapshot() const {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  FleetOpsSnapshot snap;
  snap.now = now_;
  snap.stats = stats_;
  snap.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    FleetOpsSnapshot::ShardState state;
    state.breaker = shard->breaker->state();
    state.inflight = shard->inflight;
    for (const auto& [tile, breaker] : shard->tile_breakers)
      state.tile_breakers[tile] = breaker->state();
    state.tile_health = shard->manager->health().snapshot();
    snap.shards.push_back(std::move(state));
  }
  for (int c = 0; c < kNumQosClasses; ++c)
    snap.queued[c] = classes_[c].queue.size();
  for (const auto& [tenant, bucket] : tenants_)
    snap.tenant_tokens[tenant] = bucket.tokens;
  return snap;
}

std::string FleetManager::digest() const {
  std::lock_guard<std::mutex> lock(ops_mutex_);
  std::ostringstream out;
  out << "fleet now=" << now_ << " submitted=" << stats_.submitted
      << " ok=" << stats_.completed_ok
      << " fallback=" << stats_.completed_fallback
      << " failed=" << stats_.completed_failed << " shed=[";
  for (int e = 0; e < kNumFleetErrors; ++e)
    out << (e == 0 ? "" : ",") << stats_.shed_by_reason[e];
  out << "] coalesced=" << stats_.coalesced
      << " requeues=" << stats_.coalesce_requeues
      << " breaker=[" << stats_.breaker_opens << ","
      << stats_.breaker_half_opens << "," << stats_.breaker_closes << ","
      << stats_.breaker_reopens << "]"
      << " stalls=" << stats_.stall_quanta
      << " misses=" << stats_.deadline_misses;
  if (topology_.repack) {
    std::uint64_t migrations = 0, aborts = 0, failures = 0;
    out << " frag=[";
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const auto& shard = *shards_[s];
      migrations += shard.repacker->stats().migrations;
      aborts += shard.repacker->stats().aborts;
      failures += shard.repacker->stats().failures;
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f",
                    shard.plan->fragmentation().ratio());
      out << (s == 0 ? "" : ",") << buf;
    }
    out << "] repack=[" << migrations << "," << aborts << "," << failures
        << "]";
  }
  return out.str();
}

}  // namespace presp::fleet
