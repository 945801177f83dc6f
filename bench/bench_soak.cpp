// Soak driver: the long-running robustness soaks behind one entry point.
// Every scenario (soak_fleet, soak_defrag, soak_chaos) runs a range of
// seeds, then replays every seed in process and requires its printed
// row and a digest of everything it observed to come back bit-for-bit,
// so a nondeterminism names the seed it hit.
//
// Usage: bench_soak <fleet|defrag|chaos> [first_seed [num_seeds [horizon]]]
//                   [--json <path>] [--ops-port <n>]
// The horizon is quanta per seed for fleet and defrag, and planned
// faults per seed for chaos. `--json` (fleet, defrag) writes the soak's
// report, which the tier-1 golden stage diffs; `--ops-port` (fleet)
// serves live telemetry from the running soak. Misuse exits 2 with a
// usage message; a failed acceptance check or replay mismatch exits 1.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/load.hpp"
#include "netlist/netlist.hpp"
#include "ops/http.hpp"
#include "ops/server.hpp"
#include "ops/sources.hpp"
#include "soc/accelerator.hpp"
#include "wami/app.hpp"

using namespace presp;
using namespace presp::fleet;

namespace {

struct Args {
  std::uint64_t first_seed = 1;
  int num_seeds = 0;
  int horizon = 0;
  std::string json_path;  // empty: no report
  int ops_port = -1;      // < 0: no ops server
};

// ------------------------------------------------------------ the driver

/// A soak's JSON report: keys in print order, values already in JSON form.
using Report = std::vector<std::pair<std::string, std::string>>;

template <class T>
std::string json(const T& value) {
  std::ostringstream out;
  out << value;
  return out.str();
}
std::string json(bool value) { return value ? "true" : "false"; }

std::string count(std::uint64_t n) {
  return TextTable::integer(static_cast<long long>(n));
}

/// Exact nearest-rank percentile over a sorted sample vector.
long long percentile(const std::vector<long long>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size()));
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// What one seed shows: its table row and a digest of everything else it
/// observed. The replay of a seed must reproduce both.
struct SeedRun {
  std::vector<std::string> row;
  std::string digest;

  bool operator==(const SeedRun&) const = default;
  std::string describe() const {
    std::string out;
    for (const std::string& cell : row) out += cell + " ";
    return out + "| " + digest;
  }
};
using RunSeed = std::function<SeedRun(std::uint64_t seed, bool tally)>;

/// Runs every seed, tallied into the scenario's totals, and prints their
/// table.
std::vector<SeedRun> run_seeds(const Args& args,
                               std::vector<std::string> columns,
                               const RunSeed& run) {
  TextTable table(std::move(columns));
  std::vector<SeedRun> runs;
  for (int i = 0; i < args.num_seeds; ++i) {
    runs.push_back(run(args.first_seed + static_cast<std::uint64_t>(i), true));
    table.add_row(runs.back().row);
  }
  std::printf("%s\n", table.render().c_str());
  return runs;
}

/// Replays every seed, untallied; true when each one reproduced its row
/// and digest. A mismatch is printed with the seed it hit.
bool replay_seeds(const Args& args, const std::vector<SeedRun>& first,
                  const RunSeed& run) {
  bool identical = true;
  for (int i = 0; i < args.num_seeds; ++i) {
    const std::uint64_t seed = args.first_seed + static_cast<std::uint64_t>(i);
    const SeedRun replay = run(seed, false);
    const SeedRun& original = first[static_cast<std::size_t>(i)];
    if (replay == original) continue;
    identical = false;
    std::printf("determinism replay (seed %llu): MISMATCH\n  first : %s\n"
                "  replay: %s\n",
                static_cast<unsigned long long>(seed),
                original.describe().c_str(), replay.describe().c_str());
  }
  std::printf("determinism replay (seed%s %llu", args.num_seeds == 1 ? "" : "s",
              static_cast<unsigned long long>(args.first_seed));
  if (args.num_seeds > 1)
    std::printf("..%llu", static_cast<unsigned long long>(
                              args.first_seed + args.num_seeds - 1));
  std::printf("): %s\n", identical ? "identical" : "MISMATCH");
  return identical;
}

/// Writes the report if `--json` asked for one, prints the acceptance
/// line and returns the exit code: 0 only when every check passed and
/// every seed replayed identically.
int finish(const Args& args, Report report, const std::string& title,
           const std::vector<std::pair<std::string, bool>>& checks,
           bool deterministic) {
  bool ok = deterministic;
  if (!args.json_path.empty()) {
    report.insert(report.begin(), {{"first_seed", json(args.first_seed)},
                                   {"seeds", json(args.num_seeds)}});
    std::ofstream out(args.json_path);
    for (std::size_t i = 0; i < report.size(); ++i)
      out << (i == 0 ? "{\n  \"" : ",\n  \"") << report[i].first
          << "\": " << report[i].second;
    out << "\n}\n";
    out.close();
    ok = ok && static_cast<bool>(out);
    std::printf("bench_soak: %s %s\n", out ? "wrote" : "FAILED to write",
                args.json_path.c_str());
  }
  std::printf("%s:", title.c_str());
  for (std::size_t i = 0; i < checks.size(); ++i) {
    std::printf("%s%s: %s", i == 0 ? " " : "  ", checks[i].first.c_str(),
                checks[i].second ? "yes" : "NO");
    ok = ok && checks[i].second;
  }
  std::printf("\n");
  return ok ? 0 : 1;
}

// ------------------------------------------------ fleet scenarios' shard

// One shard: the smallest SoC with a reconfiguration controller and two
// reconfigurable tiles (grid indices 3 and 4) sharing both modules, so
// routing always has a sibling to divert to and the repacker an idle
// sibling region to compact.
const char* kShardSocText = R"(
[soc]
name = fleet_shard
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a,acc_b
r1c1 = reconf:acc_a,acc_b
r1c2 = empty
)";

soc::AcceleratorRegistry make_registry() {
  soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b"}) {
    soc::AcceleratorSpec spec;
    spec.name = name;
    spec.luts = 12'000;
    spec.latency.items_per_beat = 1;
    spec.latency.ii = 2;
    spec.latency.startup_cycles = 30;
    spec.latency.words_in_per_item = 1.0;
    spec.latency.words_out_per_item = 0.5;
    registry.add(spec);
  }
  return registry;
}

/// Everything one drained fleet seed leaves behind.
struct FleetRun {
  FleetStats stats;
  std::vector<long long> latencies;  // hardware completions, sorted
  bool drained = false;
  std::string digest;
};

/// Called with the live fleet once before the first quantum
/// (`done` false) and once after the drain (`done` true).
using FleetProbe = std::function<void(FleetManager& fleet, bool done)>;

/// The soak loop of both fleet scenarios: `quanta` quanta of seeded
/// open-loop arrivals (bursting when `injector` fires kBurstOverload),
/// then a drain.
FleetRun run_fleet(const FleetTopology& topo, std::uint64_t seed, int quanta,
                   fault::FaultInjector& injector,
                   const runtime::ManagerOptions& manager_options,
                   const FleetProbe& probe) {
  const netlist::SocConfig config = netlist::SocConfig::parse(kShardSocText);
  const soc::AcceleratorRegistry registry = make_registry();
  FleetManager fleet(topo, config, registry, seed, &injector,
                     manager_options);
  fleet.add_module("acc_a", 140'000);
  fleet.add_module("acc_b", 150'000);
  probe(fleet, false);

  LoadOptions load_options;
  load_options.seed = seed;
  load_options.arrivals_per_quantum = 1.0;
  load_options.modules = {"acc_a", "acc_b"};
  SyntheticLoad load(load_options);
  for (int q = 0; q < quanta; ++q) {
    std::vector<FleetRequest> batch =
        load.generate(fleet.now(), topo.burst_multiplier, &injector);
    if (load.burst_active()) fleet.note_burst_arrivals(batch.size());
    for (FleetRequest& request : batch) fleet.submit(std::move(request));
    fleet.step();
  }

  FleetRun run;
  // Budget covers the chained stalls plus every open->half-open backoff.
  run.drained = fleet.drain(4 * quanta + 2'000);
  run.stats = fleet.stats();
  for (const FleetOutcome& outcome : fleet.outcomes()) {
    if (outcome.kind == OutcomeKind::kOk ||
        outcome.kind == OutcomeKind::kCoalescedOk)
      run.latencies.push_back(static_cast<long long>(outcome.latency));
  }
  std::sort(run.latencies.begin(), run.latencies.end());
  std::ostringstream digest;
  digest << fleet.digest() << " generated=" << load.generated()
         << " drained=" << (run.drained ? 1 : 0);
  run.digest = digest.str();
  probe(fleet, true);
  return run;
}

// ---------------------------------------------------------------- fleet

/// What the ops overlay saw; all zero when the soak ran without one.
struct OpsResult {
  ops::OpsServer::Stats stats;
  std::uint64_t endpoint_checks = 0;
  std::uint64_t endpoint_failures = 0;
  std::uint64_t sse_received = 0;
  std::uint64_t sse_min = 0;
};

/// The live-ops overlay of the fleet soak: serves telemetry from the
/// running soak and hammers it with 8 concurrent SSE subscribers (client
/// 0 deliberately slow, with a shrunken receive window, to force ring
/// drops) plus a GET poller that validates the endpoints mid-soak. It is
/// stopped before the replay, which runs with no server at all, so
/// digest equality proves the observers perturbed nothing.
class OpsOverlay {
 public:
  static constexpr int kSseClients = 8;

  explicit OpsOverlay(int port) {
    ops::OpsOptions options;
    options.enabled = true;
    options.bind = "127.0.0.1";
    options.port = port;
    options.workers = kSseClients + 4;
    options.max_connections = kSseClients + 8;
    options.sse_buffer_events = 8;  // small ring: slow client must drop
    options.publish_interval_ms = 2;
    server_ = std::make_unique<ops::OpsServer>(options);
    server_->set_health_source([this] {
      std::lock_guard<std::mutex> lock(fleet_mutex_);
      return fleet_ == nullptr ? std::string("{\"health\":null}")
                               : ops::fleet_health_json(fleet_->ops_snapshot());
    });
    server_->start();
    const int bound = server_->port();
    std::printf("ops server on 127.0.0.1:%d (%d SSE clients, client 0 "
                "slow)\n\n",
                bound, kSseClients);
    for (int c = 0; c < kSseClients; ++c)
      sse_threads_.emplace_back([this, c, bound] {
        // Client 0: 300 ms between reads through a ~1 KiB receive
        // buffer, so the server-side worker blocks and its ring fills.
        // Once the soak is over it drains its backlog at full speed
        // (`drain_fast_`) so teardown is not paced by its slowness.
        sse_results_[static_cast<std::size_t>(c)] = ops::sse_stream(
            bound, "/events", c == 0 ? 300 : 0, 120'000, c == 0 ? 1024 : 0,
            &drain_fast_);
      });
    poller_ = std::thread([this, bound] {
      const char* targets[] = {"/metrics", "/health", "/trace/summary",
                               "/metrics/prometheus"};
      while (!poll_stop_.load(std::memory_order_relaxed)) {
        for (const char* target : targets) {
          int status = 0;
          std::string body;
          const bool ok = ops::http_get(bound, target, &status, &body) &&
                          status == 200 && !body.empty();
          const bool json_ok =
              std::string(target) == "/metrics/prometheus" || body[0] == '{';
          checks_.fetch_add(1, std::memory_order_relaxed);
          if (!ok || !json_ok)
            failures_.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
  ~OpsOverlay() {
    if (server_) stop();
  }
  OpsOverlay(const OpsOverlay&) = delete;
  OpsOverlay& operator=(const OpsOverlay&) = delete;

  /// Points /health at the fleet being soaked (nullptr between seeds).
  /// Server workers snapshot it under the same mutex, so a fleet can
  /// never be torn down with a snapshot in flight.
  void watch(FleetManager* fleet) {
    std::lock_guard<std::mutex> lock(fleet_mutex_);
    fleet_ = fleet;
  }

  /// Forces a slow-client drop if the soak did not, stops the server,
  /// joins every client and prints what the overlay saw.
  OpsResult stop() {
    // The soak itself usually overflows the slow client's ring; if the
    // timing was merciful, force the issue with a bounded burst of fat
    // probe events (the pump keeps publishing while client 0 sleeps on
    // a full receive window).
    for (int i = 0; i < 2'000 && server_->stats().sse_dropped == 0; ++i) {
      server_->publish("probe", std::string(4096, 'x'));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    poll_stop_.store(true, std::memory_order_relaxed);
    poller_.join();
    server_->stop();
    drain_fast_.store(true, std::memory_order_relaxed);
    for (std::thread& t : sse_threads_) t.join();
    OpsResult r;
    r.stats = server_->stats();
    server_.reset();
    r.endpoint_checks = checks_.load();
    r.endpoint_failures = failures_.load();
    r.sse_min = sse_results_[0].events;
    for (const ops::SseStreamResult& s : sse_results_) {
      r.sse_received += s.events;
      r.sse_min = std::min(r.sse_min, s.events);
    }
    std::printf("ops: %llu requests (%llu rejected)  %llu endpoint checks "
                "(%llu failed)  SSE: %llu published, %llu received across "
                "%d clients (min %llu), %llu dropped at slow consumers\n",
                static_cast<unsigned long long>(r.stats.requests),
                static_cast<unsigned long long>(r.stats.rejected),
                static_cast<unsigned long long>(r.endpoint_checks),
                static_cast<unsigned long long>(r.endpoint_failures),
                static_cast<unsigned long long>(r.stats.sse_published),
                static_cast<unsigned long long>(r.sse_received), kSseClients,
                static_cast<unsigned long long>(r.sse_min),
                static_cast<unsigned long long>(r.stats.sse_dropped));
    return r;
  }

 private:
  std::mutex fleet_mutex_;
  FleetManager* fleet_ = nullptr;
  std::unique_ptr<ops::OpsServer> server_;
  std::vector<ops::SseStreamResult> sse_results_ =
      std::vector<ops::SseStreamResult>(kSseClients);
  std::atomic<bool> poll_stop_{false};
  std::atomic<bool> drain_fast_{false};
  std::atomic<std::uint64_t> checks_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::vector<std::thread> sse_threads_;
  std::thread poller_;
};

FleetTopology fleet_topology() {
  FleetTopology topo;
  topo.shards = 4;
  topo.quantum_cycles = 4'000;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 90'000;
  topo.fallback_latency_cycles = 200'000;
  topo.stall_cycles = 240'000;  // 60 quanta per injected stall
  topo.burst_multiplier = 6;
  // Deadlines tight enough that a stalled shard visibly misses them; the
  // best-effort class is squeezed (short deadline, shallow queue) so its
  // software-fallback degradation path shows up in the soak.
  topo.classes[static_cast<int>(QosClass::kRealtime)].deadline_quanta = 60;
  topo.classes[static_cast<int>(QosClass::kStandard)].deadline_quanta = 150;
  topo.classes[static_cast<int>(QosClass::kBestEffort)].deadline_quanta = 100;
  topo.classes[static_cast<int>(QosClass::kBestEffort)].queue_bound = 48;
  topo.breaker.window = 8;
  topo.breaker.failure_threshold = 0.5;
  topo.breaker.open_base_cycles = 40'000;
  topo.breaker.open_max_cycles = 640'000;
  topo.breaker.half_open_probes = 2;
  return topo;
}

/// Seeded chaos plan for one fleet seed: two chained stalls wedge one
/// shard long enough for its breaker to open, a later stall hits a
/// second shard, two burst windows overload admission and a handful of
/// accelerator hangs exercise the watchdog/quarantine path underneath
/// the tile breakers.
void arm_fleet_chaos(fault::FaultInjector& injector, std::uint64_t seed,
                     int quanta, int shards) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const auto within = [&](int lo, int hi) {
    return static_cast<std::uint64_t>(
        lo + static_cast<int>(rng.next_below(
                 static_cast<std::uint64_t>(hi - lo))));
  };
  const int victim = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(shards)));
  // kShardStall is consulted once per quantum per non-stalled shard, so
  // trigger_count N fires at quantum N; a count-1 spec armed behind it
  // re-fires on the next consultation, chaining the stall.
  injector.arm({fault::FaultSite::kShardStall, victim, -1,
                within(10, quanta / 4 + 11)});
  injector.arm({fault::FaultSite::kShardStall, victim, -1, 1});
  injector.arm({fault::FaultSite::kShardStall, (victim + 1) % shards, -1,
                within(quanta / 2, quanta * 3 / 4 + 1)});
  // kBurstOverload is consulted once per quantum by the load generator.
  injector.arm({fault::FaultSite::kBurstOverload, -1, -1,
                within(5, quanta / 3 + 6)});
  injector.arm({fault::FaultSite::kBurstOverload, -1, -1,
                within(quanta / 3, quanta / 2 + 1)});
  for (int i = 0; i < 4; ++i)
    injector.arm({fault::FaultSite::kAccelHang, 3 + (i % 2), -1,
                  within(1, 16)});
}

/// Open-loop tenant load on a sharded DPR fleet under shard stalls, burst
/// overloads and accelerator hangs: admission, shedding, coalescing,
/// fallback and breakers. Fails on a lost completion, an unexplained shed
/// or an undrained fleet, and unless a stall froze a shard and a breaker
/// opened.
int soak_fleet(const Args& args) {
  bench::header("Fleet soak: sharded DPR service under stalls, bursts and "
                "hangs",
                "fleet robustness layer (DESIGN.md fleet service: admission, "
                "shedding, breakers)");
  std::optional<OpsOverlay> overlay;
  if (args.ops_port >= 0) overlay.emplace(args.ops_port);

  const FleetTopology topo = fleet_topology();
  FleetStats t;
  std::vector<long long> latencies;
  bool conserved = true;
  bool explained = true;
  bool drained = true;
  const RunSeed run = [&](std::uint64_t seed, bool tally) -> SeedRun {
    fault::FaultInjector injector;
    arm_fleet_chaos(injector, seed, args.horizon, topo.shards);
    runtime::ManagerOptions manager_options;
    manager_options.watchdog_run_cycles = 200'000;  // hang recovery: 50 quanta
    OpsOverlay* live = overlay && tally ? &*overlay : nullptr;
    const FleetRun r = run_fleet(
        topo, seed, args.horizon, injector, manager_options,
        [live](FleetManager& fleet, bool done) {
          if (live != nullptr) live->watch(done ? nullptr : &fleet);
        });
    const FleetStats& s = r.stats;
    if (tally) {
      conserved = conserved && s.conserved();
      explained = explained && s.sheds_explained();
      drained = drained && r.drained;
      t.submitted += s.submitted;
      t.completed_ok += s.completed_ok;
      t.completed_fallback += s.completed_fallback;
      t.completed_failed += s.completed_failed;
      t.shed_total += s.shed_total;
      for (int e = 0; e < kNumFleetErrors; ++e)
        t.shed_by_reason[e] += s.shed_by_reason[e];
      t.coalesced += s.coalesced;
      t.coalesce_requeues += s.coalesce_requeues;
      t.deadline_misses += s.deadline_misses;
      t.breaker_opens += s.breaker_opens;
      t.breaker_half_opens += s.breaker_half_opens;
      t.breaker_closes += s.breaker_closes;
      t.breaker_reopens += s.breaker_reopens;
      t.stall_quanta += s.stall_quanta;
      t.burst_arrivals += s.burst_arrivals;
      t.probe_rehabilitations += s.probe_rehabilitations;
      latencies.insert(latencies.end(), r.latencies.begin(),
                       r.latencies.end());
    }
    return {{count(seed), count(s.submitted), count(s.completed_ok),
             count(s.completed_fallback), count(s.completed_failed),
             count(s.shed_total), count(s.coalesced), count(s.breaker_opens),
             count(s.breaker_reopens), count(s.stall_quanta),
             TextTable::integer(percentile(r.latencies, 0.99))},
            r.digest};
  };
  const std::vector<SeedRun> first = run_seeds(
      args, {"seed", "submitted", "ok", "fallback", "failed", "shed",
             "coalesced", "opens", "reopens", "stalls", "p99 cycles"},
      run);

  std::sort(latencies.begin(), latencies.end());
  const long long p50 = percentile(latencies, 0.50);
  const long long p99 = percentile(latencies, 0.99);
  const long long p999 = percentile(latencies, 0.999);
  const auto rate = [&t](std::uint64_t n) {
    return t.submitted == 0 ? 0.0
                            : static_cast<double>(n) /
                                  static_cast<double>(t.submitted);
  };
  TextTable sheds({"shed reason", "count"});
  for (int e = 1; e < kNumFleetErrors; ++e)
    sheds.add_row({to_string(static_cast<FleetError>(e)),
                   count(t.shed_by_reason[e])});
  std::printf("%s\n", sheds.render().c_str());
  std::printf("latency (hardware completions, cycles): p50 %lld  p99 %lld  "
              "p999 %lld  (%zu samples)\n",
              p50, p99, p999, latencies.size());
  std::printf("shed rate %.4f  coalesce rate %.4f  deadline miss rate %.4f  "
              "breaker opens %llu (reopens %llu)  stall quanta %llu  "
              "fallbacks %llu\n",
              rate(t.shed_total), rate(t.coalesced), rate(t.deadline_misses),
              static_cast<unsigned long long>(t.breaker_opens),
              static_cast<unsigned long long>(t.breaker_reopens),
              static_cast<unsigned long long>(t.stall_quanta),
              static_cast<unsigned long long>(t.completed_fallback));
  const OpsResult ops = overlay ? overlay->stop() : OpsResult{};

  const bool deterministic = replay_seeds(args, first, run);
  const Report report = {
      {"quanta_per_seed", json(args.horizon)}, {"shards", json(topo.shards)},
      {"submitted", json(t.submitted)}, {"completed_ok", json(t.completed_ok)},
      {"completed_fallback", json(t.completed_fallback)},
      {"completed_failed", json(t.completed_failed)},
      {"shed_total", json(t.shed_total)},
      {"shed_rate", json(rate(t.shed_total))}, {"coalesced", json(t.coalesced)},
      {"coalesce_rate", json(rate(t.coalesced))},
      {"coalesce_requeues", json(t.coalesce_requeues)},
      {"p50_cycles", json(p50)}, {"p99_cycles", json(p99)},
      {"p999_cycles", json(p999)}, {"latency_samples", json(latencies.size())},
      {"deadline_miss_rate", json(rate(t.deadline_misses))},
      {"breaker_opens", json(t.breaker_opens)},
      {"breaker_half_opens", json(t.breaker_half_opens)},
      {"breaker_closes", json(t.breaker_closes)},
      {"breaker_reopens", json(t.breaker_reopens)},
      {"stall_quanta", json(t.stall_quanta)},
      {"burst_arrivals", json(t.burst_arrivals)},
      {"probe_rehabilitations", json(t.probe_rehabilitations)},
      {"deterministic", json(deterministic)},
      {"ops_enabled", json(overlay.has_value())},
      {"ops_requests", json(ops.stats.requests)},
      {"ops_rejected", json(ops.stats.rejected)},
      {"ops_endpoint_checks", json(ops.endpoint_checks)},
      {"ops_endpoint_failures", json(ops.endpoint_failures)},
      {"ops_sse_clients", json(ops.stats.sse_clients)},
      {"ops_sse_events", json(ops.stats.sse_published)},
      {"ops_sse_received", json(ops.sse_received)},
      {"ops_sse_dropped", json(ops.stats.sse_dropped)}};
  std::vector<std::pair<std::string, bool>> checks = {
      {"zero lost completions", conserved},
      {"sheds explained", explained},
      {"drained", drained},
      {"stalls injected", t.stall_quanta > 0},
      {"breaker diverted", t.breaker_opens >= 1},
      {"deterministic", deterministic}};
  // With the overlay, every endpoint probe must have got valid JSON
  // mid-soak, all 8 SSE clients must have received events, and the slow
  // client's drops must have been counted (never silent).
  if (overlay)
    checks.emplace_back(
        "ops overlay",
        ops.endpoint_failures == 0 && ops.endpoint_checks > 0 &&
            ops.stats.sse_clients >= OpsOverlay::kSseClients &&
            ops.sse_min > 0 && ops.stats.sse_dropped > 0);
  return finish(args, report, "acceptance", checks, deterministic);
}

// --------------------------------------------------------------- defrag

/// The defrag topology, with `repack` as the single variable under test.
/// Deadlines are deliberately generous: the comparison isolates what the
/// repacker changes, so no request may be shed or failed merely because
/// a migration held a tile lock for a few extra cycles.
FleetTopology defrag_topology(bool repack_on) {
  FleetTopology topo;
  topo.shards = 4;
  topo.quantum_cycles = 4'000;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 90'000;
  topo.fallback_latency_cycles = 200'000;
  for (auto& cls : topo.classes) {
    cls.deadline_quanta = 10'000;
    cls.queue_bound = 4'096;
  }
  topo.repack = repack_on;
  // One repack opportunity every other quantum; migrate on any
  // fragmentation at all so a short soak still shows strict improvement.
  topo.repack_interval_cycles = 2 * topo.quantum_cycles;
  topo.repack_frag_threshold = 0.0;
  return topo;
}

/// One fleet of a defrag seed, repacker on or off.
struct DefragRun {
  FleetRun fleet;
  double frag_before = 0.0;  // mean over shards, pre-soak
  double frag_after = 0.0;   // mean over shards, post-drain
  std::uint64_t migrations = 0;
  std::uint64_t aborts = 0;
  std::uint64_t failures = 0;
  /// Terminal workload outcome of every request, keyed by id and
  /// independent of timing, shard placement and coalescing: the on/off
  /// bit-identical comparison.
  std::string workload_digest;
};

double mean_frag(const FleetManager& fleet) {
  double sum = 0.0;
  for (int s = 0; s < fleet.num_shards(); ++s)
    sum += fleet.dynamic_floorplan(s) == nullptr
               ? 0.0
               : fleet.dynamic_floorplan(s)->fragmentation().ratio();
  return fleet.num_shards() == 0 ? 0.0 : sum / fleet.num_shards();
}

/// Outcome class for the tenant-visible digest. kOk and kCoalescedOk
/// collapse to the same class: whether a completion piggybacked on a
/// sibling's reconfiguration is a scheduling detail, not a result.
std::string outcome_class(const FleetOutcome& outcome) {
  switch (outcome.kind) {
    case OutcomeKind::kOk:
    case OutcomeKind::kCoalescedOk:
      return "ok";
    case OutcomeKind::kFallback:
      return "fallback";
    case OutcomeKind::kFailed:
      return "failed";
    case OutcomeKind::kShed:
      return "shed:" + std::to_string(static_cast<int>(outcome.error));
  }
  return "?";
}

DefragRun run_defrag(std::uint64_t seed, int quanta, bool repack_on) {
  // Chaos plane: aborts are thrown at the repacker mid-migration. They
  // target the repack path only, so the repack-off run (which never
  // consults kRepackAbort) sees the exact same workload either way.
  fault::FaultInjector injector;
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  for (int i = 0; i < 3; ++i)
    injector.arm({fault::FaultSite::kRepackAbort, -1, -1,
                  1 + static_cast<std::uint64_t>(rng.next_below(8))});

  DefragRun out;
  const auto probe = [&out](FleetManager& fleet, bool done) {
    if (!done) {
      out.frag_before = mean_frag(fleet);
      return;
    }
    out.frag_after = mean_frag(fleet);
    for (int s = 0; s < fleet.num_shards(); ++s) {
      if (fleet.repacker(s) == nullptr) continue;
      out.migrations += fleet.repacker(s)->stats().migrations;
      out.aborts += fleet.repacker(s)->stats().aborts;
      out.failures += fleet.repacker(s)->stats().failures;
    }
    // Retirement order is timing-dependent; key by request id so the
    // digest only changes if some request's terminal result changes.
    std::map<std::uint64_t, std::string> by_id;
    for (const FleetOutcome& outcome : fleet.outcomes())
      by_id[outcome.request_id] = outcome_class(outcome);
    for (const auto& [id, cls] : by_id)
      out.workload_digest += std::to_string(id) + "=" + cls + ";";
  };
  out.fleet =
      run_fleet(defrag_topology(repack_on), seed, quanta, injector, {}, probe);
  return out;
}

/// The same seeded churn against a repack-on and a repack-off fleet,
/// with kRepackAbort faults thrown at the repacker. Fails unless
/// fragmentation strictly improved with at least one migration, every
/// request's terminal outcome is identical on vs off, an abort fired, and
/// both fleets conserved, explained and drained.
int soak_defrag(const Args& args) {
  bench::header(
      "Defrag soak: background repacker vs identical repack-off replay",
      "online fabric defragmentation (DESIGN.md defrag: relocatable "
      "bitstreams, region split/merge, background repacker)");
  double frag_before_sum = 0.0;
  double frag_after_sum = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t aborts = 0;
  std::uint64_t failures = 0;
  std::vector<long long> lat_on;
  std::vector<long long> lat_off;
  bool all_identical = true;
  bool all_improved = true;
  bool all_sound = true;  // conserved + explained + drained, both runs
  bool chaos_fired = false;
  const RunSeed run = [&](std::uint64_t seed, bool tally) -> SeedRun {
    const DefragRun on = run_defrag(seed, args.horizon, true);
    const DefragRun off = run_defrag(seed, args.horizon, false);
    const bool identical = on.workload_digest == off.workload_digest;
    if (tally) {
      all_identical = all_identical && identical;
      all_improved =
          all_improved && on.migrations > 0 && on.frag_after < on.frag_before;
      for (const DefragRun* r : {&on, &off})
        all_sound = all_sound && r->fleet.stats.conserved() &&
                    r->fleet.stats.sheds_explained() && r->fleet.drained;
      chaos_fired = chaos_fired || on.aborts > 0;
      if (!identical)
        std::printf("seed %llu workload mismatch:\n  on : %s\n  off: %s\n",
                    static_cast<unsigned long long>(seed),
                    on.workload_digest.c_str(), off.workload_digest.c_str());
      frag_before_sum += on.frag_before;
      frag_after_sum += on.frag_after;
      migrations += on.migrations;
      aborts += on.aborts;
      failures += on.failures;
      lat_on.insert(lat_on.end(), on.fleet.latencies.begin(),
                    on.fleet.latencies.end());
      lat_off.insert(lat_off.end(), off.fleet.latencies.begin(),
                     off.fleet.latencies.end());
    }
    return {{count(seed), TextTable::num(on.frag_before, 3),
             TextTable::num(on.frag_after, 3), count(on.migrations),
             count(on.aborts),
             TextTable::integer(percentile(on.fleet.latencies, 0.99)),
             TextTable::integer(percentile(off.fleet.latencies, 0.99)),
             identical ? "yes" : "NO"},
            "on " + on.fleet.digest + " off " + off.fleet.digest};
  };
  const std::vector<SeedRun> first = run_seeds(
      args, {"seed", "frag before", "frag after", "migrations", "aborts",
             "p99 on", "p99 off", "identical"},
      run);

  std::sort(lat_on.begin(), lat_on.end());
  std::sort(lat_off.begin(), lat_off.end());
  const double frag_before = frag_before_sum / args.num_seeds;
  const double frag_after = frag_after_sum / args.num_seeds;
  const long long p99_on = percentile(lat_on, 0.99);
  const long long p99_off = percentile(lat_off, 0.99);
  std::printf("fragmentation (mean over shards and seeds): %.4f -> %.4f  "
              "migrations %llu  aborts %llu  failures %llu\n",
              frag_before, frag_after,
              static_cast<unsigned long long>(migrations),
              static_cast<unsigned long long>(aborts),
              static_cast<unsigned long long>(failures));
  std::printf("p99 completion latency: repack on %lld  off %lld  "
              "(delta %+lld cycles)\n",
              p99_on, p99_off, p99_on - p99_off);

  const bool deterministic = replay_seeds(args, first, run);
  const Report report = {
      {"quanta_per_seed", json(args.horizon)},
      {"shards", json(defrag_topology(true).shards)},
      {"frag_before", json(frag_before)}, {"frag_after", json(frag_after)},
      {"migrations", json(migrations)}, {"repack_aborts", json(aborts)},
      {"repack_failures", json(failures)}, {"p99_cycles_on", json(p99_on)},
      {"p99_cycles_off", json(p99_off)},
      {"latency_samples_on", json(lat_on.size())},
      {"latency_samples_off", json(lat_off.size())},
      {"bit_identical", json(all_identical)},
      {"frag_improved", json(all_improved)},
      {"deterministic", json(deterministic)}};
  return finish(args, report, "acceptance",
                {{"frag strictly improved", all_improved},
                 {"workload bit-identical on vs off", all_identical},
                 {"abort chaos fired", chaos_fired},
                 {"conserved/explained/drained", all_sound},
                 {"deterministic", deterministic}},
                deterministic);
}

// ---------------------------------------------------------------- chaos

/// The WAMI app under a seeded FaultPlan over the six SoC fault sites.
/// Fails on a lost frame, and at soak scale (>= 1000 planned faults)
/// unless at least 1000 faults landed across every SoC site; a shorter
/// sweep only needs faults to fire.
int soak_chaos(const Args& args) {
  bench::header("Chaos soak: WAMI under randomized cross-layer faults",
                "robustness layer (DESIGN.md fault model and recovery "
                "matrix)");
  constexpr int kFrames = 3;
  std::uint64_t by_site[fault::kNumFaultSites] = {};
  std::uint64_t injected = 0;
  std::uint64_t watchdogs = 0;
  std::uint64_t fallbacks = 0;
  long long recovery_cycles = 0;
  int frames_lost = 0;
  const RunSeed run = [&](std::uint64_t seed, bool tally) -> SeedRun {
    fault::FaultInjector injector;
    wami::WamiAppOptions opt;
    opt.frames = kFrames;
    opt.workload = {64, 64};
    opt.lk_iterations = 2;
    // Keep the run-watchdog far above any legitimate 64x64 kernel run but
    // well below the default so hung-run recovery latency stays visible in
    // per-frame milliseconds rather than dominating them.
    opt.manager.watchdog_run_cycles = 5'000'000;
    opt.fault.injector = &injector;
    opt.fault.cross_tile_images = true;
    opt.fault.scrub_between_frames = true;
    opt.fault.rehabilitate_between_frames = true;
    wami::WamiApp app('X', opt);

    fault::FaultPlanOptions plan_options;
    plan_options.seed = seed;
    plan_options.faults = args.horizon;
    for (const auto& tile : app.soc().reconf_tiles())
      plan_options.tiles.push_back(tile->index());
    plan_options.max_trigger_count = 12;
    const fault::FaultPlan plan(plan_options);
    plan.arm(injector);

    const wami::WamiAppResult r = app.run();
    const fault::FaultInjectorStats& faults = injector.stats();
    const long long recovery = app.manager().stats().recovery_cycles;
    std::ostringstream digest;
    digest << "sites=[";
    for (int s = 0; s < fault::kNumFaultSites; ++s) {
      digest << (s == 0 ? "" : ",") << faults.injected[s];
      if (tally) by_site[s] += faults.injected[s];
    }
    digest << "] reconf=" << r.reconfigurations
           << " recovery_cycles=" << recovery;
    if (tally) {
      injected += faults.total_injected();
      watchdogs += r.watchdog_fires;
      fallbacks += r.software_fallbacks;
      recovery_cycles += recovery;
      frames_lost += r.frames_lost;
    }
    // 78 MHz system clock (paper's VC707 system).
    return {{count(seed), count(plan.specs().size()),
             count(faults.total_injected()), count(r.software_fallbacks),
             count(r.watchdog_fires), count(r.reroutes), count(r.quarantines),
             count(r.scrub_repairs),
             TextTable::num(static_cast<double>(recovery) / 78e6 * 1e3, 2),
             TextTable::integer(r.frames_lost),
             TextTable::num(r.seconds_per_frame * 1e3, 2)},
            digest.str()};
  };
  const std::vector<SeedRun> first = run_seeds(
      args, {"seed", "armed", "injected", "fallbacks", "watchdogs", "reroutes",
             "quar", "scrubfix", "recov ms", "frames lost", "ms/frame"},
      run);

  TextTable sites({"site", "injected"});
  for (int s = 0; s < fault::kNumFaultSites; ++s)
    sites.add_row({to_string(static_cast<fault::FaultSite>(s)),
                   count(by_site[s])});
  sites.add_row({"total", count(injected)});
  std::printf("%s\n", sites.render().c_str());
  const double mean_recovery_ms =
      watchdogs == 0 ? 0.0
                     : static_cast<double>(recovery_cycles) /
                           static_cast<double>(watchdogs) / 78e6 * 1e3;
  std::printf("frames: %d  lost: %d  fallback executions: %llu  "
              "mean recovery latency: %.2f ms/watchdog\n",
              kFrames * args.num_seeds, frames_lost,
              static_cast<unsigned long long>(fallbacks), mean_recovery_ms);

  const bool deterministic = replay_seeds(args, first, run);
  const bool full_soak = static_cast<std::uint64_t>(args.num_seeds) *
                             static_cast<std::uint64_t>(args.horizon) >=
                         1000;
  // Coverage only over the SoC-model sites: the fleet-level sites have
  // zero weight in this plan and are exercised by the fleet scenarios.
  bool sites_covered = true;
  if (full_soak)
    for (int s = 0; s < fault::kNumSocFaultSites; ++s)
      sites_covered &= by_site[s] > 0;
  return finish(
      args, {}, full_soak ? "acceptance (soak)" : "acceptance (sweep)",
      {{full_soak ? "injected >=1000" : "injected >0",
        full_soak ? injected >= 1000 : injected > 0},
       {"all sites", sites_covered},
       {"zero frames lost", frames_lost == 0}},
      deterministic);
}

// ------------------------------------------------------------------ CLI

struct Scenario {
  const char* name;
  int (*soak)(const Args&);
  int seeds;
  int horizon;
  int min_horizon;
};
constexpr Scenario kScenarios[] = {
    {"fleet", soak_fleet, 4, 600, 50},
    {"defrag", soak_defrag, 3, 300, 40},
    {"chaos", soak_chaos, 16, 96, 1},
};
// Keeps the drain budget (4 * horizon + 2'000 quanta) inside an int.
constexpr int kMaxHorizon = 1'000'000;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "bench_soak: %s\n"
               "usage: bench_soak <fleet|defrag|chaos> "
               "[first_seed [num_seeds [horizon]]] [--json <path>] "
               "[--ops-port <n>]\n",
               error.c_str());
  std::exit(2);
}

template <class T>
T parse_number(const std::string& text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end)
    usage(std::string(what) + " must be a number, got '" + text + "'");
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" || arg == "--ops-port") {
      if (i + 1 >= argc || argv[i + 1][0] == '\0')
        usage(arg + " needs a value");
      if (arg == "--json") {
        args.json_path = argv[++i];
        continue;
      }
      args.ops_port = parse_number<int>(argv[++i], "--ops-port");
      if (args.ops_port < 0 || args.ops_port > 65'535)
        usage("--ops-port must be in 0..65535");
    } else if (arg.starts_with("-")) {
      usage("unknown flag '" + arg + "'");
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) usage("no scenario given");
  if (positional.size() > 4) usage("too many arguments");
  const Scenario* scenario = nullptr;
  for (const Scenario& s : kScenarios)
    if (positional[0] == s.name) scenario = &s;
  if (scenario == nullptr) usage("unknown scenario '" + positional[0] + "'");
  if (positional.size() > 1)
    args.first_seed = parse_number<std::uint64_t>(positional[1], "first_seed");
  args.num_seeds = positional.size() > 2
                       ? parse_number<int>(positional[2], "num_seeds")
                       : scenario->seeds;
  args.horizon = positional.size() > 3
                     ? parse_number<int>(positional[3], "horizon")
                     : scenario->horizon;
  if (args.num_seeds < 1) usage("num_seeds must be at least 1");
  if (args.horizon < scenario->min_horizon || args.horizon > kMaxHorizon)
    usage(std::string("the ") + scenario->name + " horizon must be in " +
          std::to_string(scenario->min_horizon) + ".." +
          std::to_string(kMaxHorizon));
  if (args.ops_port >= 0 && scenario->soak != soak_fleet)
    usage("--ops-port applies to the fleet scenario only");
  if (!args.json_path.empty() && scenario->soak == soak_chaos)
    usage("--json applies to the fleet and defrag scenarios only");
  return scenario->soak(args);
}
