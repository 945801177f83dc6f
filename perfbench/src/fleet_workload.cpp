// Fleet workload: the fleet soak's 4-shard SoC with the background
// repacker on, fault-free, under seeded open-loop SyntheticLoad at two
// rates: nominal (0.5 arrivals per quantum) measures the service path and
// overload (1.25) measures shedding. Admission, dispatch, coalescing, the
// repacker and the runtime managers do the work; no flow or WAMI kernels.
//
// Every simulation of one rate replays the same seeded load, so each
// repetition must reproduce the first one's digest.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fleet/fleet.hpp"
#include "fleet/load.hpp"
#include "netlist/soc_config.hpp"
#include "soc/accelerator.hpp"

namespace perfbench {
namespace {

using namespace presp::fleet;

constexpr int kSetupRepeats = 5;
constexpr double kNominalRate = 0.5;
constexpr double kOverloadRate = 1.25;

// The fleet soak's shard: two reconfigurable tiles sharing both modules.
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

presp::soc::AcceleratorRegistry make_registry() {
  presp::soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b"}) {
    presp::soc::AcceleratorSpec spec;
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

/// The soak topology with repacking on.
FleetTopology topology() {
  FleetTopology topo;
  topo.shards = 4;
  topo.quantum_cycles = 4'000;
  topo.repack = true;
  topo.repack_interval_cycles = 2 * topo.quantum_cycles;
  topo.repack_frag_threshold = 0.0;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 90'000;
  topo.fallback_latency_cycles = 200'000;
  topo.stall_cycles = 240'000;
  topo.burst_multiplier = 6;
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

struct Fixture {
  presp::netlist::SocConfig config;
  presp::soc::AcceleratorRegistry registry;
};

std::unique_ptr<FleetManager> make_fleet(const Fixture& fx,
                                         std::uint64_t seed) {
  auto fleet = std::make_unique<FleetManager>(topology(), fx.config,
                                              fx.registry, seed);
  fleet->add_module("acc_a", 140'000);
  fleet->add_module("acc_b", 150'000);
  return fleet;
}

/// One simulation: `quanta` quanta of arrivals, then a drain.
struct Sim {
  double ms = 0.0;  // host time of generate + submit + step + drain
  double quanta = 0.0;  // quanta stepped, drain included
  Spans spans;
  FleetStats stats;
  std::vector<FleetOutcome> outcomes;
  std::uint64_t generated = 0;
  bool drained = false;
  std::string digest;
  std::map<std::string, double> layers;  // runtime/repacker/floorplan sums
};

Sim simulate(const Fixture& fx, std::uint64_t seed, double rate, int quanta,
             bool traced) {
  const std::unique_ptr<FleetManager> fleet = make_fleet(fx, seed);
  LoadOptions load_options;
  load_options.seed = seed;
  load_options.arrivals_per_quantum = rate;
  load_options.modules = {"acc_a", "acc_b"};
  SyntheticLoad load(load_options);

  Sim sim;
  const Clock::time_point t0 = Clock::now();
  if (traced) {
    for (int q = 0; q < quanta; ++q) {
      std::vector<FleetRequest> batch = sim.spans.time(
          "loadgen", [&] { return load.generate(fleet->now(), 1, nullptr); });
      sim.spans.time("submit", [&] {
        for (FleetRequest& r : batch) fleet->submit(std::move(r));
      });
      sim.spans.time("step", [&] { fleet->step(); });
    }
    sim.drained =
        sim.spans.time("drain", [&] { return fleet->drain(4 * quanta + 2'000); });
  } else {
    for (int q = 0; q < quanta; ++q) {
      for (FleetRequest& r : load.generate(fleet->now(), 1, nullptr))
        fleet->submit(std::move(r));
      fleet->step();
    }
    sim.drained = fleet->drain(4 * quanta + 2'000);
  }
  sim.ms = ms_since(t0);
  sim.quanta = static_cast<double>(fleet->now()) /
               static_cast<double>(fleet->topology().quantum_cycles);
  sim.stats = fleet->stats();
  sim.outcomes = fleet->outcomes();
  sim.generated = load.generated();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const FleetOutcome& o : sim.outcomes)
    for (const std::uint64_t v :
         {o.request_id, static_cast<std::uint64_t>(o.kind),
          static_cast<std::uint64_t>(o.error),
          static_cast<std::uint64_t>(o.shard + 1), o.completed_at, o.latency})
      h = mix(h, v);
  sim.digest = fleet->digest() + " generated=" + std::to_string(sim.generated) +
               " outcomes=" + std::to_string(h);

  auto& m = sim.layers;
  for (int s = 0; s < fleet->num_shards(); ++s) {
    const auto& ms = fleet->manager(s).stats();
    m["runtime.reconfigurations"] += static_cast<double>(ms.reconfigurations);
    m["runtime.reconfigurations_avoided"] +=
        static_cast<double>(ms.reconfigurations_avoided);
    m["runtime.driver_swaps"] += static_cast<double>(ms.driver_swaps);
    m["runtime.prc_wait_cycles"] += static_cast<double>(ms.prc_wait_cycles);
    m["runtime.lock_wait_cycles"] += static_cast<double>(ms.lock_wait_cycles);
    m["runtime.reconfiguration_cycles"] +=
        static_cast<double>(ms.reconfiguration_cycles);
    m["runtime.pipelined_fetches"] += static_cast<double>(ms.pipelined_fetches);
    if (const auto* repacker = fleet->repacker(s)) {
      m["repacker.migrations"] += static_cast<double>(repacker->stats().migrations);
      m["repacker.aborts"] += static_cast<double>(repacker->stats().aborts);
      m["repacker.failures"] += static_cast<double>(repacker->stats().failures);
    }
    if (const auto* plan = fleet->dynamic_floorplan(s))
      m["floorplan.frag_ratio"] +=
          plan->fragmentation().ratio() / fleet->num_shards();
  }
  return sim;
}

/// Exact nearest-rank percentile of hardware-completion latency.
double p99_cycles(const std::vector<FleetOutcome>& outcomes) {
  std::vector<long long> latencies;
  for (const FleetOutcome& o : outcomes)
    if (o.kind == OutcomeKind::kOk || o.kind == OutcomeKind::kCoalescedOk)
      latencies.push_back(static_cast<long long>(o.latency));
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t rank = static_cast<std::size_t>(
      0.99 * static_cast<double>(latencies.size()));
  return static_cast<double>(latencies[std::min(rank, latencies.size() - 1)]);
}

double goodput_per_kquanta(const Sim& sim) {
  double met = 0;
  for (const FleetOutcome& o : sim.outcomes)
    if (o.kind != OutcomeKind::kShed && o.kind != OutcomeKind::kFailed &&
        o.deadline_met)
      ++met;
  return met * 1000.0 / sim.quanta;
}

/// Conservation, explained sheds, one terminal outcome per request and an
/// identical digest on every replay of the same load. A request without
/// exactly one outcome is a failed operation; a run-level violation fails
/// every request of the run.
void check_sim(const Options& options, Report& report, Sim& sim,
               std::optional<std::string>& reference, const std::string& what) {
  report.attempt(sim.stats.submitted);
  if (options.sabotage == "drop-outcome" && !sim.outcomes.empty())
    sim.outcomes.pop_back();
  // Request ids run 1..generated.
  std::vector<int> seen(sim.generated + 1, 0);
  seen[0] = 1;
  std::uint64_t unexplained = 0;
  for (const FleetOutcome& o : sim.outcomes) {
    if (o.request_id < seen.size()) seen[o.request_id] += o.request_id > 0;
    if (o.kind == OutcomeKind::kShed && o.error == FleetError::kNone)
      ++unexplained;
  }
  std::uint64_t lost = 0;
  for (const int n : seen) lost += n == 1 ? 0 : 1;
  if (lost > 0)
    report.fail(what + ": " + std::to_string(lost) +
                    " requests without exactly one outcome",
                lost);
  if (unexplained > 0) report.fail(what + ": sheds without a reason", unexplained);
  const bool run_ok = sim.stats.conserved() && sim.stats.sheds_explained() &&
                      sim.drained && sim.generated == sim.stats.submitted;
  if (!run_ok)
    report.fail(what + ": not conserved, unexplained sheds or not drained",
                sim.stats.submitted);
  if (!reference) reference = sim.digest;
  if (sim.digest != *reference)
    report.fail(what + ": replay digest differs", sim.stats.submitted);
}

}  // namespace

void run_fleet(const Options& options, Report& report) {
  std::vector<double> seconds;
  std::optional<Fixture> fx;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fx.emplace(Fixture{presp::netlist::SocConfig::parse(kShardSocText),
                       make_registry()});
    make_fleet(*fx, options.seed);
    seconds.push_back(ms_since(t0) / 1e3);
  }
  report.set("setup_s", median(seconds));

  // Long enough that the seed's arrival mix barely moves the per-quantum
  // cost, short enough for ~20 repetitions per rate in a run.
  const int quanta = options.tiny ? 200 : 6'000;
  // Overload draws its own stream so the two rates share no arrivals.
  const std::uint64_t seeds[2] = {options.seed, options.seed + 0x5eed};
  const double rates[2] = {kNominalRate, kOverloadRate};
  const char* names[2] = {"nominal", "overload"};
  std::optional<std::string> reference[2];
  Report::PartSamples host_ms_per_kq;
  std::map<std::string, std::vector<double>> samples;
  const Clock::time_point start = Clock::now();
  for (int it = 0; !out_of_time(start, options, it); ++it) {
    std::map<std::string, double> m;
    double total_quanta = 0;
    for (int r = 0; r < 2; ++r) {
      Sim sim = simulate(*fx, seeds[r], rates[r], quanta, options.trace);
      check_sim(options, report, sim, reference[r], names[r]);
      host_ms_per_kq[names[r]].push_back(sim.ms * 1000.0 / sim.quanta);
      total_quanta += sim.quanta;
      if (r == 0) {
        m["fleet.p99_cycles"] = p99_cycles(sim.outcomes);
      } else {
        m["fleet.p99_cycles_overload"] = p99_cycles(sim.outcomes);
        m["fleet.goodput_per_kquanta"] = goodput_per_kquanta(sim);
      }
      for (const char* span : {"loadgen", "submit", "step", "drain"})
        m[std::string("fleet.") + span + "_ms"] += sim.spans.ms(span);
      m["fleet.submitted"] += static_cast<double>(sim.stats.submitted);
      m["fleet.coalesced"] += static_cast<double>(sim.stats.coalesced);
      m["fleet.fallbacks"] += static_cast<double>(sim.stats.completed_fallback);
      m["fleet.deadline_misses"] += static_cast<double>(sim.stats.deadline_misses);
      m["fleet.breaker_opens"] += static_cast<double>(sim.stats.breaker_opens);
      for (int e = 1; e < kNumFleetErrors; ++e)
        m[std::string("fleet.shed.") + to_string(static_cast<FleetError>(e))] +=
            static_cast<double>(sim.stats.shed_by_reason[e]);
      for (const auto& [name, value] : sim.layers)
        m[name] += name == "floorplan.frag_ratio" ? value / 2.0 : value;
    }
    // Layer times per 1000 quanta, both rates together.
    for (const char* span : {"loadgen", "submit", "step", "drain"})
      m[std::string("fleet.") + span + "_ms"] *= 1000.0 / total_quanta;
    for (const auto& [name, value] : m) samples[name].push_back(value);
  }

  if (options.trace) {
    for (const auto& [name, values] : samples) report.set(name, median(values));
  } else {
    report.set_best("op_ms", {{names[0], host_ms_per_kq[names[0]]}});
    report.set_best("alt_op_ms", {{names[1], host_ms_per_kq[names[1]]}});
    for (const char* name : {"fleet.p99_cycles", "fleet.p99_cycles_overload",
                             "fleet.goodput_per_kquanta", "fleet.submitted"})
      report.set(name, median(samples[name]));
  }
}

}  // namespace perfbench
