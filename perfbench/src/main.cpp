// presp_perfbench: the repository benchmark (see perfbench/README.md).
//
//   presp_perfbench --workload <flow-cold|flow-edit|wami|fleet>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   --scratch <dir> [--tiny] [--sabotage <what>]
//
// Prints human-readable detail lines, then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer metrics; a
// metric a workload does not exercise reads 0.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/log.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares; test_perfbench.py keeps
// the two lists in step.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"op_ms", "ms"},
    {"alt_op_ms", "ms"},
};

const MetricSpec kPerLayer[] = {
    // Flow: traced replay of each build through the public stage APIs.
    {"netlist.elaborate_ms", "ms"},
    {"core.strategy_ms", "ms"},
    {"synth.ms", "ms"},
    {"synth.runs", "count"},
    {"floorplan.plan_ms", "ms"},
    {"floorplan.write_ms", "ms"},
    {"pnr.static_ms", "ms"},
    {"pnr.partition_ms", "ms"},
    {"pnr.runs", "count"},
    {"bitstream.full_ms", "ms"},
    {"bitstream.partial_ms", "ms"},
    {"bitstream.raw_mb", "MB"},
    {"bitstream.crc_ms", "ms"},
    {"bitstream.rle_ms", "ms"},
    {"bitstream.write_ms", "ms"},
    {"bitstream.write_mb", "MB"},
    {"flow_cache.store_ms", "ms"},
    {"flow_cache.load_ms", "ms"},
    {"flow_cache.hits", "count"},
    {"flow_cache.misses", "count"},
    {"flow_cache.stores", "count"},
    {"flow_cache.disk_mb", "MB"},
    {"exec.tasks", "count"},
    {"exec.steals", "count"},
    {"exec.steal_failures", "count"},
    {"exec.parks", "count"},
    {"exec.max_queue_depth", "count"},
    {"exec.busy_ms", "ms"},
    {"exec.wall_ms", "ms"},
    {"exec.speedup", "ratio"},
    {"flow.coverage_cold", "ratio"},
    {"flow.coverage_warm", "ratio"},
    {"flow.model_min", "min"},
    // WAMI on the simulated SoC and the golden software pipeline.
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"wami.datapath_ms_per_frame", "ms"},
    {"wami.verify_ms_per_frame", "ms"},
    {"wami.framegen_ms_per_frame", "ms"},
    {"wami.pipeline_serial_ms_per_frame", "ms"},
    {"wami.sim_ms_per_frame", "ms"},
    {"wami.sim_mj_per_frame", "mJ"},
    {"exec.pipeline_steals", "count"},
    {"exec.pipeline_parks", "count"},
    {"runtime.reconfigurations", "count"},
    {"runtime.reconfigurations_avoided", "count"},
    {"runtime.driver_swaps", "count"},
    {"runtime.prc_wait_cycles", "cycles"},
    {"runtime.lock_wait_cycles", "cycles"},
    {"runtime.reconfiguration_cycles", "cycles"},
    {"runtime.pipelined_fetches", "count"},
    {"runtime.icap_mb", "MB"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.fetch_wait_cycles", "cycles"},
    {"noc.flits", "count"},
    {"soc.energy_mj.baseline", "mJ"},
    {"soc.energy_mj.configured", "mJ"},
    {"soc.energy_mj.active", "mJ"},
    {"soc.energy_mj.icap", "mJ"},
    {"soc.energy_mj.noc", "mJ"},
    {"soc.energy_mj.dram", "mJ"},
    {"soc.energy_mj.cpu", "mJ"},
    // Fleet.
    {"fleet.loadgen_ms", "ms"},
    {"fleet.submit_ms", "ms"},
    {"fleet.step_ms", "ms"},
    {"fleet.drain_ms", "ms"},
    {"fleet.submitted", "count"},
    {"fleet.coalesced", "count"},
    {"fleet.fallbacks", "count"},
    {"fleet.deadline_misses", "count"},
    {"fleet.breaker_opens", "count"},
    {"fleet.shed.throttled", "count"},
    {"fleet.shed.tenant-throttled", "count"},
    {"fleet.shed.queue-full", "count"},
    {"fleet.shed.deadline-shed", "count"},
    {"fleet.shed.saturated", "count"},
    {"fleet.shed.shard-unavailable", "count"},
    {"fleet.shed.exec-failed", "count"},
    {"fleet.p99_cycles", "cycles"},
    {"fleet.p99_cycles_overload", "cycles"},
    {"fleet.goodput_per_kquanta", "count"},
    {"repacker.migrations", "count"},
    {"repacker.aborts", "count"},
    {"repacker.failures", "count"},
    {"floorplan.frag_ratio", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "presp_perfbench: %s\nusage: presp_perfbench --workload "
               "<flow-cold|flow-edit|wami|fleet> --seed <n> --seconds <s> "
               "--trace <0|1> --scratch <dir> [--tiny] [--sabotage <what>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--scratch") {
      options.scratch = value();
    } else if (arg == "--sabotage") {
      options.sabotage = value();
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.scratch.empty() ||
      !std::filesystem::is_directory(options.scratch))
    usage("--scratch must name an existing directory");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  options.pool_threads = static_cast<int>(std::min(4u, hw));
  return options;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  presp::set_log_level(presp::LogLevel::kWarn);
  const Options options = parse(argc, argv);
  Report report;
  try {
    if (options.workload == "flow-cold") {
      run_flow_cold(options, report);
    } else if (options.workload == "flow-edit") {
      run_flow_edit(options, report);
    } else if (options.workload == "wami") {
      run_wami(options, report);
    } else if (options.workload == "fleet") {
      run_fleet(options, report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    // An exception escaping a workload aborts its remaining operations.
    report.fail(std::string("workload aborted: ") + e.what());
  }
  if (!options.trace) report.set("peak_rss_mb", peak_rss_mb());

  const auto& metrics = report.metrics();
  const auto value_of = [&](const char* name) {
    const auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second;
  };
  std::printf("detail:");
  for (const auto& [name, value] : metrics)
    std::printf(" %s=%.6g", name.c_str(), value);
  std::printf("\n");
  for (const auto& [name, parts] : report.samples()) {
    for (const auto& [part, values] : parts) {
      std::printf("samples: %s %s", name.c_str(), part.c_str());
      for (const double v : values) std::printf(" %.6g", v);
      std::printf("\n");
    }
  }

  if (report.attempted() == 0) report.fail("no operation ran");
  const bool correct = report.failed() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  std::max(report.attempted(), report.failed())),
              static_cast<unsigned long long>(report.failed()));
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const double v = value_of(spec.name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", spec.name, std::isfinite(v) ? v : 0.0,
                spec.unit);
    first = false;
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  std::printf("}}\n");
  return 0;
}
