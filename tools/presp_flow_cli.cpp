// presp-flow: the command-line flow driver ("a single make target").
//
// Usage:
//   presp-flow <config.esp_config> [--no-physical] [--standard]
//              [--strategy serial|semi|fully] [--tau N]
//   presp-flow lint [--format=text|json] <config.esp_config>...
//
// Loads an ESP-style SoC configuration, registers the built-in
// accelerator libraries (characterization kernels + WAMI kernels), runs
// the PR-ESP flow against the configured device, and prints the
// implementation report including the floorplan and the comparison with
// the standard single-instance DPR flow.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/report.hpp"
#include "lint/cli.hpp"
#include "ops/server.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "floorplan/visualize.hpp"
#include "hls/library.hpp"
#include "hls/spec_io.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "netlist/config_io.hpp"
#include "util/log.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"
#include "wami/accelerators.hpp"

using namespace presp;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config.esp_config> [--no-physical] [--standard]\n"
               "          [--strategy serial|semi|fully] [--tau N]\n"
               "          [--report <file>] [--out <dir>] [-v]\n"
               "          [--trace <out.json>] [--trace-categories <csv>]\n"
               "          [--cache-dir <dir>] [--cache-max-bytes <N>]\n"
               "          [--cache-stats] [--threads N] [--ops-port N]\n",
               argv0);
  return 2;
}

/// A flag's integer value; nullopt when it is malformed or does not fit
/// in T.
template <typename T>
std::optional<T> int_flag(const char* text) {
  try {
    const long long value = parse_int(text);
    if (std::in_range<T>(value)) return static_cast<T>(value);
  } catch (const ConfigError&) {
  }
  return std::nullopt;
}

fabric::Device device_for(const std::string& name) {
  if (name == "vc707") return fabric::Device::vc707();
  if (name == "vcu118") return fabric::Device::vcu118();
  if (name == "vcu128") return fabric::Device::vcu128();
  throw InvalidArgument("unknown device '" + name +
                        "' (expected vc707|vcu118|vcu128)");
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::kWarn);
  if (argc < 2) return usage(argv[0]);
  if (std::strcmp(argv[1], "lint") == 0)
    return lint::run_lint_cli(std::vector<std::string>(argv + 2, argv + argc),
                              std::string(argv[0]) + " lint");

  std::string config_path;
  std::string report_path;
  std::string trace_path;
  std::string trace_categories;
  core::FlowOptions options;
  bool run_standard = false;
  bool cache_stats = false;
  std::optional<std::string> cache_dir_flag;
  std::optional<long long> cache_max_bytes_flag;
  std::optional<int> threads_flag;
  std::optional<int> ops_port_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--no-physical") {
      options.run_physical = false;
    } else if (arg == "--standard") {
      run_standard = true;
    } else if (arg == "-v") {
      set_log_level(LogLevel::kInfo);
    } else if (arg == "--strategy" && i + 1 < argc) {
      const std::string s = argv[++i];
      if (s == "serial") options.force_strategy = core::Strategy::kSerial;
      else if (s == "semi") options.force_strategy = core::Strategy::kSemiParallel;
      else if (s == "fully") options.force_strategy = core::Strategy::kFullyParallel;
      else return usage(argv[0]);
    } else if (arg == "--tau" && i + 1 < argc) {
      options.force_tau = int_flag<int>(argv[++i]);
      if (!options.force_tau) return usage(argv[0]);
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      options.artifacts_dir = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--trace-categories" && i + 1 < argc) {
      trace_categories = argv[++i];
    } else if (arg == "--cache-dir" && i + 1 < argc) {
      cache_dir_flag = argv[++i];
    } else if (arg == "--cache-max-bytes" && i + 1 < argc) {
      cache_max_bytes_flag = int_flag<long long>(argv[++i]);
      if (!cache_max_bytes_flag) return usage(argv[0]);
    } else if (arg == "--cache-stats") {
      cache_stats = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      threads_flag = int_flag<int>(argv[++i]);
      if (!threads_flag) return usage(argv[0]);
    } else if (arg == "--ops-port" && i + 1 < argc) {
      ops_port_flag = int_flag<int>(argv[++i]);
      if (!ops_port_flag) return usage(argv[0]);
    } else if (!arg.empty() && arg[0] != '-' && config_path.empty()) {
      config_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (config_path.empty()) return usage(argv[0]);

  try {
    std::ifstream config_file(config_path);
    if (!config_file) {
      std::fprintf(stderr, "presp-flow: cannot read %s\n",
                   config_path.c_str());
      return 1;
    }
    std::ostringstream config_text;
    config_text << config_file.rdbuf();
    const auto raw = Config::parse(config_text.str());
    const auto config = netlist::SocConfig::from_config(raw);
    const auto device = device_for(config.device);

    // [exec] section defaults; command-line flags win.
    options.exec_threads =
        raw.get_int32("exec", "threads", options.exec_threads);
    options.cache.dir = raw.get_or("exec", "cache_dir", options.cache.dir);
    options.cache.max_bytes = raw.get_int_or("exec", "cache_max_bytes",
                                             options.cache.max_bytes);
    if (threads_flag) options.exec_threads = *threads_flag;
    if (cache_dir_flag) options.cache.dir = *cache_dir_flag;
    if (cache_max_bytes_flag) options.cache.max_bytes = *cache_max_bytes_flag;

    // Live ops plane: [ops] section opts in; --ops-port forces it on.
    // The flow has no tile runtime, so /health reports null; /metrics,
    // /trace/summary and /events stream the exec engine's counters and
    // the live trace session. Stopped by the unique_ptr at scope exit.
    ops::OpsOptions ops_options = ops::OpsOptions::from_config(raw);
    if (ops_port_flag) {
      ops_options.enabled = true;
      ops_options.port = *ops_port_flag;
    }
    std::unique_ptr<ops::OpsServer> ops_server;
    if (ops_options.enabled) {
      ops_server = std::make_unique<ops::OpsServer>(ops_options);
      ops_server->start();
      std::printf("ops server on %s:%d\n", ops_options.bind.c_str(),
                  ops_server->port());
    }

    auto lib = netlist::ComponentLibrary::with_builtins();
    hls::register_characterization_kernels(lib);
    wami::register_wami_kernels(lib);
    // Custom accelerators defined next to the SoC ([accelerator <name>]).
    const auto custom = hls::register_kernels_from_config(raw, lib);
    for (const auto& spec : custom)
      std::printf("registered accelerator '%s' (%lld LUTs)\n",
                  spec.name.c_str(),
                  static_cast<long long>(
                      lib.get(spec.name).resources.luts));

    if (!trace_path.empty()) {
      trace::TraceConfig trace_config;
      if (!trace_categories.empty())
        trace_config.categories = trace::parse_categories(trace_categories);
      trace_config.sim_clock_mhz = config.clock_mhz;
      trace::TraceSession::instance().start(trace_config);
      trace::set_thread_name("main");
    }

    const core::PrEspFlow flow(device, lib, options);
    const auto result = flow.run(config);

    if (!trace_path.empty()) {
      const trace::TraceReport report =
          trace::TraceSession::instance().stop();
      trace::write_chrome_trace(report, trace_path);
      std::printf("trace: %zu events (%llu dropped) written to %s\n",
                  report.events.size(),
                  static_cast<unsigned long long>(report.dropped),
                  trace_path.c_str());
    }

    if (cache_stats) {
      if (result.cache_enabled) {
        const auto& cs = result.cache;
        std::printf(
            "cache %s: %llu hits, %llu misses, %llu stores, "
            "%llu evictions, %llu poisoned, %.1f MB on disk\n",
            options.cache.dir.c_str(),
            static_cast<unsigned long long>(cs.hits),
            static_cast<unsigned long long>(cs.misses),
            static_cast<unsigned long long>(cs.stores),
            static_cast<unsigned long long>(cs.evictions),
            static_cast<unsigned long long>(cs.poisoned),
            static_cast<double>(cs.bytes) / 1e6);
      } else {
        std::printf("cache: disabled (set --cache-dir or [exec] "
                    "cache_dir)\n");
      }
    }

    std::printf("design %s on %s\n", result.design.c_str(),
                device.name().c_str());
    std::printf("  class %s (kappa %.1f%%, alpha_av %.1f%%, gamma %.2f)\n",
                core::to_string(result.decision.design_class),
                result.metrics.kappa * 100, result.metrics.alpha_av * 100,
                result.metrics.gamma);
    std::printf("  strategy %s, tau=%d\n",
                core::to_string(result.decision.strategy),
                result.decision.tau);
    std::printf("  synth %.0f min, P&R %.0f min (t_static %.0f + omega "
                "%.0f), total %.0f min\n",
                result.synth_makespan_minutes, result.pnr_total_minutes,
                result.t_static_minutes, result.omega_minutes,
                result.total_minutes);
    if (options.run_physical) {
      std::printf("  physical: %s, fmax %.0f MHz (%s), full bitstream "
                  "%.1f MB\n",
                  result.physical_ok ? "routed" : "FAILED",
                  result.achieved_fmax_mhz,
                  result.timing_met ? "timing met" : "TIMING MISSED",
                  static_cast<double>(result.full_bitstream_bytes) / 1e6);
      TextTable table({"partition", "module", "LUTs", "pbs KB"});
      for (const auto& m : result.modules)
        table.add_row(
            {m.partition, m.module, TextTable::integer(m.utilization.luts),
             TextTable::num(
                 static_cast<double>(m.pbs_compressed_bytes) / 1024, 0)});
      std::printf("%s", table.render().c_str());
      std::printf("floorplan:\n%s",
                  floorplan::visualize(device, result.plan.pblocks)
                      .c_str());
    }
    if (!report_path.empty()) {
      core::write_flow_report(result, device, report_path);
      std::printf("report written to %s\n", report_path.c_str());
    }
    if (run_standard) {
      const auto standard = flow.run_standard(config);
      std::printf(
          "standard flow: synth %.0f + P&R %.0f = %.0f min "
          "(PR-ESP %+.1f%%)\n",
          standard.synth_minutes, standard.pnr_minutes,
          standard.total_minutes,
          100.0 * (standard.total_minutes - result.total_minutes) /
              standard.total_minutes);
    }
    return result.physical_ok || !options.run_physical ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "presp-flow: %s\n", e.what());
    return 1;
  }
}
