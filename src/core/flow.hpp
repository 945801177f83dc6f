// The PR-ESP FPGA flow (paper Fig. 1) and the standard-flow baseline.
//
// run() executes the full pipeline on an SoC configuration:
//   1. parse + elaborate (static / reconfigurable separation),
//   2. parallel out-of-context synthesis (static netlist with black boxes,
//      one OoC checkpoint per partition member),
//   3. DPR floorplanning (pblock per partition),
//   4. size-driven strategy selection (Table I + runtime model),
//   5. static-part P&R with placeholder macros, then per-instance
//      in-context P&R of every partition member per the chosen grouping,
//   6. full + partial (compressed) bitstream generation.
//
// Physical P&R (placer/router) runs once per design; the *CPU minutes*
// reported for every stage come from the calibrated runtime model, exactly
// as the real flow's minutes come from Vivado. evaluate_schedule() exposes
// the model composition so benches can sweep tau without re-running the
// physical engines.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/bitstream.hpp"
#include "core/flow_cache.hpp"
#include "core/runtime_model.hpp"
#include "core/strategy.hpp"
#include "floorplan/floorplanner.hpp"
#include "pnr/engine.hpp"
#include "synth/synthesis.hpp"

namespace presp::core {

struct FlowOptions {
  synth::SynthOptions synth;
  floorplan::FloorplanOptions floorplan;
  pnr::PnrOptions pnr;
  RuntimeModelConstants model;
  /// Worker threads for the flow's task graphs (OoC synthesis fan-out and
  /// the strategy-shaped P&R schedule). <= 1 executes the identical graphs
  /// serially on the calling thread; results are bit-identical either way.
  int exec_threads = 0;
  int semi_tau = 2;  // the paper's evaluation fixes tau = 2 for semi-par
  /// Override Table I (used by the parallelism sweeps of Tables III/IV).
  std::optional<Strategy> force_strategy;
  std::optional<int> force_tau;
  /// Skip the placer/router (model-only run; bitstreams are not produced).
  bool run_physical = true;
  /// When set (and run_physical), every partial bitstream is written to
  /// this directory as a .pbs artifact (see bitstream/artifact_io.hpp).
  std::string artifacts_dir;
  /// Content-hashed incremental artifact cache (core/flow_cache.hpp).
  /// cache.dir empty = caching disabled; a warm run with an unchanged
  /// stage key skips that stage's synthesis/P&R entirely and replays the
  /// cached artifact, with results bit-identical to a cold run.
  FlowCacheOptions cache;
};

struct ModuleImplementation {
  std::string partition;
  std::string module;
  fabric::ResourceVec utilization;
  /// In-context P&R minutes attributed to this module by the model.
  double pnr_minutes = 0.0;
  double synth_minutes = 0.0;
  bool routed = false;
  std::size_t pbs_raw_bytes = 0;
  std::size_t pbs_compressed_bytes = 0;
};

/// Measured (host wall-clock) execution of the flow's task graphs, the
/// empirical counterpart of the analytical runtime model: the modeled
/// schedule predicts CPU *minutes* per Vivado run, the exec report records
/// how the actual task graph executed on this machine's pool.
struct FlowExecReport {
  int threads = 1;        // pool width used (1 = serial reference)
  std::size_t tasks = 0;  // synthesis + P&R graph nodes executed
  double synth_wall_seconds = 0.0;  // synthesis graph makespan
  double pnr_wall_seconds = 0.0;    // P&R graph makespan
  double wall_seconds = 0.0;        // sum of graph makespans
  double busy_seconds = 0.0;        // serial-equivalent work in the graphs
  /// Tasks the pool's workers obtained by stealing (0 for serial runs).
  std::uint64_t steals = 0;
  /// Steal probes that found the victim's deque empty or lost the race.
  std::uint64_t steal_failures = 0;
  /// Times a worker parked on the idle condition variable.
  std::uint64_t parks = 0;
  /// High-water mark of the pool's pending-task count.
  std::uint64_t max_queue_depth = 0;
  /// busy / wall: the speedup the host task graphs achieved on the pool.
  /// The host P&R graph is `pnr:static` plus a flat member fan-out for
  /// every strategy, so this follows the pool width, not the strategy.
  double measured_speedup = 1.0;
  /// The modeled Vivado speedup: predicted serial P&R minutes over the
  /// predicted minutes of the chosen schedule (1.0 for the serial
  /// strategy), from evaluate_schedule. It does not cross-check
  /// busy / wall, since the host graph does not copy the schedule.
  double model_speedup = 1.0;
};

struct FlowResult {
  std::string design;
  SizeMetrics metrics;
  StrategyDecision decision;
  floorplan::Floorplan plan;
  /// Pblock per partition name.
  std::map<std::string, fabric::Pblock> pblocks;

  double synth_makespan_minutes = 0.0;
  double t_static_minutes = 0.0;
  /// max over parallel instances of (context overhead + module runs);
  /// zero for serial (folded into t_static + marginals).
  double omega_minutes = 0.0;
  double pnr_total_minutes = 0.0;
  double total_minutes = 0.0;  // synth + P&R

  std::vector<ModuleImplementation> modules;
  bool physical_ok = false;       // static + all partition runs routed
  std::size_t full_bitstream_bytes = 0;
  /// Worst achieved clock over the static run and every partition run
  /// (0 when run_physical is off).
  double achieved_fmax_mhz = 0.0;
  /// achieved_fmax_mhz meets the configuration's clock_mhz target.
  bool timing_met = false;
  FlowExecReport exec;
  /// Cache activity for this run (all zeros when caching is disabled).
  bool cache_enabled = false;
  FlowCacheStats cache;

  const ModuleImplementation& module(const std::string& partition,
                                     const std::string& module_name) const;
};

struct StandardFlowResult {
  std::string design;
  double synth_minutes = 0.0;
  double pnr_minutes = 0.0;
  double total_minutes = 0.0;
};

class PrEspFlow {
 public:
  PrEspFlow(const fabric::Device& device,
            const netlist::ComponentLibrary& lib, FlowOptions options = {});

  /// Full PR-ESP flow ("a single make target").
  FlowResult run(const netlist::SocConfig& config) const;

  /// Baseline: Xilinx's standard DPR flow in one Vivado instance.
  StandardFlowResult run_standard(const netlist::SocConfig& config) const;

  const RuntimeModel& model() const { return model_; }

 private:
  const fabric::Device& device_;
  const netlist::ComponentLibrary& lib_;
  FlowOptions options_;
  RuntimeModel model_;
};

struct ScheduleEval {
  double t_static = 0.0;
  double omega = 0.0;
  double total = 0.0;
};

/// Pure model composition for a (strategy, tau) choice over the given
/// module sizes; used for the parallelism sweeps.
ScheduleEval evaluate_schedule(const RuntimeModel& model,
                               long long static_luts,
                               long long static_region_luts,
                               const std::vector<long long>& module_luts,
                               Strategy strategy, int tau);

}  // namespace presp::core
