// WAMI workload: the WAMI application on SoC_X, SoC_Y and SoC_Z (128x128
// frames, 2 Lucas-Kanade iterations, functional execution with bit-exact
// verification of every frame, as examples/wami_app runs it), then the
// golden software pipeline over the same frames on the pool.
//
// No flow code runs: the simulator kernel, SoC, NoC, runtime manager,
// bitstream store and WAMI kernels do all the work. The seed draws the
// aerial scene (sensor drift, movers, noise); simulated time does not
// depend on pixel values, so the Fig. 4 figures repeat on every seed.
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "util/rng.hpp"
#include "wami/app.hpp"
#include "wami/frame_generator.hpp"
#include "wami/pipeline.hpp"

namespace perfbench {
namespace {

using presp::wami::AffineParams;
using presp::wami::WamiApp;
using presp::wami::WamiAppOptions;

constexpr char kSocs[] = {'X', 'Y', 'Z'};
constexpr int kSetupRepeats = 5;

presp::wami::SceneOptions scene_for(std::uint64_t seed) {
  presp::Rng rng(seed ^ 0x57a3e1d5ULL);
  presp::wami::SceneOptions scene;
  scene.seed = seed;
  scene.drift_x = rng.next_double(0.6, 1.6);
  scene.drift_y = -rng.next_double(0.3, 1.1);
  scene.num_objects = static_cast<int>(rng.next_int(2, 5));
  scene.object_speed = rng.next_double(1.5, 3.0);
  return scene;
}

WamiAppOptions app_options(const Options& options, bool functional,
                           bool verify) {
  WamiAppOptions opt;
  opt.workload = {128, 128};
  opt.frames = options.tiny ? 2 : 6;
  opt.lk_iterations = 2;
  opt.functional = functional;
  opt.verify = verify;
  opt.scene = scene_for(options.seed);
  return opt;
}

std::uint64_t params_digest(const AffineParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double p : params) h = mix(h, bits_of(p));
  return h;
}

/// Cross-run oracles: the final registration parameters are a function of
/// the frames alone, so every SoC and every repetition must agree bit for
/// bit, and so must the golden pipeline at any pool width (it registers
/// differently from the SoC's kernel graph, so it has its own reference);
/// simulated time and energy must repeat exactly.
struct Oracle {
  std::optional<std::uint64_t> soc_params;
  std::optional<std::uint64_t> pipeline_params;
  std::optional<std::pair<double, double>> sim[3];

  static void agree(Report& report, std::optional<std::uint64_t>& reference,
                    const AffineParams& p, const std::string& what) {
    const std::uint64_t d = params_digest(p);
    if (!reference) reference = d;
    report.check(d == *reference, what + ": final parameters differ");
  }
};

struct AppRun {
  presp::wami::WamiAppResult result;
  double ms = 0.0;
  std::uint64_t events = 0;
  presp::runtime::ManagerStats manager;
  presp::runtime::StoreStats store;
  std::uint64_t flits = 0;
};

AppRun run_app(char which, const WamiAppOptions& opt) {
  WamiApp app(which, opt);
  AppRun run;
  const Clock::time_point t0 = Clock::now();
  run.result = app.run();
  run.ms = ms_since(t0);
  run.events = app.soc().kernel().events_executed();
  run.manager = app.manager().stats();
  run.store = app.store().stats();
  for (int p = 0; p < presp::noc::kNumPlanes; ++p)
    run.flits += app.soc().noc().stats(static_cast<presp::noc::Plane>(p)).flits;
  return run;
}

/// Checks one verified run: every frame bit-exact, parameters agreeing,
/// simulated time and energy repeating.
void check_app(const Options& options, Report& report, Oracle& oracle,
               int soc_index, AppRun& run) {
  const std::string what = std::string("SoC_") + kSocs[soc_index];
  const auto frames = static_cast<std::uint64_t>(run.result.frames.size());
  report.attempt(frames);
  std::uint64_t lost = 0;
  for (const auto& frame : run.result.frames) lost += frame.verified ? 0 : 1;
  if (lost > 0) report.fail(what + ": frames failed bit-exact verification", lost);
  if (options.sabotage == "skew-params" && soc_index == 1)
    run.result.params[0] += 1e-9;
  Oracle::agree(report, oracle.soc_params, run.result.params, what);
  const std::pair<double, double> sim{run.result.seconds_per_frame,
                                      run.result.joules_per_frame};
  auto& expected = oracle.sim[soc_index];
  if (!expected) expected = sim;
  report.check(sim == *expected, what + ": simulated time/energy moved");
}

std::vector<presp::wami::ImageU16> frames_for(const WamiAppOptions& opt) {
  presp::wami::SceneOptions scene = opt.scene;
  scene.width = opt.workload.width;
  scene.height = opt.workload.height;
  presp::wami::FrameGenerator generator(scene);
  std::vector<presp::wami::ImageU16> frames;
  for (int f = 0; f < opt.frames; ++f) frames.push_back(generator.next_frame());
  return frames;
}

struct PipelineRun {
  double ms = 0.0;
  presp::exec::ThreadPool::Stats pool;
};

PipelineRun run_pipeline(Report& report, Oracle& oracle,
                         const std::vector<presp::wami::ImageU16>& frames,
                         int threads) {
  presp::wami::PipelineOptions popt;
  popt.lk_iterations = 2;
  popt.threads = threads;
  presp::wami::WamiPipeline pipeline(popt);
  PipelineRun run;
  const Clock::time_point t0 = Clock::now();
  pipeline.process_batch(frames);
  run.ms = ms_since(t0);
  run.pool = pipeline.pool_stats();
  report.attempt(frames.size());
  Oracle::agree(report, oracle.pipeline_params, pipeline.params(),
                "pipeline at " + std::to_string(threads) + " threads");
  return run;
}

void set_fig4(Report& report, const Oracle& oracle) {
  double ms = 0.0;
  double mj = 0.0;
  for (const auto& sim : oracle.sim) {
    if (!sim) return;
    ms += sim->first * 1e3 / 3.0;
    mj += sim->second * 1e3 / 3.0;
  }
  report.set("wami.sim_ms_per_frame", ms);
  report.set("wami.sim_mj_per_frame", mj);
}

void wami_e2e(const Options& options, Report& report) {
  const WamiAppOptions opt = app_options(options, true, true);
  const auto frames = frames_for(opt);
  Oracle oracle;
  Report::PartSamples app_ms;
  Report::PartSamples pipeline_ms;
  const Clock::time_point start = Clock::now();
  for (int it = 0; !out_of_time(start, options, it); ++it) {
    for (int s = 0; s < 3; ++s) {
      AppRun run = run_app(kSocs[s], opt);
      app_ms[std::string("SoC_") + kSocs[s]].push_back(run.ms / opt.frames);
      check_app(options, report, oracle, s, run);
    }
    const PipelineRun pooled =
        run_pipeline(report, oracle, frames, options.pool_threads);
    pipeline_ms["pipeline"].push_back(pooled.ms / opt.frames);
  }
  report.set_best("op_ms", app_ms, 1.0 / 3.0);
  report.set_best("alt_op_ms", pipeline_ms);
  set_fig4(report, oracle);
}

void wami_traced(const Options& options, Report& report) {
  const WamiAppOptions timing = app_options(options, false, false);
  const WamiAppOptions no_verify = app_options(options, true, false);
  const WamiAppOptions full = app_options(options, true, true);
  const auto frames = frames_for(full);
  const double per_frame = 3.0 * full.frames;
  Oracle oracle;
  std::map<std::string, std::vector<double>> samples;
  const Clock::time_point start = Clock::now();
  for (int it = 0; !out_of_time(start, options, it); ++it) {
    std::map<std::string, double> m;
    double t_timing = 0, t_datapath = 0, t_full = 0;
    double events = 0;
    for (int s = 0; s < 3; ++s) {
      const char which = kSocs[s];
      const AppRun a = run_app(which, timing);
      const AppRun b = run_app(which, no_verify);
      AppRun c = run_app(which, full);
      check_app(options, report, oracle, s, c);
      report.check(a.events == c.events && b.events == c.events &&
                       a.result.seconds_per_frame == c.result.seconds_per_frame,
                   std::string("SoC_") + which +
                       ": timing-only run simulated differently");
      t_timing += a.ms;
      t_datapath += b.ms - a.ms;
      t_full += c.ms - b.ms;
      events += static_cast<double>(a.events);

      const auto& ms = c.manager;
      m["runtime.reconfigurations"] += static_cast<double>(ms.reconfigurations);
      m["runtime.reconfigurations_avoided"] +=
          static_cast<double>(ms.reconfigurations_avoided);
      m["runtime.driver_swaps"] += static_cast<double>(ms.driver_swaps);
      m["runtime.prc_wait_cycles"] += static_cast<double>(ms.prc_wait_cycles);
      m["runtime.lock_wait_cycles"] += static_cast<double>(ms.lock_wait_cycles);
      m["runtime.reconfiguration_cycles"] +=
          static_cast<double>(ms.reconfiguration_cycles);
      m["runtime.pipelined_fetches"] += static_cast<double>(ms.pipelined_fetches);
      m["runtime.icap_mb"] += static_cast<double>(c.result.icap_bytes) / 1e6;
      m["store.hits"] += static_cast<double>(c.store.hits);
      m["store.misses"] += static_cast<double>(c.store.misses);
      m["store.fetch_wait_cycles"] += static_cast<double>(c.store.fetch_wait_cycles);
      m["noc.flits"] += static_cast<double>(c.flits);
      const auto& e = c.result.energy_breakdown;
      const std::pair<const char*, double> parts[] = {
          {"baseline", e.baseline}, {"configured", e.configured},
          {"active", e.active},     {"icap", e.icap},
          {"noc", e.noc},           {"dram", e.dram},
          {"cpu", e.cpu}};
      for (const auto& [name, joules] : parts)
        m[std::string("soc.energy_mj.") + name] += joules * 1e3 / per_frame;
    }
    m["sim.events"] = events;
    m["sim.ns_per_event"] = t_timing * 1e6 / events;
    m["wami.datapath_ms_per_frame"] = t_datapath / per_frame;
    m["wami.verify_ms_per_frame"] = t_full / per_frame;

    const Clock::time_point g0 = Clock::now();
    const auto regenerated = frames_for(full);
    m["wami.framegen_ms_per_frame"] = ms_since(g0) / full.frames;
    const PipelineRun serial = run_pipeline(report, oracle, regenerated, 1);
    m["wami.pipeline_serial_ms_per_frame"] = serial.ms / full.frames;
    const PipelineRun pooled =
        run_pipeline(report, oracle, frames, options.pool_threads);
    m["exec.pipeline_steals"] = static_cast<double>(pooled.pool.stolen);
    m["exec.pipeline_parks"] = static_cast<double>(pooled.pool.parks);
    for (const auto& [name, value] : m) samples[name].push_back(value);
  }
  for (const auto& [name, values] : samples) report.set(name, median(values));
  set_fig4(report, oracle);
}

}  // namespace

void run_wami(const Options& options, Report& report) {
  const WamiAppOptions opt = app_options(options, true, true);
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (const char which : kSocs) WamiApp app(which, opt);
    seconds.push_back(ms_since(t0) / 1e3);
  }
  report.set("setup_s", median(seconds));
  if (options.trace) {
    wami_traced(options, report);
  } else {
    wami_e2e(options, report);
  }
}

}  // namespace perfbench
