// Flow workloads: cold builds of the Table VI SoCs (serial and pooled) and
// the designer's edit-compile loop against a warm cache.
//
// Untraced runs time PrEspFlow::run end to end. Traced runs also replay
// every build stage by stage through the public layer APIs (elaborate,
// strategy, synth, floorplan, P&R, bitgen, artifact writes and cache I/O),
// timing each call; the replay's digest must equal PrEspFlow::run's, and
// its spans must account for the real build's wall time (coverage).
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bitstream/artifact_io.hpp"
#include "core/flow.hpp"
#include "floorplan/floorplan_io.hpp"
#include "util/rng.hpp"
#include "wami/accelerators.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using presp::core::FlowCache;
using presp::core::FlowResult;

// The fixture builds in microseconds; many repeats steady the median.
constexpr int kSetupRepeats = 101;

/// What a user has before the first build: the device model, the
/// component library and the three Table VI SoC configurations.
struct Fixture {
  presp::fabric::Device device;
  presp::netlist::ComponentLibrary lib;
  std::vector<presp::netlist::SocConfig> socs;
};

Fixture make_fixture(bool tiny) {
  Fixture fx{presp::fabric::Device::vc707(), presp::wami::wami_library(), {}};
  for (const char which : {'X', 'Y', 'Z'}) {
    fx.socs.push_back(presp::wami::table6_soc(which));
    if (tiny) break;
  }
  return fx;
}

/// Builds the fixture kSetupRepeats times and reports the median.
Fixture timed_setup(const Options& options, Report& report) {
  std::vector<double> seconds;
  std::optional<Fixture> fx;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fx.emplace(make_fixture(options.tiny));
    seconds.push_back(ms_since(t0) / 1e3);
  }
  report.set("setup_s", median(seconds));
  return std::move(*fx);
}

/// A scratch directory holding one build's cache and artifacts.
struct BuildDir {
  std::string cache;
  std::string artifacts;
};

BuildDir fresh_dir(const Options& options, const std::string& name) {
  const fs::path root = fs::path(options.scratch) / name;
  fs::remove_all(root);
  fs::create_directories(root / "artifacts");
  return {(root / "cache").string(), (root / "artifacts").string()};
}

void remove_dir(const Options& options, const std::string& name) {
  fs::remove_all(fs::path(options.scratch) / name);
}

struct Timed {
  FlowResult result;
  double ms = 0.0;
};

Timed build(const presp::fabric::Device& device,
            const presp::netlist::ComponentLibrary& lib,
            const presp::netlist::SocConfig& soc, const BuildDir& dir,
            int threads) {
  presp::core::FlowOptions flow_options;
  flow_options.exec_threads = threads;
  flow_options.cache.dir = dir.cache;
  flow_options.artifacts_dir = dir.artifacts;
  const presp::core::PrEspFlow flow(device, lib, flow_options);
  Timed timed;
  const Clock::time_point t0 = Clock::now();
  timed.result = flow.run(soc);
  timed.ms = ms_since(t0);
  return timed;
}

/// Test hook: flips one payload byte of the first partial written.
void corrupt_one_partial(const std::string& artifacts_dir) {
  for (const auto& entry : fs::directory_iterator(artifacts_dir)) {
    if (entry.path().extension() != ".pbs") continue;
    std::fstream file(entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    const auto size = static_cast<std::streamoff>(fs::file_size(entry.path()));
    file.seekg(size - 6);
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(size - 6);
    file.write(&byte, 1);
    return;
  }
}

/// The digest oracle: the build's record (partials read back from disk)
/// must match `expected` when given, and otherwise becomes the reference.
std::optional<std::uint64_t> check_build(const Options& options,
                                         Report& report, const Timed& b,
                                         const BuildDir& dir,
                                         std::optional<std::uint64_t> expected,
                                         const std::string& what) {
  report.attempt();
  if (options.sabotage == "corrupt-partial") corrupt_one_partial(dir.artifacts);
  try {
    const std::uint64_t d = digest(record_of(b.result, dir.artifacts));
    if (!b.result.physical_ok || !b.result.cache_enabled) {
      report.fail(what + ": build not routed or cache off");
      return std::nullopt;
    }
    if (expected && d != *expected) {
      report.fail(what + ": digest differs from the reference build");
      return std::nullopt;
    }
    return d;
  } catch (const std::exception& e) {
    report.fail(what + ": " + e.what());
    return std::nullopt;
  }
}

/// LUTs an editable member stays below its partition's largest member, so
/// even a thousand edits leave every partition's demand, and with it the
/// floorplan, the strategy and every other cache key, unchanged.
constexpr long long kEditHeadroom = 1024;

/// Members whose edits keep every pblock: a partition's demand is the
/// per-resource maximum over its members, so growing a member that stays
/// below the largest changes nothing but that member's own entry.
std::vector<std::string> editable_members(
    const presp::netlist::SocConfig& soc,
    const presp::netlist::ComponentLibrary& lib) {
  using presp::netlist::SocRtl;
  std::vector<std::string> members;
  const SocRtl rtl = presp::netlist::elaborate(soc, lib);
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p) {
    const long long largest = rtl.partition_demand(lib, p).luts;
    for (const std::string& module : rtl.partitions()[p].modules)
      if (SocRtl::module_resources(lib, module).luts + kEditHeadroom <= largest)
        members.push_back(module);
  }
  if (members.empty())
    throw std::runtime_error(soc.name + ": no member can be edited in place");
  return members;
}

/// The library after one member's footprint grows by `luts`.
presp::netlist::ComponentLibrary edited(
    const presp::netlist::ComponentLibrary& lib, const std::string& member,
    long long luts) {
  presp::netlist::ComponentLibrary copy = lib;
  presp::netlist::BlockModel block = copy.get(member);
  block.resources.luts += luts;
  copy.register_block(block);
  return copy;
}

// ------------------------------------------------------------ the replay

/// Per-build layer counts the replay observes besides its spans.
struct ReplayCounts {
  double synth_runs = 0;
  double pnr_runs = 0;
  double raw_mb = 0;
  double write_mb = 0;
  /// Every bitstream generated, kept for the CRC/RLE re-runs.
  std::vector<presp::bitstream::Bitstream> generated;
};

void add_resources(FlowCache::KeyBuilder& kb,
                   const presp::fabric::ResourceVec& r) {
  kb.add(static_cast<long long>(r.luts))
      .add(static_cast<long long>(r.ffs))
      .add(static_cast<long long>(r.bram36))
      .add(static_cast<long long>(r.dsp));
}

void add_pblock(FlowCache::KeyBuilder& kb, const presp::fabric::Pblock& pb) {
  kb.add(static_cast<long long>(pb.col_lo))
      .add(static_cast<long long>(pb.col_hi))
      .add(static_cast<long long>(pb.row_lo))
      .add(static_cast<long long>(pb.row_hi));
}

double file_mb(const std::string& path) {
  return static_cast<double>(fs::file_size(path)) / 1e6;
}

/// One serial build with the cache on, stage by stage through the public
/// layer APIs, in PrEspFlow::run's order. The replay keeps its own cache
/// in `dir` (its keys chain the same inputs as the flow's), so a cold
/// replay synthesizes, places, routes and stores, and a warm one loads.
BuildRecord replay(const presp::fabric::Device& device,
                   const presp::netlist::ComponentLibrary& lib,
                   const presp::netlist::SocConfig& config,
                   const BuildDir& dir, Spans& spans, ReplayCounts& counts) {
  using namespace presp;
  const core::FlowOptions fo;
  const core::RuntimeModel model(device, fo.model);
  const std::string& artifacts_dir = dir.artifacts;
  FlowCache cache = spans.time("flow_cache.load", [&] {
    return FlowCache(core::FlowCacheOptions{dir.cache});
  });

  const netlist::SocRtl rtl = spans.time(
      "netlist.elaborate", [&] { return netlist::elaborate(config, lib); });
  const core::SizeMetrics metrics = spans.time(
      "core.strategy", [&] { return core::compute_metrics(rtl, lib, device); });

  struct Job {
    int partition;
    std::string module;
    long long luts;
  };
  std::vector<Job> jobs;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    for (const std::string& module : rtl.partitions()[p].modules)
      jobs.push_back(
          {p, module, netlist::SocRtl::module_resources(lib, module).luts});

  const synth::Synthesizer synthesizer(lib, fo.synth);
  FlowCache::KeyBuilder static_kb;
  static_kb.add("replay-static").add(device.name()).add(config.to_config_text());
  add_resources(static_kb, rtl.static_resources(lib));
  const std::uint64_t static_key = static_kb.finish();
  const std::optional<core::StaticMetaEntry> static_meta = spans.time(
      "flow_cache.load", [&] { return cache.load_static_meta(static_key); });
  synth::Checkpoint static_ckpt;
  bool have_static_ckpt = false;
  const auto synth_static = [&] {
    static_ckpt = spans.time(
        "synth", [&] { return synthesizer.synthesize_static(rtl); });
    have_static_ckpt = true;
    ++counts.synth_runs;
  };
  if (!static_meta) {
    synth_static();
    spans.time("flow_cache.store", [&] {
      cache.store_static_meta(static_key, {static_ckpt.utilization});
    });
  }
  const fabric::ResourceVec static_util =
      static_meta ? static_meta->utilization : static_ckpt.utilization;

  std::vector<floorplan::PartitionRequest> requests;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    requests.push_back({rtl.partitions()[p].name, rtl.partition_demand(lib, p)});
  const floorplan::Floorplan plan = spans.time("floorplan.plan", [&] {
    return floorplan::Floorplanner(device).plan(requests, static_util,
                                                fo.floorplan);
  });
  std::map<std::string, fabric::Pblock> pblocks;
  for (std::size_t p = 0; p < requests.size(); ++p)
    pblocks[requests[p].name] = plan.pblocks[p];
  spans.time("floorplan.write", [&] {
    floorplan::write_floorplan_json(
        {config.name, config.device, requests, plan},
        artifacts_dir + "/" + config.name + ".floorplan.json");
  });

  std::vector<long long> module_luts;
  for (const Job& job : jobs) module_luts.push_back(job.luts);
  core::StrategyDecision decision;
  core::ScheduleEval eval;
  spans.time("core.strategy", [&] {
    core::StrategyInputs inputs;
    inputs.metrics = metrics;
    inputs.module_luts = module_luts;
    inputs.static_region_luts = plan.static_capacity.luts;
    decision = core::choose_strategy(inputs, model, fo.semi_tau);
    eval = core::evaluate_schedule(model, metrics.static_luts,
                                   plan.static_capacity.luts, module_luts,
                                   decision.strategy, decision.tau);
  });
  double synth_makespan = model.synthesis(static_util.luts);
  for (const Job& job : jobs)
    synth_makespan = std::max(synth_makespan, model.synthesis(job.luts));

  FlowCache::KeyBuilder pnr_kb;
  pnr_kb.add("replay-static-pnr").add(static_cast<long long>(static_key));
  for (const auto& [name, pb] : pblocks) {
    pnr_kb.add(name);
    add_pblock(pnr_kb, pb);
  }
  const std::uint64_t static_pnr_key = pnr_kb.finish();
  const pnr::PnrEngine engine(device, fo.pnr);
  pnr::RoutingState static_state = engine.make_state();
  std::optional<core::StaticPnrEntry> static_hit = spans.time(
      "flow_cache.load", [&] { return cache.load_static_pnr(static_pnr_key); });
  if (static_hit && static_hit->usage.size() != static_state.num_edges())
    static_hit.reset();
  std::vector<std::uint64_t> module_keys(jobs.size());
  std::vector<std::optional<core::ModuleEntry>> hits(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const fabric::Pblock& pb = plan.pblocks[static_cast<std::size_t>(jobs[j].partition)];
    FlowCache::KeyBuilder kb;
    kb.add("replay-module").add(static_cast<long long>(static_pnr_key));
    kb.add(jobs[j].module);
    add_resources(kb, netlist::SocRtl::module_resources(lib, jobs[j].module));
    add_pblock(kb, pb);
    kb.add(core::to_string(decision.strategy))
        .add(static_cast<long long>(decision.tau));
    module_keys[j] = kb.finish();
    hits[j] = spans.time("flow_cache.load",
                         [&] { return cache.load_module(module_keys[j]); });
  }

  if (!static_hit && !have_static_ckpt) synth_static();
  std::vector<synth::Checkpoint> ooc(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (hits[j]) continue;
    ooc[j] = spans.time("synth", [&] {
      return synthesizer.synthesize_module_ooc(jobs[j].module);
    });
    ++counts.synth_runs;
  }

  BuildRecord record;
  record.design = config.name;
  record.strategy = core::to_string(decision.strategy);
  record.tau = decision.tau;
  record.pblocks = pblocks;
  record.total_minutes = synth_makespan + eval.total;
  record.partials.resize(jobs.size());
  std::vector<double> fmax(jobs.size() + 1, 1e9);
  std::vector<char> ok(jobs.size() + 1, 1);
  const std::size_t kStatic = jobs.size();
  const auto pbs_path = [&](std::size_t j) {
    return artifacts_dir + "/" +
           bitstream::pbs_filename(
               config.name,
               rtl.partitions()[static_cast<std::size_t>(jobs[j].partition)].name,
               jobs[j].module);
  };
  const auto fill = [&](std::size_t j, const bitstream::Bitstream& pbs,
                        bool routed) {
    PartialRecord& p = record.partials[j];
    p.partition = rtl.partitions()[static_cast<std::size_t>(jobs[j].partition)].name;
    p.module = jobs[j].module;
    p.crc = pbs.crc;
    p.word_hash = hash_words(pbs.words);
    p.raw_bytes = pbs.raw_bytes();
    p.compressed_bytes = spans.time("bitstream.rle",
                                    [&] { return pbs.compressed_bytes(); });
    p.routed = routed;
    spans.time("bitstream.write",
               [&] { bitstream::write_bitstream(pbs, pbs_path(j)); });
    counts.write_mb += file_mb(pbs_path(j));
  };

  if (static_hit) {
    spans.time("flow_cache.load", [&] {
      for (std::size_t e = 0; e < static_hit->usage.size(); ++e)
        if (static_hit->usage[e] != 0)
          static_state.add_usage(e, static_hit->usage[e]);
    });
    ok[kStatic] = static_hit->ok ? 1 : 0;
    fmax[kStatic] = static_hit->fmax_mhz;
    record.full_bitstream_bytes = static_hit->full_bitstream_bytes;
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (!hits[j]) continue;
    fill(j, hits[j]->pbs, hits[j]->routed);
    ok[j] = hits[j]->routed ? 1 : 0;
    fmax[j] = hits[j]->fmax_mhz;
  }
  if (!static_hit) {
    const pnr::PnrRun run = spans.time("pnr.static", [&] {
      return engine.run_static(static_ckpt, pblocks, static_state);
    });
    ++counts.pnr_runs;
    ok[kStatic] = run.success() ? 1 : 0;
    fmax[kStatic] = run.route.achieved_fmax_mhz;
    bitstream::Bitstream full = spans.time("bitstream.full", [&] {
      return bitstream::BitstreamGenerator(device).full(
          config.name, static_ckpt.netlist, run.place.placement);
    });
    record.full_bitstream_bytes = full.raw_bytes();
    counts.raw_mb += static_cast<double>(full.raw_bytes()) / 1e6;
    counts.generated.push_back(std::move(full));
  }
  std::vector<bitstream::Bitstream> fresh(jobs.size());
  for (const auto& group : decision.groups) {
    for (const std::size_t j : group) {
      if (hits[j]) continue;
      const fabric::Pblock& pb =
          plan.pblocks[static_cast<std::size_t>(jobs[j].partition)];
      const pnr::PnrRun run = spans.time("pnr.partition", [&] {
        return engine.run_partition(ooc[j], pb, static_state);
      });
      ++counts.pnr_runs;
      ok[j] = run.success() ? 1 : 0;
      fmax[j] = run.route.achieved_fmax_mhz;
      fresh[j] = spans.time("bitstream.partial", [&] {
        return bitstream::BitstreamGenerator(device).partial(
            config.name, jobs[j].module, pb, ooc[j].netlist,
            run.place.placement);
      });
      fill(j, fresh[j], run.success());
      counts.raw_mb += static_cast<double>(fresh[j].raw_bytes()) / 1e6;
    }
  }

  spans.time("flow_cache.store", [&] {
    if (!static_hit) {
      core::StaticPnrEntry entry;
      entry.ok = ok[kStatic] != 0;
      entry.fmax_mhz = fmax[kStatic];
      entry.full_bitstream_bytes = record.full_bitstream_bytes;
      entry.cols = static_state.num_cols();
      entry.rows = static_state.num_rows();
      entry.usage.resize(static_state.num_edges());
      for (std::size_t e = 0; e < static_state.num_edges(); ++e)
        entry.usage[e] = static_state.usage(e);
      cache.store_static_pnr(static_pnr_key, entry);
    }
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (hits[j]) continue;
      core::ModuleEntry entry;
      entry.utilization = ooc[j].utilization;
      entry.routed = ok[j] != 0;
      entry.fmax_mhz = fmax[j];
      entry.pbs = fresh[j];
      cache.store_module(module_keys[j], entry);
    }
  });
  for (std::size_t j = 0; j < jobs.size(); ++j)
    if (!hits[j]) counts.generated.push_back(std::move(fresh[j]));

  record.physical_ok = ok[kStatic] != 0;
  record.fmax_mhz = fmax[kStatic];
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    record.physical_ok = record.physical_ok && ok[j] != 0;
    record.fmax_mhz = std::min(record.fmax_mhz, fmax[j]);
  }
  return record;
}

/// Per-iteration samples of every per-layer metric; medians are reported.
using Samples = std::map<std::string, std::vector<double>>;

/// Folds one replay into the iteration's per-layer sums.
void add_replay(std::map<std::string, double>& it, const Spans& spans,
                const ReplayCounts& counts) {
  const std::pair<const char*, const char*> kSpanMetrics[] = {
      {"netlist.elaborate", "netlist.elaborate_ms"},
      {"core.strategy", "core.strategy_ms"},
      {"synth", "synth.ms"},
      {"floorplan.plan", "floorplan.plan_ms"},
      {"floorplan.write", "floorplan.write_ms"},
      {"pnr.static", "pnr.static_ms"},
      {"pnr.partition", "pnr.partition_ms"},
      {"bitstream.full", "bitstream.full_ms"},
      {"bitstream.partial", "bitstream.partial_ms"},
      {"bitstream.rle", "bitstream.rle_ms"},
      {"bitstream.write", "bitstream.write_ms"},
      {"flow_cache.store", "flow_cache.store_ms"},
      {"flow_cache.load", "flow_cache.load_ms"},
  };
  for (const auto& [span, metric] : kSpanMetrics) it[metric] += spans.ms(span);
  it["synth.runs"] += counts.synth_runs;
  it["pnr.runs"] += counts.pnr_runs;
  it["bitstream.raw_mb"] += counts.raw_mb;
  it["bitstream.write_mb"] += counts.write_mb;
  // CRC share of bitgen: re-run the generator's CRC over its own words.
  const Clock::time_point t0 = Clock::now();
  for (const auto& b : counts.generated) presp::bitstream::crc32(b.words);
  it["bitstream.crc_ms"] += ms_since(t0);
}

void add_cache_stats(std::map<std::string, double>& it, const FlowResult& r) {
  it["flow_cache.hits"] += static_cast<double>(r.cache.hits);
  it["flow_cache.misses"] += static_cast<double>(r.cache.misses);
  it["flow_cache.stores"] += static_cast<double>(r.cache.stores);
}

void add_exec_stats(std::map<std::string, double>& it, const FlowResult& r) {
  it["exec.tasks"] += static_cast<double>(r.exec.tasks);
  it["exec.steals"] += static_cast<double>(r.exec.steals);
  it["exec.steal_failures"] += static_cast<double>(r.exec.steal_failures);
  it["exec.parks"] += static_cast<double>(r.exec.parks);
  it["exec.max_queue_depth"] =
      std::max(it["exec.max_queue_depth"],
               static_cast<double>(r.exec.max_queue_depth));
  it["exec.busy_ms"] += r.exec.busy_seconds * 1e3;
  it["exec.wall_ms"] += r.exec.wall_seconds * 1e3;
}

void report_samples(Report& report, const Samples& samples) {
  for (const auto& [name, values] : samples) report.set(name, median(values));
  const auto wall = samples.find("exec.wall_ms");
  const auto busy = samples.find("exec.busy_ms");
  if (wall != samples.end() && busy != samples.end() &&
      median(wall->second) > 0.0)
    report.set("exec.speedup", median(busy->second) / median(wall->second));
}

/// Replays one build and checks its digest against the real build's.
void checked_replay(Report& report, const Fixture& fx,
                    const presp::netlist::ComponentLibrary& lib,
                    const presp::netlist::SocConfig& soc, const BuildDir& dir,
                    std::uint64_t expected,
                    const std::string& what, Spans& spans,
                    ReplayCounts& counts) {
  report.attempt();
  try {
    const BuildRecord rec = replay(fx.device, lib, soc, dir, spans, counts);
    report.check(digest(rec) == expected,
                 what + ": replay digest differs from PrEspFlow::run");
  } catch (const std::exception& e) {
    report.fail(what + ": replay threw: " + e.what());
  }
}

// ------------------------------------------------------------- flow-cold

void flow_cold_e2e(const Options& options, Report& report, const Fixture& fx) {
  Report::PartSamples serial_ms;
  Report::PartSamples pooled_ms;
  std::map<std::string, std::uint64_t> reference;
  double model_min = 0.0;
  const Clock::time_point start = Clock::now();
  for (int it = 0; !out_of_time(start, options, it); ++it) {
    for (const int threads : {1, options.pool_threads}) {
      for (const auto& soc : fx.socs) {
        const std::string name = "cold-" + soc.name;
        const BuildDir dir = fresh_dir(options, name);
        const Timed b = build(fx.device, fx.lib, soc, dir, threads);
        (threads == 1 ? serial_ms : pooled_ms)[soc.name].push_back(b.ms);
        report.check(b.result.cache.hits == 0 && b.result.cache.misses > 0,
                     soc.name + ": a cold build hit its empty cache");
        const auto ref = reference.find(soc.name);
        const auto d = check_build(
            options, report, b, dir,
            ref == reference.end() ? std::nullopt
                                   : std::optional<std::uint64_t>(ref->second),
            soc.name + " cold build at " + std::to_string(threads) +
                " threads");
        if (d && ref == reference.end()) {
          reference[soc.name] = *d;
          model_min += b.result.total_minutes;
        }
        remove_dir(options, name);
      }
    }
  }
  report.set_best("op_ms", serial_ms);
  report.set_best("alt_op_ms", pooled_ms);
  report.set("flow.model_min", model_min);
}

void flow_cold_traced(const Options& options, Report& report,
                      const Fixture& fx) {
  Samples samples;
  const Clock::time_point start = Clock::now();
  for (int it = 0; !out_of_time(start, options, it); ++it) {
    std::map<std::string, double> iter;
    double cold_wall = 0, cold_spans = 0, warm_wall = 0, warm_spans = 0;
    for (const auto& soc : fx.socs) {
      const std::string tag = soc.name;
      const BuildDir real = fresh_dir(options, "real-" + tag);
      const BuildDir rdir = fresh_dir(options, "replay-" + tag);
      const Timed cold = build(fx.device, fx.lib, soc, real, 1);
      const auto ref = check_build(options, report, cold, real, std::nullopt,
                                   tag + " cold build");
      if (!ref) continue;
      Spans spans;
      ReplayCounts counts;
      checked_replay(report, fx, fx.lib, soc, rdir, *ref,
                     tag + " cold", spans, counts);
      cold_wall += cold.ms;
      cold_spans += spans.total_ms();
      add_replay(iter, spans, counts);

      const Timed warm = build(fx.device, fx.lib, soc, real, 1);
      check_build(options, report, warm, real, ref, tag + " warm build");
      report.check(warm.result.cache.misses == 0,
                   tag + ": warm rebuild missed its cache");
      Spans warm_span;
      ReplayCounts warm_counts;
      checked_replay(report, fx, fx.lib, soc, rdir, *ref, tag + " warm",
                     warm_span, warm_counts);
      warm_wall += warm.ms;
      warm_spans += warm_span.total_ms();
      add_replay(iter, warm_span, warm_counts);
      add_cache_stats(iter, cold.result);
      add_cache_stats(iter, warm.result);
      iter["flow_cache.disk_mb"] +=
          static_cast<double>(warm.result.cache.bytes) / 1e6;
      iter["flow.model_min"] += cold.result.total_minutes;

      const BuildDir pooled_dir = fresh_dir(options, "pooled-" + tag);
      const Timed pooled =
          build(fx.device, fx.lib, soc, pooled_dir, options.pool_threads);
      check_build(options, report, pooled, pooled_dir, ref,
                  tag + " pooled cold build");
      add_exec_stats(iter, pooled.result);
      for (const char* name : {"real-", "replay-", "pooled-"})
        remove_dir(options, name + tag);
    }
    if (cold_wall > 0) iter["flow.coverage_cold"] = cold_spans / cold_wall;
    if (warm_wall > 0) iter["flow.coverage_warm"] = warm_spans / warm_wall;
    for (const auto& [name, value] : iter) samples[name].push_back(value);
  }
  report_samples(report, samples);
}

// ------------------------------------------------------------- flow-edit

void check_edit_counts(Report& report, const FlowResult& warm,
                       const FlowResult& edit, const std::string& what) {
  report.check(warm.cache.misses == 0,
               what + ": unchanged rebuild reported cache misses");
  report.check(edit.cache.misses == 1 && edit.cache.hits + 1 == warm.cache.hits,
               what + ": edited rebuild reported " +
                   std::to_string(edit.cache.misses) + " misses and " +
                   std::to_string(edit.cache.hits) +
                   " hits; expected exactly one module miss");
}

void run_edit(const Options& options, Report& report, const Fixture& fx) {
  // The designer's edit: the seed picks one member per SoC, and iteration
  // i grows it by 16 + i LUTs, so every edited rebuild redoes the same work
  // and none can hit an entry an earlier edit stored.
  presp::Rng rng(options.seed);
  std::vector<std::string> members;
  std::vector<BuildDir> real;
  std::vector<BuildDir> rdirs;
  std::vector<std::uint64_t> reference;
  Samples samples;
  double cold_wall = 0, cold_spans = 0;
  for (const auto& soc : fx.socs) {
    const std::vector<std::string> editable = editable_members(soc, fx.lib);
    members.push_back(editable[rng.next_below(editable.size())]);
    real.push_back(fresh_dir(options, "edit-" + soc.name));
    const Timed cold = build(fx.device, fx.lib, soc, real.back(), 1);
    const auto ref = check_build(options, report, cold, real.back(),
                                 std::nullopt, soc.name + " warm-up build");
    if (!ref) throw std::runtime_error(soc.name + ": warm-up build failed");
    reference.push_back(*ref);
    if (options.trace) {
      rdirs.push_back(fresh_dir(options, "edit-replay-" + soc.name));
      Spans spans;
      ReplayCounts counts;
      checked_replay(report, fx, fx.lib, soc, rdirs.back(), *ref,
                     soc.name + " cold", spans, counts);
      cold_wall += cold.ms;
      cold_spans += spans.total_ms();
    }
  }

  Report::PartSamples edit_ms;
  Report::PartSamples warm_ms;
  long long last_luts = 0;
  std::vector<std::uint64_t> last_digest(fx.socs.size(), 0);
  double model_min = 0.0;
  const Clock::time_point start = Clock::now();
  for (int it = 0; !out_of_time(start, options, it); ++it) {
    std::map<std::string, double> iter;
    double warm_wall = 0, warm_spans = 0;
    model_min = 0.0;
    for (std::size_t s = 0; s < fx.socs.size(); ++s) {
      const auto& soc = fx.socs[s];
      const Timed warm = build(fx.device, fx.lib, soc, real[s], 1);
      warm_ms[soc.name].push_back(warm.ms);
      check_build(options, report, warm, real[s], reference[s],
                  soc.name + " unchanged rebuild");

      last_luts = 16 + it;
      const presp::netlist::ComponentLibrary lib =
          edited(fx.lib, members[s], last_luts);
      const Timed changed = build(fx.device, lib, soc, real[s], 1);
      edit_ms[soc.name].push_back(changed.ms);
      const auto d = check_build(options, report, changed, real[s],
                                 std::nullopt, soc.name + " edited rebuild");
      check_edit_counts(report, warm.result, changed.result,
                        soc.name + " edit of " + members[s]);
      last_digest[s] = d.value_or(0);
      model_min += changed.result.total_minutes;

      if (!options.trace) continue;
      Spans spans;
      ReplayCounts counts;
      checked_replay(report, fx, fx.lib, soc, rdirs[s], reference[s],
                     soc.name + " warm", spans, counts);
      warm_wall += warm.ms;
      warm_spans += spans.total_ms();
      add_replay(iter, spans, counts);
      Spans edit_spans;
      ReplayCounts edit_counts;
      if (d)
        checked_replay(report, fx, lib, soc, rdirs[s], *d,
                       soc.name + " edited", edit_spans, edit_counts);
      add_replay(iter, edit_spans, edit_counts);
      add_cache_stats(iter, warm.result);
      add_cache_stats(iter, changed.result);
      add_exec_stats(iter, changed.result);
      iter["flow_cache.disk_mb"] +=
          static_cast<double>(changed.result.cache.bytes) / 1e6;
      iter["flow.model_min"] += changed.result.total_minutes;
    }
    if (options.trace) {
      if (cold_wall > 0) iter["flow.coverage_cold"] = cold_spans / cold_wall;
      if (warm_wall > 0) iter["flow.coverage_warm"] = warm_spans / warm_wall;
      for (const auto& [name, value] : iter) samples[name].push_back(value);
    }
  }

  // An edited rebuild must equal a fresh cold build of the edited library.
  for (std::size_t s = 0; s < fx.socs.size(); ++s) {
    const auto& soc = fx.socs[s];
    const presp::netlist::ComponentLibrary lib =
        edited(fx.lib, members[s], last_luts);
    const BuildDir dir = fresh_dir(options, "edit-check-" + soc.name);
    const Timed cold = build(fx.device, lib, soc, dir, 1);
    check_build(options, report, cold, dir, last_digest[s],
                soc.name + " cold build of the last edit");
    remove_dir(options, "edit-check-" + soc.name);
  }

  if (options.trace) {
    report_samples(report, samples);
  } else {
    report.set_best("op_ms", edit_ms);
    report.set_best("alt_op_ms", warm_ms);
    report.set("flow.model_min", model_min);
  }
}

}  // namespace

void run_flow_cold(const Options& options, Report& report) {
  const Fixture fx = timed_setup(options, report);
  if (options.trace) {
    flow_cold_traced(options, report, fx);
  } else {
    flow_cold_e2e(options, report, fx);
  }
}

void run_flow_edit(const Options& options, Report& report) {
  const Fixture fx = timed_setup(options, report);
  run_edit(options, report, fx);
}

}  // namespace perfbench
