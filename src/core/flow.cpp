#include "core/flow.hpp"

#include "bitstream/artifact_io.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"
#include "floorplan/floorplan_io.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace presp::core {

const ModuleImplementation& FlowResult::module(
    const std::string& partition, const std::string& module_name) const {
  for (const ModuleImplementation& m : modules)
    if (m.partition == partition && m.module == module_name) return m;
  throw InvalidArgument("module '" + module_name + "' in partition '" +
                        partition + "' was not implemented by this flow run");
}

PrEspFlow::PrEspFlow(const fabric::Device& device,
                     const netlist::ComponentLibrary& lib,
                     FlowOptions options)
    : device_(device),
      lib_(lib),
      options_(std::move(options)),
      model_(device, options_.model) {}

namespace {
/// LPT priority for a synthesis/P&R task: bigger netlists first.
int lut_priority(long long luts) {
  return static_cast<int>(std::min<long long>(
      luts, std::numeric_limits<int>::max()));
}

void add_resources(FlowCache::KeyBuilder& kb, const fabric::ResourceVec& r) {
  kb.add(static_cast<long long>(r.luts))
      .add(static_cast<long long>(r.ffs))
      .add(static_cast<long long>(r.bram36))
      .add(static_cast<long long>(r.dsp));
}

void add_pblock(FlowCache::KeyBuilder& kb, const fabric::Pblock& pb) {
  kb.add(static_cast<long long>(pb.col_lo))
      .add(static_cast<long long>(pb.col_hi))
      .add(static_cast<long long>(pb.row_lo))
      .add(static_cast<long long>(pb.row_hi));
}
}  // namespace

FlowResult PrEspFlow::run(const netlist::SocConfig& config) const {
  FlowResult result;
  result.design = config.name;

  // 1. Parse + elaborate: separates reconfigurable tiles from the static
  // part.
  trace::begin(trace::Category::kFlow, "flow:elaborate");
  const netlist::SocRtl rtl = netlist::elaborate(config, lib_);
  result.metrics = compute_metrics(rtl, lib_, device_);
  trace::end(trace::Category::kFlow, "flow:elaborate");

  // Task-parallel execution substrate. With exec_threads <= 1 the graphs
  // below run serially on this thread in the same (priority, insertion)
  // order the parallel scheduler uses at each release point; every task
  // writes its own preallocated slot and reductions fold in job order, so
  // the FlowResult is bit-identical at any pool width.
  std::unique_ptr<exec::ThreadPool> pool;
  if (options_.exec_threads > 1)
    pool = std::make_unique<exec::ThreadPool>(options_.exec_threads);
  result.exec.threads = pool ? pool->threads() : 1;

  struct MemberJob {
    int partition_index;
    std::string module;
    long long luts;
  };
  std::vector<MemberJob> jobs;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    for (const std::string& module : rtl.partitions()[p].modules)
      jobs.push_back(
          {p, module, netlist::SocRtl::module_resources(lib_, module).luts});

  // Content-hashed incremental cache (core/flow_cache.hpp). Every probe
  // and store happens on this (driver) thread, before the corresponding
  // task graph is built: only cache *misses* become tasks, so warm runs
  // execute a strict subset of the cold run's graph and produce
  // bit-identical results at any pool width.
  std::unique_ptr<FlowCache> cache;
  if (!options_.cache.dir.empty())
    cache = std::make_unique<FlowCache>(options_.cache);
  result.cache_enabled = cache != nullptr;

  // Stage key 1: static synthesis. Hashes everything that determines the
  // static checkpoint — the configuration text (grid, tile types, member
  // *names*; black boxes depend on partition structure, not member
  // contents), the static part's library resources, the synthesis options
  // and the device. Member module resource changes do NOT touch this key.
  std::uint64_t static_synth_key = 0;
  std::optional<StaticMetaEntry> static_meta;
  if (cache) {
    FlowCache::KeyBuilder kb;
    kb.add("static-synth").add(device_.name()).add(config.to_config_text());
    add_resources(kb, rtl.static_resources(lib_));
    kb.add(static_cast<long long>(options_.synth.cluster_luts))
        .add(options_.synth.rent_edges_per_cell)
        .add(static_cast<long long>(options_.synth.seed));
    static_synth_key = kb.finish();
    const trace::TraceScope span(trace::Category::kFlow, "flow:cache-load");
    static_meta = cache->load_static_meta(static_synth_key);
  }

  // 2. Parallel out-of-context synthesis. One task for the static netlist
  // and one per (partition, member), longest-expected first (LPT). Each
  // OoC synthesis is seeded by module name, so concurrent execution
  // cannot change its output. With caching enabled the member synths are
  // deferred until after the floorplan, when their cache keys are known
  // (a cached member needs no checkpoint at all); the static synth runs
  // now only when its utilization is not already cached (the floorplanner
  // needs it).
  const synth::Synthesizer synthesizer(lib_, options_.synth);
  synth::Checkpoint static_ckpt;
  bool have_static_ckpt = false;
  std::vector<synth::Checkpoint> ooc_ckpts(jobs.size());
  {
    const trace::TraceScope span(trace::Category::kFlow, "flow:synth");
    exec::TaskGraph synth_graph;
    if (!cache || !static_meta) {
      synth_graph.add(
          "synth:static",
          [&] { static_ckpt = synthesizer.synthesize_static(rtl); }, {},
          lut_priority(result.metrics.static_luts));
      have_static_ckpt = true;
    }
    if (!cache && options_.run_physical) {
      for (std::size_t j = 0; j < jobs.size(); ++j)
        synth_graph.add(
            "synth:" + jobs[j].module,
            [&, j] {
              ooc_ckpts[j] =
                  synthesizer.synthesize_module_ooc(jobs[j].module);
            },
            {}, lut_priority(jobs[j].luts));
    }
    synth_graph.run(pool.get());
    result.exec.tasks += synth_graph.size();
    result.exec.synth_wall_seconds = synth_graph.makespan_seconds();
    result.exec.busy_seconds += synth_graph.busy_seconds();
  }
  if (cache && have_static_ckpt && !static_meta) {
    const trace::TraceScope span(trace::Category::kFlow, "flow:cache-store");
    cache->store_static_meta(static_synth_key, {static_ckpt.utilization});
  }
  const fabric::ResourceVec static_util =
      have_static_ckpt ? static_ckpt.utilization : static_meta->utilization;

  const double static_synth = model_.synthesis(static_util.luts);
  result.synth_makespan_minutes = static_synth;
  for (const MemberJob& job : jobs)
    result.synth_makespan_minutes =
        std::max(result.synth_makespan_minutes, model_.synthesis(job.luts));

  // 3. DPR floorplanning.
  std::vector<floorplan::PartitionRequest> requests;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    requests.push_back(
        {rtl.partitions()[p].name, rtl.partition_demand(lib_, p)});
  {
    const trace::TraceScope span(trace::Category::kFlow, "flow:floorplan");
    const floorplan::Floorplanner planner(device_);
    result.plan = planner.plan(requests, static_util, options_.floorplan);
    for (std::size_t p = 0; p < requests.size(); ++p)
      result.pblocks[requests[p].name] = result.plan.pblocks[p];
    if (!options_.artifacts_dir.empty()) {
      // The saved plan is what `presp-lint --floorplan` checks offline.
      // config.device is the board key ("vc707"), which the lint side can
      // map back to a fabric::Device; device_.name() is the part string.
      floorplan::FloorplanArtifact artifact{config.name, config.device,
                                            requests, result.plan};
      floorplan::write_floorplan_json(
          artifact,
          options_.artifacts_dir + "/" + config.name + ".floorplan.json");
    }
  }
  const long long static_region_luts = result.plan.static_capacity.luts;

  // 4. Strategy selection (Table I + runtime model), unless forced.
  std::vector<long long> module_luts;
  for (const MemberJob& job : jobs) module_luts.push_back(job.luts);
  trace::begin(trace::Category::kFlow, "flow:strategy");
  if (options_.force_strategy) {
    const Strategy strategy = *options_.force_strategy;
    const int n = static_cast<int>(jobs.size());
    int tau = 1;
    if (strategy == Strategy::kSemiParallel)
      tau = std::min(options_.force_tau.value_or(options_.semi_tau), n);
    else if (strategy == Strategy::kFullyParallel)
      tau = options_.force_tau.value_or(n);
    StrategyDecision d;
    d.strategy = strategy;
    d.tau = tau;
    d.design_class = classify(result.metrics);
    if (strategy == Strategy::kSerial) {
      d.groups.emplace_back();
      for (std::size_t i = 0; i < jobs.size(); ++i)
        d.groups.front().push_back(i);
    } else {
      d.groups = balanced_groups(module_luts, tau);
    }
    result.decision = d;
  } else {
    StrategyInputs inputs;
    inputs.metrics = result.metrics;
    inputs.module_luts = module_luts;
    inputs.static_region_luts = static_region_luts;
    result.decision =
        choose_strategy(inputs, model_, options_.semi_tau);
  }
  trace::end(trace::Category::kFlow, "flow:strategy");

  // 5. P&R. Physical engines run once; CPU minutes come from the model
  // composed per the chosen schedule.
  const ScheduleEval eval = evaluate_schedule(
      model_, result.metrics.static_luts, static_region_luts, module_luts,
      result.decision.strategy, result.decision.tau);
  result.t_static_minutes = eval.t_static;
  result.omega_minutes = eval.omega;
  result.pnr_total_minutes = eval.total;
  result.decision.predicted_minutes = eval.total;
  result.total_minutes = result.synth_makespan_minutes + eval.total;

  pnr::PnrEngine engine(device_, options_.pnr);
  pnr::RoutingState static_state = engine.make_state();
  const bitstream::BitstreamGenerator bitgen(device_);

  // Stage keys 2 and 3: static P&R and per-member implementation. The
  // static key chains the synth key with the floorplan *outcome* (pblock
  // rectangles — hashing the outcome rather than the demands maximizes
  // reuse when a member changes without moving the floorplan) and every
  // P&R knob; each member key chains the static key with the member's
  // own synthesis inputs, its pblock and the schedule choice. Changing a
  // member's library entry therefore invalidates exactly that member.
  std::uint64_t static_pnr_key = 0;
  std::optional<StaticPnrEntry> static_pnr_hit;
  std::vector<std::uint64_t> module_keys(jobs.size(), 0);
  std::vector<std::optional<ModuleEntry>> module_hits(jobs.size());
  if (cache && options_.run_physical) {
    {
      const trace::TraceScope span(trace::Category::kFlow,
                                   "flow:cache-load");
      FlowCache::KeyBuilder kb;
      kb.add("static-pnr").add(static_cast<long long>(static_synth_key));
      for (std::size_t p = 0; p < requests.size(); ++p) {
        kb.add(requests[p].name);
        add_pblock(kb, result.plan.pblocks[p]);
      }
      kb.add(static_cast<long long>(options_.pnr.placer.moves_per_cell))
          .add(static_cast<long long>(options_.pnr.placer.temperature_steps))
          .add(options_.pnr.placer.initial_temperature_factor)
          .add(options_.pnr.placer.cooling)
          .add(static_cast<long long>(options_.pnr.placer.seed))
          .add(static_cast<long long>(options_.pnr.router.max_iterations))
          .add(options_.pnr.router.congestion_penalty)
          .add(options_.pnr.router.history_increment)
          .add(static_cast<long long>(options_.pnr.h_capacity))
          .add(static_cast<long long>(options_.pnr.v_capacity));
      static_pnr_key = kb.finish();
      static_pnr_hit = cache->load_static_pnr(static_pnr_key);
      // Belt and braces: a cached routing state must match this device's
      // grid exactly or the entry is unusable.
      if (static_pnr_hit &&
          (static_pnr_hit->usage.size() != static_state.num_edges() ||
           static_pnr_hit->cols != static_state.num_cols() ||
           static_pnr_hit->rows != static_state.num_rows()))
        static_pnr_hit.reset();

      for (std::size_t j = 0; j < jobs.size(); ++j) {
        FlowCache::KeyBuilder mk;
        mk.add("module").add(static_cast<long long>(static_pnr_key));
        mk.add(jobs[j].module);
        add_resources(
            mk, netlist::SocRtl::module_resources(lib_, jobs[j].module));
        add_pblock(mk, result.plan.pblocks[static_cast<std::size_t>(
                           jobs[j].partition_index)]);
        mk.add(to_string(result.decision.strategy))
            .add(static_cast<long long>(result.decision.tau));
        module_keys[j] = mk.finish();
        module_hits[j] = cache->load_module_stream(module_keys[j]);
      }
    }

    // Second synthesis wave: only what the misses actually need.
    exec::TaskGraph synth_graph;
    if (!static_pnr_hit && !have_static_ckpt) {
      synth_graph.add(
          "synth:static",
          [&] { static_ckpt = synthesizer.synthesize_static(rtl); }, {},
          lut_priority(result.metrics.static_luts));
      have_static_ckpt = true;
    }
    for (std::size_t j = 0; j < jobs.size(); ++j)
      if (!module_hits[j])
        synth_graph.add(
            "synth:" + jobs[j].module,
            [&, j] {
              ooc_ckpts[j] =
                  synthesizer.synthesize_module_ooc(jobs[j].module);
            },
            {}, lut_priority(jobs[j].luts));
    if (synth_graph.size() > 0) {
      const trace::TraceScope span(trace::Category::kFlow, "flow:synth");
      synth_graph.run(pool.get());
      result.exec.tasks += synth_graph.size();
      result.exec.synth_wall_seconds += synth_graph.makespan_seconds();
      result.exec.busy_seconds += synth_graph.busy_seconds();
    }
  }

  // Model-attributed per-member fields (pure math — filled up front so the
  // physical tasks below only touch their own preallocated slot).
  result.modules.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ModuleImplementation& impl = result.modules[j];
    impl.partition =
        rtl.partitions()[static_cast<std::size_t>(jobs[j].partition_index)]
            .name;
    impl.module = jobs[j].module;
    impl.synth_minutes = model_.synthesis(jobs[j].luts);
    impl.pnr_minutes = result.decision.strategy == Strategy::kSerial
                           ? model_.serial_marginal(jobs[j].luts)
                           : model_.in_context_module(
                                 jobs[j].luts, result.metrics.static_luts,
                                 result.decision.tau);
  }

  if (options_.run_physical) {
    std::vector<char> run_ok(jobs.size() + 1, 1);
    std::vector<double> run_fmax(jobs.size() + 1, 1e9);
    const std::size_t kStaticSlot = jobs.size();
    // Fresh partial bitstreams (streams only), retained for cache stores.
    std::vector<ModuleEntry> fresh(cache ? jobs.size() : 0);

    // Replay cached stage results on the driver thread (fixed job order)
    // before any task runs; the task graph below contains misses only.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (!module_hits[j]) continue;
      const ModuleEntry& hit = *module_hits[j];
      ModuleImplementation& impl = result.modules[j];
      impl.utilization = hit.utilization;
      impl.routed = hit.routed;
      impl.pbs_raw_bytes = hit.pbs.raw_bytes();
      impl.pbs_compressed_bytes = hit.pbs.compressed_bytes();
      run_ok[j] = hit.routed ? 1 : 0;
      run_fmax[j] = hit.fmax_mhz;
    }
    if (!options_.artifacts_dir.empty()) {
      const trace::TraceScope span(trace::Category::kFlow,
                                   "flow:artifact-write");
      for (std::size_t j = 0; j < jobs.size(); ++j)
        if (module_hits[j])
          bitstream::write_bitstream(
              module_hits[j]->pbs,
              options_.artifacts_dir + "/" +
                  bitstream::pbs_filename(config.name,
                                          result.modules[j].partition,
                                          jobs[j].module));
    }

    const trace::TraceScope span(trace::Category::kFlow, "flow:pnr");
    // The host P&R graph is the static run plus a flat fan-out of member
    // runs, whatever the strategy: run_partition copies the static routing
    // state, so once the static run is done every member is independent
    // and sees the identical context regardless of interleaving. The
    // paper's serial / semi-parallel / fully-parallel schedule is a model
    // of Vivado instances and lives in evaluate_schedule above.
    if (static_pnr_hit) {
      run_ok[kStaticSlot] = static_pnr_hit->ok ? 1 : 0;
      run_fmax[kStaticSlot] = static_pnr_hit->fmax_mhz;
      result.full_bitstream_bytes =
          static_cast<std::size_t>(static_pnr_hit->full_bitstream_bytes);
      for (std::size_t e = 0; e < static_pnr_hit->usage.size(); ++e)
        if (static_pnr_hit->usage[e] != 0)
          static_state.add_usage(e, static_pnr_hit->usage[e]);
    }

    exec::TaskGraph pnr_graph;
    std::optional<exec::TaskId> static_task;
    if (!static_pnr_hit)
      static_task = pnr_graph.add(
          "pnr:static",
          [&] {
            const pnr::PnrRun run =
                engine.run_static(static_ckpt, result.pblocks, static_state);
            run_ok[kStaticSlot] = run.success() ? 1 : 0;
            run_fmax[kStaticSlot] = run.route.achieved_fmax_mhz;
            // Only the full image's size is reported, and that is a
            // closed form: the image itself is never built here.
            result.full_bitstream_bytes = bitgen.full_raw_bytes();
          },
          {}, std::numeric_limits<int>::max());

    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (module_hits[j]) continue;  // cached member: not in the graph
      std::vector<exec::TaskId> deps;
      if (static_task) deps.push_back(*static_task);
      pnr_graph.add(
          "pnr:" + jobs[j].module,
          [&, j] {
            ModuleImplementation& impl = result.modules[j];
            const synth::Checkpoint& ooc = ooc_ckpts[j];
            impl.utilization = ooc.utilization;
            const fabric::Pblock& pblock =
                result.plan.pblocks[static_cast<std::size_t>(
                    jobs[j].partition_index)];
            const pnr::PnrRun run =
                engine.run_partition(ooc, pblock, static_state);
            impl.routed = run.success();
            run_ok[j] = impl.routed ? 1 : 0;
            run_fmax[j] = run.route.achieved_fmax_mhz;
            // One emitter pass gives the stream every consumer reads:
            // the sizes, the `.pbs` and the cache entry.
            bitstream::Bitstream pbs;
            {
              const trace::TraceScope bitgen_span(trace::Category::kFlow,
                                                  "bitgen:partial");
              pbs = bitgen.partial_stream(config.name, jobs[j].module,
                                          pblock, ooc.netlist,
                                          run.place.placement);
            }
            impl.pbs_raw_bytes = pbs.raw_bytes();
            impl.pbs_compressed_bytes = pbs.compressed_bytes();
            if (!options_.artifacts_dir.empty()) {
              const trace::TraceScope write_span(trace::Category::kFlow,
                                                 "bitgen:write");
              bitstream::write_bitstream(
                  pbs, options_.artifacts_dir + "/" +
                           bitstream::pbs_filename(
                               config.name, impl.partition, jobs[j].module));
            }
            if (cache) fresh[j].pbs = std::move(pbs);
          },
          std::move(deps), lut_priority(jobs[j].luts));
    }
    pnr_graph.run(pool.get());
    result.exec.tasks += pnr_graph.size();
    result.exec.pnr_wall_seconds = pnr_graph.makespan_seconds();
    result.exec.busy_seconds += pnr_graph.busy_seconds();

    // Persist fresh stage results (driver thread, after the graph).
    if (cache) {
      const trace::TraceScope store_span(trace::Category::kFlow,
                                         "flow:cache-store");
      if (!static_pnr_hit) {
        StaticPnrEntry entry;
        entry.ok = run_ok[kStaticSlot] != 0;
        entry.fmax_mhz = run_fmax[kStaticSlot];
        entry.full_bitstream_bytes = result.full_bitstream_bytes;
        entry.cols = static_state.num_cols();
        entry.rows = static_state.num_rows();
        entry.usage.resize(static_state.num_edges());
        for (std::size_t e = 0; e < static_state.num_edges(); ++e)
          entry.usage[e] = static_state.usage(e);
        cache->store_static_pnr(static_pnr_key, entry);
      }
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (module_hits[j]) continue;
        ModuleEntry& entry = fresh[j];
        entry.utilization = result.modules[j].utilization;
        entry.routed = result.modules[j].routed;
        entry.fmax_mhz = run_fmax[j];
        cache->store_module(module_keys[j], entry);
      }
    }

    // Deterministic reductions, in fixed slot order (static, then jobs).
    bool physical_ok = run_ok[kStaticSlot] != 0;
    double fmax = run_fmax[kStaticSlot];
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      physical_ok = physical_ok && run_ok[j] != 0;
      fmax = std::min(fmax, run_fmax[j]);
    }
    result.physical_ok = physical_ok;
    result.achieved_fmax_mhz = fmax;
    result.timing_met = fmax >= config.clock_mhz;
  }

  if (pool) {
    const exec::ThreadPool::Stats pool_stats = pool->stats();
    result.exec.steals = pool_stats.stolen;
    result.exec.steal_failures = pool_stats.steal_failures;
    result.exec.parks = pool_stats.parks;
    result.exec.max_queue_depth = pool_stats.max_queue_depth;
  }
  if (cache) result.cache = cache->stats();
  result.exec.wall_seconds =
      result.exec.synth_wall_seconds + result.exec.pnr_wall_seconds;
  if (result.exec.wall_seconds > 0.0)
    result.exec.measured_speedup =
        result.exec.busy_seconds / result.exec.wall_seconds;
  const double serial_pnr_minutes = model_.predict_serial(
      result.metrics.static_luts, static_region_luts, module_luts);
  if (eval.total > 0.0)
    result.exec.model_speedup = serial_pnr_minutes / eval.total;

  PRESP_INFO("flow") << config.name << ": class "
                     << to_string(result.decision.design_class)
                     << ", strategy "
                     << to_string(result.decision.strategy) << " (tau="
                     << result.decision.tau << "), P&R "
                     << result.pnr_total_minutes << " min, total "
                     << result.total_minutes << " min; exec "
                     << result.exec.tasks << " tasks on "
                     << result.exec.threads << " threads, measured "
                     << result.exec.measured_speedup << "x vs modeled "
                     << result.exec.model_speedup << "x";
  return result;
}

StandardFlowResult PrEspFlow::run_standard(
    const netlist::SocConfig& config) const {
  const netlist::SocRtl rtl = netlist::elaborate(config, lib_);
  const SizeMetrics metrics = compute_metrics(rtl, lib_, device_);

  std::vector<long long> module_luts;
  long long member_total = 0;
  for (const auto& partition : rtl.partitions())
    for (const std::string& module : partition.modules) {
      const long long luts =
          netlist::SocRtl::module_resources(lib_, module).luts;
      module_luts.push_back(luts);
      member_total += luts;
    }

  // The standard flow still floorplans (manually, in practice); pblock
  // area matches ours, so reuse the floorplanner for the static region.
  std::vector<floorplan::PartitionRequest> requests;
  for (int p = 0; p < static_cast<int>(rtl.partitions().size()); ++p)
    requests.push_back(
        {rtl.partitions()[p].name, rtl.partition_demand(lib_, p)});
  const floorplan::Floorplanner planner(device_);
  const floorplan::Floorplan plan = planner.plan(
      requests, rtl.static_resources(lib_), options_.floorplan);

  StandardFlowResult result;
  result.design = config.name;
  // Single Vivado instance: synthesis of the whole design...
  result.synth_minutes =
      model_.synthesis(metrics.static_luts + member_total);
  // ...then a joint serial DPR implementation.
  result.pnr_minutes = model_.predict_standard(
      metrics.static_luts, plan.static_capacity.luts, module_luts);
  result.total_minutes = result.synth_minutes + result.pnr_minutes;
  return result;
}

ScheduleEval evaluate_schedule(const RuntimeModel& model,
                               long long static_luts,
                               long long static_region_luts,
                               const std::vector<long long>& module_luts,
                               Strategy strategy, int tau) {
  ScheduleEval eval;
  eval.t_static = model.static_pnr(static_luts, static_region_luts);
  if (strategy == Strategy::kSerial || module_luts.empty()) {
    eval.total =
        model.predict_serial(static_luts, static_region_luts, module_luts);
    return eval;
  }
  const int n = static_cast<int>(module_luts.size());
  const int effective_tau =
      strategy == Strategy::kFullyParallel ? n : std::min(tau, n);
  const auto groups = balanced_groups(module_luts, effective_tau);
  std::vector<std::vector<long long>> group_luts;
  for (const auto& group : groups) {
    std::vector<long long> luts;
    for (const std::size_t i : group) luts.push_back(module_luts[i]);
    group_luts.push_back(std::move(luts));
  }
  eval.total = model.predict_parallel(static_luts, static_region_luts,
                                      group_luts);
  eval.omega = eval.total - eval.t_static;
  return eval;
}

}  // namespace presp::core
