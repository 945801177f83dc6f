#include "wami/app.hpp"

#include <algorithm>
#include <cstring>

#include "hls/estimator.hpp"
#include "runtime/workqueue.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace presp::wami {

namespace {

/// Scheduled node: kernel `k` in Lucas-Kanade iteration `iter`. The
/// front-end (1, 2) runs in iteration 0 only; the LK stages (3..11) run
/// every iteration; change detection (12) runs after the last iteration.
struct Node {
  int k = 0;
  int iter = 0;
};

bool node_scheduled(int k, int iter, int iterations) {
  if (k <= 2) return iter == 0;
  if (k == 12) return iter == iterations - 1;
  return true;
}

std::vector<Node> deps_of(int k, int iter, int iterations) {
  switch (k) {
    case 1: return {};
    case 2: return {{1, 0}};
    case 3:
    case 4:
      return iter == 0 ? std::vector<Node>{{2, 0}}
                       : std::vector<Node>{{11, iter - 1}};
    case 5: return {{4, iter}};
    case 6: return {{3, iter}};
    case 7: return {{6, iter}};
    case 8: return {{7, iter}};
    case 9: return {{5, iter}, {6, iter}};
    case 10: return {{8, iter}, {9, iter}};
    case 11: return {{10, iter}};
    case 12: return {{11, iterations - 1}};
    default: throw LogicError("unknown kernel node");
  }
}

std::size_t node_index(int k, int iter) {
  return static_cast<std::size_t>(iter) * (kNumKernels + 1) +
         static_cast<std::size_t>(k);
}

}  // namespace

struct WamiApp::State {
  WamiAppOptions options;
  soc::AcceleratorRegistry registry;
  FrameGenerator generator;
  int frame = 0;

  // DRAM layout (addresses).
  std::uint64_t bayer = 0, rgb = 0, gray = 0, ref = 0, warped = 0,
                error = 0, ix = 0, iy = 0, sd0 = 0, hmat = 0, hinv = 0,
                bvec = 0, params = 0, dp = 0, mask = 0;
  std::size_t plane_bytes = 0;

  /// Serializes software-fallback kernels on the single CPU.
  std::unique_ptr<sim::Semaphore> cpu_lock;

  // Host-side replica state.
  GmmState gmm_soc;
  GmmState gmm_golden;
  ImageU16 golden_mask;
  AffineParams golden_params{};
  ImageF golden_ref;

  // Per-frame completion events, indexed by node_index(k, iter).
  std::vector<std::unique_ptr<sim::SimEvent>> done;

  explicit State(const WamiAppOptions& opt)
      : options(opt),
        registry(wami_accelerator_registry(opt.workload, opt.functional)),
        generator(opt.scene),
        gmm_soc(opt.workload.width, opt.workload.height),
        gmm_golden(opt.workload.width, opt.workload.height),
        golden_mask(opt.workload.width, opt.workload.height),
        golden_ref(opt.workload.width, opt.workload.height) {}

  int w() const { return options.workload.width; }
  int h() const { return options.workload.height; }
  std::size_t pixels() const {
    return static_cast<std::size_t>(w()) * h();
  }

  // ---- typed DRAM helpers ------------------------------------------

  ImageF load_plane(soc::MainMemory& mem, std::uint64_t addr) const {
    ImageF img(w(), h());
    const auto values = load_from_memory<float>(mem, addr, pixels());
    std::copy(values.begin(), values.end(), img.pixels().begin());
    return img;
  }
  void store_plane(soc::MainMemory& mem, std::uint64_t addr,
                   const ImageF& img) const {
    store_to_memory<float>(mem, addr, img.pixels());
  }
  AffineParams load_params(soc::MainMemory& mem) const {
    const auto values = load_from_memory<double>(mem, params, 6);
    AffineParams p{};
    std::copy(values.begin(), values.end(), p.begin());
    return p;
  }

  /// Executes kernel `k` functionally against the simulated DRAM.
  void execute(soc::MainMemory& mem, int k) {
    if (!options.functional) return;
    switch (k) {
      case 1: {
        ImageU16 in(w(), h());
        const auto raw =
            load_from_memory<std::uint16_t>(mem, bayer, pixels());
        std::copy(raw.begin(), raw.end(), in.pixels().begin());
        const RgbImage out = debayer(in);
        store_plane(mem, rgb, out.r);
        store_plane(mem, rgb + plane_bytes, out.g);
        store_plane(mem, rgb + 2 * plane_bytes, out.b);
        break;
      }
      case 2: {
        const RgbImage in{load_plane(mem, rgb),
                          load_plane(mem, rgb + plane_bytes),
                          load_plane(mem, rgb + 2 * plane_bytes)};
        const ImageF out = grayscale(in);
        store_plane(mem, gray, out);
        if (frame == 0) store_plane(mem, ref, out);  // template frame
        break;
      }
      case 3: {
        const Gradients out = gradient(load_plane(mem, gray));
        store_plane(mem, ix, out.ix);
        store_plane(mem, iy, out.iy);
        break;
      }
      case 4: {
        const ImageF out =
            warp_affine(load_plane(mem, gray), load_params(mem));
        store_plane(mem, warped, out);
        break;
      }
      case 5: {
        const ImageF out =
            subtract(load_plane(mem, ref), load_plane(mem, warped));
        store_plane(mem, error, out);
        break;
      }
      case 6: {
        const SteepestDescent out = steepest_descent(
            Gradients{load_plane(mem, ix), load_plane(mem, iy)});
        for (int i = 0; i < 6; ++i)
          store_plane(mem, sd0 + static_cast<std::uint64_t>(i) * plane_bytes,
                      out[static_cast<std::size_t>(i)]);
        break;
      }
      case 7: {
        const Matrix6 out = hessian(load_sd(mem));
        store_to_memory<double>(mem, hmat, out);
        break;
      }
      case 8: {
        const auto in = load_from_memory<double>(mem, hmat, 36);
        Matrix6 m{};
        std::copy(in.begin(), in.end(), m.begin());
        const Matrix6 out = invert6(m);
        store_to_memory<double>(mem, hinv, out);
        break;
      }
      case 9: {
        const Vector6 out =
            sd_update(load_sd(mem), load_plane(mem, error));
        store_to_memory<double>(mem, bvec, out);
        break;
      }
      case 10: {
        const auto hi = load_from_memory<double>(mem, hinv, 36);
        const auto bv = load_from_memory<double>(mem, bvec, 6);
        Matrix6 m{};
        Vector6 b{};
        std::copy(hi.begin(), hi.end(), m.begin());
        std::copy(bv.begin(), bv.end(), b.begin());
        const Vector6 out = delta_p(m, b);
        store_to_memory<double>(mem, dp, out);
        break;
      }
      case 11: {
        AffineParams p = load_params(mem);
        const auto dv = load_from_memory<double>(mem, dp, 6);
        Vector6 v{};
        std::copy(dv.begin(), dv.end(), v.begin());
        update_params(p, v);
        store_to_memory<double>(mem, params, p);
        break;
      }
      case 12: {
        const ImageU16 out =
            change_detection(load_plane(mem, warped), gmm_soc);
        store_to_memory<std::uint16_t>(mem, mask, out.pixels());
        break;
      }
      default:
        throw LogicError("unknown kernel node");
    }
  }

  SteepestDescent load_sd(soc::MainMemory& mem) const {
    SteepestDescent sd{ImageF(w(), h()), ImageF(w(), h()), ImageF(w(), h()),
                       ImageF(w(), h()), ImageF(w(), h()), ImageF(w(), h())};
    for (int i = 0; i < 6; ++i)
      sd[static_cast<std::size_t>(i)] = load_plane(
          mem, sd0 + static_cast<std::uint64_t>(i) * plane_bytes);
    return sd;
  }

  /// Host-side golden replica of one frame (same kernel graph, same
  /// iteration structure, pure software).
  void golden_frame(const ImageU16& input, int iterations) {
    const RgbImage rgb_img = debayer(input);
    const ImageF gray_img = grayscale(rgb_img);
    if (frame == 0) golden_ref = gray_img;
    ImageF warped_img(gray_img.width(), gray_img.height());
    for (int iter = 0; iter < iterations; ++iter) {
      const Gradients grads = gradient(gray_img);
      warped_img = warp_affine(gray_img, golden_params);
      const ImageF error_img = subtract(golden_ref, warped_img);
      const SteepestDescent sdg = steepest_descent(grads);
      const Matrix6 h = hessian(sdg);
      const Matrix6 h_inv = invert6(h);
      const Vector6 b = sd_update(sdg, error_img);
      const Vector6 dpv = delta_p(h_inv, b);
      update_params(golden_params, dpv);
    }
    golden_mask = change_detection(warped_img, gmm_golden);
  }
};

WamiApp::WamiApp(char which, WamiAppOptions options)
    : which_(which), options_(options) {
  PRESP_REQUIRE(options_.frames >= 1, "need at least one frame");
  options_.scene.width = options_.workload.width;
  options_.scene.height = options_.workload.height;

  state_ = std::make_unique<State>(options_);

  // Attach functional models: the accelerator callback simply executes
  // the kernel node carried in the task's aux argument.
  if (options_.functional) {
    State* state = state_.get();
    for (int k = 1; k <= kNumKernels; ++k) {
      const auto base = state->registry.get(kernel_name(k));
      soc::AcceleratorSpec spec = base;
      spec.compute = [state](soc::MainMemory& mem,
                             const soc::AccelTask& task) {
        state->execute(mem, static_cast<int>(task.aux));
      };
      state->registry.add(std::move(spec));
    }
  }

  soc_ = std::make_unique<soc::Soc>(table6_soc(which), state_->registry,
                                    options_.soc);
  if (options_.fault.injector != nullptr)
    soc_->set_fault_injector(options_.fault.injector);
  store_ = std::make_unique<runtime::BitstreamStore>(soc_->memory());
  manager_ = std::make_unique<runtime::ReconfigurationManager>(
      *soc_, *store_, options_.manager);

  // DRAM layout.
  auto& mem = soc_->memory();
  State& s = *state_;
  s.plane_bytes = s.pixels() * sizeof(float);
  s.bayer = mem.allocate("bayer", s.pixels() * 2);
  s.rgb = mem.allocate("rgb", 3 * s.plane_bytes);
  s.gray = mem.allocate("gray", s.plane_bytes);
  s.ref = mem.allocate("ref", s.plane_bytes);
  s.warped = mem.allocate("warped", s.plane_bytes);
  s.error = mem.allocate("error", s.plane_bytes);
  s.ix = mem.allocate("ix", s.plane_bytes);
  s.iy = mem.allocate("iy", s.plane_bytes);
  s.sd0 = mem.allocate("sd", 6 * s.plane_bytes);
  s.hmat = mem.allocate("hessian", 36 * sizeof(double));
  s.hinv = mem.allocate("hinv", 36 * sizeof(double));
  s.bvec = mem.allocate("b", 6 * sizeof(double));
  s.params = mem.allocate("params", 6 * sizeof(double));
  s.dp = mem.allocate("dp", 6 * sizeof(double));
  s.mask = mem.allocate("mask", s.pixels() * 2);

  // Load the partial bitstreams into kernel memory (Section V).
  const auto partitions = table6_partitions(which);
  const auto reconf_indices =
      soc_->config().tiles_of(netlist::TileType::kReconf);
  PRESP_ASSERT(partitions.size() == reconf_indices.size());
  for (std::size_t t = 0; t < partitions.size(); ++t) {
    for (const int k : partitions[t]) {
      std::size_t bytes;
      if (static_cast<std::size_t>(k) <= options_.pbs_bytes.size() &&
          options_.pbs_bytes[static_cast<std::size_t>(k - 1)] > 0) {
        bytes = options_.pbs_bytes[static_cast<std::size_t>(k - 1)];
      } else {
        // ~11 bytes of compressed frames per LUT: lands in the Table VI
        // 245-400 KB range for WAMI-sized kernels.
        bytes = static_cast<std::size_t>(
            state_->registry.get(kernel_name(k)).luts * 11);
      }
      store_->add(reconf_indices[t], kernel_name(k), bytes);
    }
  }

  // Cross-tile images: every kernel loadable on every tile, so a
  // quarantined tile's work can re-route instead of dropping to software.
  if (options_.fault.cross_tile_images) {
    for (const int tile : reconf_indices) {
      for (int k = 1; k <= kNumKernels; ++k) {
        if (store_->has(tile, kernel_name(k))) continue;
        store_->add(tile, kernel_name(k),
                    static_cast<std::size_t>(
                        state_->registry.get(kernel_name(k)).luts * 11));
      }
    }
  }

  // Greybox blanking images: the manager needs them to leave a safe
  // partition behind when it escalates a failed request.
  for (const int tile : reconf_indices)
    if (!store_->has(tile, "")) store_->add_blank(tile, 65'536);
}

WamiApp::~WamiApp() = default;

namespace {

/// One software thread per reconfigurable tile. Reconfigurations are
/// *interleaved*: as soon as the tile finishes a member, the thread queues
/// the reconfiguration for its next member while data dependencies are
/// still being produced by other tiles — with enough tiles this hides most
/// of the reconfiguration latency, which is exactly the effect the paper
/// observes ("[SoC_X] has a higher non-interleaved reconfiguration due to
/// the fewer number of reconfigurable tiles").
sim::Process tile_worker(soc::Soc& soc,
                         runtime::ReconfigurationManager& manager,
                         sim::Kernel& kernel, WamiApp::State& state,
                         int tile, std::vector<int> members, int iterations,
                         WamiWorkload workload,
                         std::uint64_t task_src, std::uint64_t task_dst) {
  std::sort(members.begin(), members.end());  // index order is topological
  for (int iter = 0; iter < iterations; ++iter) {
    for (const int k : members) {
      if (!node_scheduled(k, iter, iterations)) continue;
      // Prefetch: swap the partition to this member immediately; the ICAP
      // transfer overlaps the wait for upstream producers. A non-ok
      // prefetch is ignored: run() below re-routes or reports the final
      // verdict.
      runtime::Completion prefetched(kernel);
      manager.ensure_module(tile, kernel_name(k), prefetched);
      for (const Node dep : deps_of(k, iter, iterations))
        co_await state.done[node_index(dep.k, dep.iter)]->wait();
      co_await prefetched.wait();

      soc::AccelTask task;
      task.src = task_src;
      task.dst = task_dst;
      task.items = kernel_items(k, workload);
      task.aux = static_cast<std::uint64_t>(k);
      runtime::Completion run_done(kernel);
      manager.run(tile, kernel_name(k), task, run_done);
      co_await run_done.wait();
      if (!run_done.ok()) {
        // Hardware path exhausted (tile quarantined, no healthy host):
        // degrade gracefully to the software kernel. Failed hardware
        // attempts never executed the datapath, so this is the node's
        // first and only execution — results stay bit-exact.
        manager.note_fallback();
        co_await state.cpu_lock->acquire();
        const auto cycles = static_cast<sim::Time>(
            static_cast<double>(kernel_items(k, workload)) *
            static_cast<double>(kernel_cycles_per_item(k)) *
            state.options.cpu_fallback_factor);
        co_await sim::Delay(kernel, cycles);
        soc.energy().on_cpu_busy(static_cast<long long>(cycles));
        state.execute(soc.memory(), k);
        state.cpu_lock->release();
      }
      state.done[node_index(k, iter)]->trigger();
    }
  }
}

/// Software-fallback node: kernels absent from this SoC's mapping run on
/// the CPU tile — serialized on the single core and slower per item than
/// the accelerator datapath.
sim::Process virtual_node(soc::Soc& soc, WamiApp::State& state, int k,
                          int iter, int iterations) {
  for (const Node dep : deps_of(k, iter, iterations))
    co_await state.done[node_index(dep.k, dep.iter)]->wait();
  co_await state.cpu_lock->acquire();
  const auto cycles = static_cast<sim::Time>(
      static_cast<double>(kernel_items(k, state.options.workload)) *
      static_cast<double>(kernel_cycles_per_item(k)) *
      state.options.cpu_fallback_factor);
  co_await sim::Delay(soc.kernel(), cycles);
  soc.energy().on_cpu_busy(static_cast<long long>(cycles));
  state.execute(soc.memory(), k);
  state.cpu_lock->release();
  state.done[node_index(k, iter)]->trigger();
}

}  // namespace

WamiAppResult WamiApp::run() {
  State& s = *state_;
  auto& kernel = soc_->kernel();
  auto& mem = soc_->memory();

  const auto partitions = table6_partitions(which_);
  const auto reconf_indices =
      soc_->config().tiles_of(netlist::TileType::kReconf);
  std::vector<bool> present(kNumKernels + 1, false);
  for (const auto& members : partitions)
    for (const int k : members) present[static_cast<std::size_t>(k)] = true;

  // Initialize warp parameters to identity offset (all zeros).
  const std::array<double, 6> zero{};
  store_to_memory<double>(mem, s.params, zero);

  if (!s.cpu_lock)
    s.cpu_lock = std::make_unique<sim::Semaphore>(kernel, 1);

  WamiAppResult result;
  result.soc = which_;

  for (int f = 0; f < options_.frames; ++f) {
    s.frame = f;
    const ImageU16 input = s.generator.next_frame();
    store_to_memory<std::uint16_t>(mem, s.bayer, input.pixels());

    // Fresh completion events.
    const int iterations = options_.lk_iterations;
    s.done.clear();
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(iterations) * (kNumKernels + 1); ++i)
      s.done.push_back(std::make_unique<sim::SimEvent>(kernel));

    const sim::Time t0 = kernel.now();
    const double j0 = soc_->total_joules();
    const auto reconf0 = soc_->aux().reconfigurations();
    const bool tracing = trace::enabled(trace::Category::kApp);
    if (tracing)
      trace::sim_begin(trace::Category::kApp,
                       "frame " + std::to_string(f), t0, trace::kTrackApp);

    for (int iter = 0; iter < iterations; ++iter)
      for (int k = 1; k <= kNumKernels; ++k)
        if (!present[static_cast<std::size_t>(k)] &&
            node_scheduled(k, iter, iterations))
          virtual_node(*soc_, s, k, iter, iterations);
    for (std::size_t t = 0; t < partitions.size(); ++t)
      tile_worker(*soc_, *manager_, kernel, s, reconf_indices[t],
                  partitions[t], iterations, options_.workload, s.gray,
                  s.mask);

    kernel.run();  // frame completes when every process settles

    if (tracing)
      trace::sim_end(trace::Category::kApp, "frame " + std::to_string(f),
                     kernel.now(), trace::kTrackApp);

    for (int iter = 0; iter < iterations; ++iter)
      for (int k = 1; k <= kNumKernels; ++k)
        if (node_scheduled(k, iter, iterations))
          PRESP_ASSERT_MSG(s.done[node_index(k, iter)]->triggered(),
                           "kernel node never completed (deadlock)");

    FrameStats stats;
    stats.seconds = static_cast<double>(kernel.now() - t0) /
                    (soc_->config().clock_mhz * 1e6);
    stats.joules = soc_->total_joules() - j0;
    stats.reconfigurations =
        static_cast<int>(soc_->aux().reconfigurations() - reconf0);

    if (options_.functional && options_.verify) {
      s.golden_frame(input, iterations);
      const auto soc_mask =
          load_from_memory<std::uint16_t>(mem, s.mask, s.pixels());
      const auto soc_params = s.load_params(mem);
      stats.verified =
          std::equal(soc_mask.begin(), soc_mask.end(),
                     s.golden_mask.pixels().begin()) &&
          soc_params == s.golden_params;
      result.all_verified = result.all_verified && stats.verified;
      if (!stats.verified) ++result.frames_lost;
    }
    result.frames.push_back(stats);

    // Between-frame maintenance: scrub partitions (repairs latent SEUs
    // via readback verify + partial-bitstream rewrite) and, for soak
    // runs, re-admit quarantined tiles.
    if (options_.fault.scrub_between_frames) {
      // Pool-backed drain: all partitions scrub concurrently in sim-time
      // (the PRC semaphore still serializes the ICAP readbacks) instead
      // of one full spawn-and-run round trip per tile.
      runtime::RequestPool scrubbers(kernel, *manager_,
                                     options_.fault.scrub_workers);
      for (const int tile : reconf_indices) {
        runtime::PoolRequest request;
        request.kind = runtime::PoolRequest::Kind::kScrub;
        request.tile = tile;
        scrubbers.enqueue(request);
      }
      scrubbers.drain();
      kernel.run();
      PRESP_ASSERT(scrubbers.idle());
    }
    if (options_.fault.rehabilitate_between_frames)
      for (const int tile : reconf_indices) manager_->rehabilitate(tile);
  }

  // Aggregate: steady state excludes the first frame (cold bitstores).
  double sum_s = 0.0;
  double sum_j = 0.0;
  int counted = 0;
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    if (f == 0 && result.frames.size() > 1) {
      result.first_frame_seconds = result.frames[f].seconds;
      continue;
    }
    sum_s += result.frames[f].seconds;
    sum_j += result.frames[f].joules;
    ++counted;
  }
  result.seconds_per_frame = sum_s / std::max(1, counted);
  result.joules_per_frame = sum_j / std::max(1, counted);
  result.reconfigurations = manager_->stats().reconfigurations;
  result.reconfigurations_avoided =
      manager_->stats().reconfigurations_avoided;
  result.icap_bytes = soc_->aux().icap_bytes();
  result.energy_breakdown = soc_->energy_breakdown();
  result.params = options_.functional ? s.load_params(mem) : AffineParams{};
  result.software_fallbacks = manager_->stats().fallbacks;
  result.watchdog_fires = manager_->stats().watchdog_fires;
  result.reroutes = manager_->stats().reroutes;
  result.quarantines = manager_->health().stats().quarantines;
  result.scrub_repairs = manager_->stats().seu_repairs;
  if (options_.fault.injector != nullptr)
    result.faults_injected = options_.fault.injector->stats().total_injected();
  return result;
}

}  // namespace presp::wami
