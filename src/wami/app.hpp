// The WAMI control application (paper Section VI, second experiment).
//
// "We also developed a multi-threaded Linux software, with one thread per
// reconfigurable tile, to control the execution flow of accelerators. All
// SoCs process individual frames without pipelining."
//
// Each frame traverses the Fig. 3 dataflow DAG:
//
//   1 debayer -> 2 grayscale -> { 3 gradient, 4 warp }
//   4 -> 5 subtract;   3 -> 6 steepest-descent
//   6 -> 7 hessian -> 8 invert;   {5,6} -> 9 sd-update
//   {8,9} -> 10 delta-p -> 11 param-update -> 12 change detection
//
// Kernels absent from a SoC's Table VI mapping become virtual nodes that
// complete as soon as their dependencies do (their work is folded into
// neighbours by that mapping). One software thread (coroutine) per
// reconfigurable tile walks its members in topological order, letting the
// runtime manager reconfigure and run each; frames are not pipelined.
//
// With `functional` enabled the accelerators execute the real kernels on
// simulated DRAM and every frame is checked bit-exactly against a
// host-side replica of the same kernel graph.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "runtime/api.hpp"
#include "wami/accelerators.hpp"
#include "wami/frame_generator.hpp"
#include "wami/kernels.hpp"

namespace presp::wami {

/// Fault-tolerance knobs for chaos/soak experiments. With an injector
/// attached the app still verifies every frame bit-exactly: failed
/// hardware attempts never execute the datapath, so the software fallback
/// (or the rerouted tile) is always the first and only execution.
struct WamiFaultOptions {
  /// Attached to the SoC before the first frame (not owned; must outlive
  /// the app).
  fault::FaultInjector* injector = nullptr;
  /// Register every kernel's bitstream for every reconfigurable tile so
  /// quarantined work can re-route instead of falling back to software.
  bool cross_tile_images = false;
  /// Readback-scrub every partition between frames (repairs SEUs that
  /// have not yet been caught by a start-time check).
  bool scrub_between_frames = false;
  /// Worker processes draining the between-frame scrub queue (sim-time
  /// concurrency via runtime::RequestPool; 1 reproduces the old serial
  /// drain's contention, any value yields the same repairs).
  int scrub_workers = 4;
  /// Re-admit quarantined tiles between frames (soak benches re-arm
  /// faults each frame; rehabilitation keeps every tile in play).
  bool rehabilitate_between_frames = false;
};

struct WamiAppOptions {
  WamiWorkload workload{128, 128};
  int frames = 3;
  /// Lucas-Kanade iterations per frame (stages 3..11 repeat).
  int lk_iterations = 2;
  /// Kernels absent from the SoC's Table VI mapping are folded into the
  /// software control loop on the CPU tile, charged the same per-item
  /// datapath cost scaled by this factor (1.0 models the mapping's
  /// intent: the omitted stage is fused into a neighbouring kernel's
  /// pass; bench_ablation_cpu_fallback sweeps the penalty of a genuine
  /// software implementation).
  double cpu_fallback_factor = 1.0;
  bool functional = true;
  /// Verify each frame's outputs against the host-side replica
  /// (requires functional).
  bool verify = true;
  SceneOptions scene;
  /// Compressed partial bitstream bytes per kernel index (1..12). When
  /// empty, sizes are estimated from the kernel LUT footprint (~11 B/LUT,
  /// matching the Table VI range); benches inject flow-measured sizes.
  std::vector<std::size_t> pbs_bytes;
  soc::SocOptions soc;
  /// Runtime manager tuning (watchdogs, retry budgets, health policy).
  runtime::ManagerOptions manager;
  WamiFaultOptions fault;
};

struct FrameStats {
  double seconds = 0.0;
  double joules = 0.0;
  int reconfigurations = 0;
  bool verified = true;
};

struct WamiAppResult {
  char soc = '?';
  std::vector<FrameStats> frames;
  double seconds_per_frame = 0.0;  // steady-state mean (first frame excluded)
  double joules_per_frame = 0.0;
  double first_frame_seconds = 0.0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t reconfigurations_avoided = 0;
  std::uint64_t icap_bytes = 0;
  soc::EnergyMeter::Breakdown energy_breakdown;
  bool all_verified = true;
  /// Final registration parameters (functional runs).
  AffineParams params{};
  // ---- fault-tolerance telemetry (zero without an injector) ----
  /// Kernel nodes executed in software after the hardware path reported a
  /// non-ok status.
  std::uint64_t software_fallbacks = 0;
  std::uint64_t watchdog_fires = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t scrub_repairs = 0;
  std::uint64_t faults_injected = 0;
  /// Frames whose outputs failed bit-exact verification (the soak target
  /// is zero even under heavy fault injection).
  int frames_lost = 0;
};

class WamiApp {
 public:
  /// `which` selects SoC_X / SoC_Y / SoC_Z (Table VI).
  WamiApp(char which, WamiAppOptions options = {});
  ~WamiApp();
  WamiApp(const WamiApp&) = delete;
  WamiApp& operator=(const WamiApp&) = delete;

  /// Runs the configured number of frames to completion.
  WamiAppResult run();

  soc::Soc& soc() { return *soc_; }
  runtime::ReconfigurationManager& manager() { return *manager_; }
  runtime::BitstreamStore& store() { return *store_; }

  /// Implementation detail exposed for the in-translation-unit worker
  /// coroutines; not part of the stable API.
  struct State;

 private:
  std::unique_ptr<State> state_;
  std::unique_ptr<soc::Soc> soc_;
  std::unique_ptr<runtime::BitstreamStore> store_;
  std::unique_ptr<runtime::ReconfigurationManager> manager_;
  char which_;
  WamiAppOptions options_;
};

}  // namespace presp::wami
