// The WAMI-App case study end to end: runs the full SoC simulation of
// SoC_Y (three reconfigurable tiles, Table VI mapping) processing a
// synthetic aerial-imagery stream with runtime partial reconfiguration,
// and verifies every frame bit-exactly against the software pipeline.
//
// Build and run:
//   ./build/examples/wami_app [frames] [--trace out.json] [--ops-port N]
//
// --ops-port serves live telemetry on 127.0.0.1:N while the app runs
// (0 = ephemeral): curl /metrics, /health (tile health + quarantine
// stats from the reconfiguration manager), /trace/summary, /events.
//
// With --trace, the run records the runtime manager's reconfiguration
// lifecycle, NoC channel depths and per-frame application spans on the
// sim-time timeline (plus host-side exec spans). Open the output in
// chrome://tracing / Perfetto, or summarize with presp-trace.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include <vector>

#include "ops/server.hpp"
#include "ops/sources.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/log.hpp"
#include "wami/app.hpp"
#include "wami/frame_generator.hpp"
#include "wami/pipeline.hpp"

using namespace presp;

int main(int argc, char** argv) {
  set_log_level(LogLevel::kInfo);

  wami::WamiAppOptions options;
  std::string trace_path;
  std::string trace_categories;
  int ops_port = -1;  // < 0: no ops server
  int frames = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-categories") == 0 &&
               i + 1 < argc) {
      trace_categories = argv[++i];
    } else if (std::strcmp(argv[i], "--ops-port") == 0 && i + 1 < argc) {
      ops_port = std::atoi(argv[++i]);
    } else {
      frames = std::atoi(argv[i]);
    }
  }
  options.frames = frames;
  options.workload = {128, 128};
  options.lk_iterations = 2;
  options.scene.drift_x = 1.2;
  options.scene.drift_y = -0.7;
  options.scene.num_objects = 3;

  std::printf("WAMI application on SoC_Y: %d frames of %dx%d, %d LK "
              "iterations per frame\n",
              options.frames, options.workload.width,
              options.workload.height, options.lk_iterations);
  std::printf("tile mapping (Table VI): RT_1{1,3,7,12} RT_2{2,6,8} "
              "RT_3{4,9,10}; kernels 5,11 run in software\n\n");

  if (!trace_path.empty()) {
    trace::TraceConfig trace_config;
    if (!trace_categories.empty())
      trace_config.categories = trace::parse_categories(trace_categories);
    trace::TraceSession::instance().start(trace_config);
    trace::set_thread_name("main");
  }

  wami::WamiApp app('Y', options);

  // Live ops overlay: /health reflects the reconfiguration manager's
  // tile-health registry while the frames run.
  std::unique_ptr<ops::OpsServer> ops_server;
  if (ops_port >= 0) {
    ops::OpsOptions ops_options;
    ops_options.enabled = true;
    ops_options.port = ops_port;
    ops_server = std::make_unique<ops::OpsServer>(ops_options);
    ops_server->set_health_source([&app] {
      auto& health = app.manager().health();
      return ops::tile_health_json(health.snapshot(), health.stats());
    });
    ops_server->start();
    std::printf("ops server on 127.0.0.1:%d (curl /metrics, /health, "
                "/trace/summary; stream /events)\n\n",
                ops_server->port());
  }

  const auto result = app.run();

  // Pooled software pipeline over the same scene: the same kernels on the
  // exec engine, so a traced run carries per-worker task spans on the
  // host timeline next to the SoC's reconfiguration spans in sim time.
  {
    wami::PipelineOptions pipeline_options;
    pipeline_options.lk_iterations = options.lk_iterations;
    pipeline_options.threads = 4;
    wami::WamiPipeline pipeline(pipeline_options);
    wami::FrameGenerator generator(options.scene);
    std::vector<wami::ImageU16> bayer_frames;
    bayer_frames.reserve(static_cast<std::size_t>(options.frames));
    for (int f = 0; f < options.frames; ++f)
      bayer_frames.push_back(generator.next_frame());
    long long changed = 0;
    for (const auto& fr : pipeline.process_batch(bayer_frames))
      changed += fr.changed_pixels;
    const auto pool_stats = pipeline.pool_stats();
    std::printf("software pipeline (%d worker threads): %d frames, %lld "
                "changed pixels, %llu pool tasks\n",
                pipeline_options.threads, options.frames, changed,
                static_cast<unsigned long long>(pool_stats.executed));
  }

  if (!trace_path.empty()) {
    const trace::TraceReport report = trace::TraceSession::instance().stop();
    trace::write_chrome_trace(report, trace_path);
    std::printf("trace: %zu events (%llu dropped) written to %s\n\n",
                report.events.size(),
                static_cast<unsigned long long>(report.dropped),
                trace_path.c_str());
  }

  std::printf("%-6s %12s %12s %8s %10s\n", "frame", "ms", "joules",
              "reconf", "verified");
  for (std::size_t f = 0; f < result.frames.size(); ++f) {
    const auto& fr = result.frames[f];
    std::printf("%-6zu %12.2f %12.4f %8d %10s\n", f, fr.seconds * 1e3,
                fr.joules, fr.reconfigurations,
                fr.verified ? "yes" : "NO");
  }
  std::printf("\nsteady state: %.2f ms/frame, %.4f J/frame\n",
              result.seconds_per_frame * 1e3, result.joules_per_frame);
  std::printf("reconfigurations: %llu (%llu avoided), %.1f MB through the "
              "ICAP\n",
              static_cast<unsigned long long>(result.reconfigurations),
              static_cast<unsigned long long>(
                  result.reconfigurations_avoided),
              static_cast<double>(result.icap_bytes) / 1e6);
  std::printf("registration parameters after %d frames: tx=%.2f ty=%.2f\n",
              options.frames, result.params[4], result.params[5]);
  std::printf("hardware/software equivalence: %s\n",
              result.all_verified ? "bit-exact on every frame"
                                  : "MISMATCH DETECTED");

  const auto& manager_stats = app.manager().stats();
  std::printf(
      "runtime manager: prc wait %.2f ms, tile-lock wait %.2f ms, max "
      "queue depth %d\n",
      static_cast<double>(manager_stats.prc_wait_cycles) / 78e3,
      static_cast<double>(manager_stats.lock_wait_cycles) / 78e3,
      manager_stats.max_queue_depth);
  return result.all_verified ? 0 : 1;
}
