// Serial/parallel determinism: the execution engine's core promise is
// that pool width is a pure performance knob. The same flow run and the
// same WAMI pipeline must produce bit-identical results at 1, 2 and 8
// threads (fixed chunk boundaries + chunk-ordered reductions + per-task
// output slots). This binary is also the one tier 1 re-runs under
// ThreadSanitizer (PRESP_SANITIZE=thread) to validate the pool itself.
#include <gtest/gtest.h>

#include <vector>

#include "core/flow.hpp"
#include "util/log.hpp"
#include "wami/app.hpp"
#include "wami/frame_generator.hpp"
#include "wami/pipeline.hpp"

namespace presp {
namespace {

class QuietEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);  // NOLINT

// ---------------------------------------------------------------- flow

core::FlowResult run_flow(const netlist::SocConfig& config,
                          int exec_threads) {
  const auto device = fabric::Device::vc707();
  const auto lib = wami::wami_library();
  core::FlowOptions opt;
  opt.exec_threads = exec_threads;
  // Cheap placer settings: determinism does not depend on effort.
  opt.pnr.placer.temperature_steps = 4;
  opt.pnr.placer.moves_per_cell = 1;
  opt.floorplan.refine_iterations = 30;
  const core::PrEspFlow flow(device, lib, opt);
  return flow.run(config);
}

void expect_flow_results_identical(const core::FlowResult& a,
                                   const core::FlowResult& b) {
  EXPECT_EQ(a.design, b.design);
  EXPECT_EQ(a.decision.strategy, b.decision.strategy);
  EXPECT_EQ(a.decision.tau, b.decision.tau);
  EXPECT_EQ(a.decision.groups, b.decision.groups);
  EXPECT_EQ(a.physical_ok, b.physical_ok);
  EXPECT_EQ(a.timing_met, b.timing_met);
  EXPECT_EQ(a.full_bitstream_bytes, b.full_bitstream_bytes);
  EXPECT_EQ(a.achieved_fmax_mhz, b.achieved_fmax_mhz);  // bit-exact
  EXPECT_EQ(a.synth_makespan_minutes, b.synth_makespan_minutes);
  EXPECT_EQ(a.pnr_total_minutes, b.pnr_total_minutes);
  ASSERT_EQ(a.modules.size(), b.modules.size());
  for (std::size_t i = 0; i < a.modules.size(); ++i) {
    const auto& ma = a.modules[i];
    const auto& mb = b.modules[i];
    EXPECT_EQ(ma.partition, mb.partition) << i;
    EXPECT_EQ(ma.module, mb.module) << i;
    EXPECT_EQ(ma.routed, mb.routed) << ma.module;
    EXPECT_EQ(ma.utilization.luts, mb.utilization.luts) << ma.module;
    EXPECT_EQ(ma.pbs_raw_bytes, mb.pbs_raw_bytes) << ma.module;
    EXPECT_EQ(ma.pbs_compressed_bytes, mb.pbs_compressed_bytes)
        << ma.module;
  }
}

TEST(FlowDeterminism, IdenticalResultsAtOneTwoAndEightThreads) {
  // SoC_A selects the fully-parallel strategy; its member P&R runs, like
  // its synthesis runs, execute concurrently on the pool.
  const auto soc_a = wami::table4_soc('A');
  const auto serial = run_flow(soc_a, 1);
  const auto two = run_flow(soc_a, 2);
  const auto eight = run_flow(soc_a, 8);
  ASSERT_TRUE(serial.physical_ok);
  expect_flow_results_identical(serial, two);
  expect_flow_results_identical(serial, eight);
  EXPECT_EQ(two.exec.threads, 2);
  EXPECT_EQ(eight.exec.threads, 8);
  // Graph bookkeeping: static synth + per-member synth + static P&R +
  // per-member P&R.
  EXPECT_EQ(eight.exec.tasks, 2 * serial.modules.size() + 2);
  EXPECT_GT(eight.exec.wall_seconds, 0.0);
  EXPECT_GE(eight.exec.model_speedup, 1.0);
}

TEST(FlowDeterminism, SerialAndSemiParallelMembersFanOutIdentically) {
  // The host P&R graph is static plus one task per member whatever the
  // modeled strategy, so the members of a serial (SoC_B) and a
  // semi-parallel (Table VI SoC_Y, tau=2) SoC run concurrently too. The
  // pool must still not change a bit of the result.
  struct Case {
    netlist::SocConfig config;
    core::Strategy strategy;
    int tau;
  };
  const Case cases[] = {
      {wami::table4_soc('B'), core::Strategy::kSerial, 1},
      {wami::table6_soc('Y'), core::Strategy::kSemiParallel, 2},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.config.name);
    const auto serial = run_flow(c.config, 1);
    ASSERT_TRUE(serial.physical_ok);
    EXPECT_EQ(serial.decision.strategy, c.strategy);
    EXPECT_EQ(serial.decision.tau, c.tau);
    for (const int threads : {2, 8}) {
      const auto pooled = run_flow(c.config, threads);
      expect_flow_results_identical(serial, pooled);
      EXPECT_EQ(pooled.exec.threads, threads);
      // static synth + per-member synth + static P&R + per-member P&R.
      EXPECT_EQ(pooled.exec.tasks, 2 * serial.modules.size() + 2);
    }
  }
}

// ---------------------------------------------------------------- wami

std::vector<wami::ImageU16> make_frames(int count) {
  wami::SceneOptions scene;
  scene.width = 96;
  scene.height = 96;
  wami::FrameGenerator gen(scene);
  std::vector<wami::ImageU16> frames;
  for (int i = 0; i < count; ++i) frames.push_back(gen.next_frame());
  return frames;
}

std::vector<wami::PipelineFrameResult> run_pipeline(
    const std::vector<wami::ImageU16>& frames, int threads, bool batch) {
  wami::PipelineOptions options;
  options.lk_iterations = 3;
  options.threads = threads;
  wami::WamiPipeline pipeline(options);
  if (batch)
    return pipeline.process_batch(frames);
  std::vector<wami::PipelineFrameResult> results;
  for (const auto& frame : frames) results.push_back(pipeline.process(frame));
  return results;
}

void expect_wami_results_identical(
    const std::vector<wami::PipelineFrameResult>& a,
    const std::vector<wami::PipelineFrameResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].params, b[i].params) << "frame " << i;          // doubles
    EXPECT_EQ(a[i].residual, b[i].residual) << "frame " << i;      // double
    EXPECT_EQ(a[i].stabilized, b[i].stabilized) << "frame " << i;  // floats
    EXPECT_EQ(a[i].change_mask, b[i].change_mask) << "frame " << i;
    EXPECT_EQ(a[i].changed_pixels, b[i].changed_pixels) << "frame " << i;
  }
}

TEST(WamiDeterminism, IdenticalChecksumsAtOneTwoAndEightThreads) {
  const auto frames = make_frames(4);
  const auto serial = run_pipeline(frames, 1, /*batch=*/false);
  expect_wami_results_identical(serial, run_pipeline(frames, 2, false));
  expect_wami_results_identical(serial, run_pipeline(frames, 8, false));
}

TEST(WamiDeterminism, StagePipelinedBatchMatchesPerFrameCalls) {
  const auto frames = make_frames(4);
  const auto per_frame = run_pipeline(frames, 1, /*batch=*/false);
  expect_wami_results_identical(per_frame, run_pipeline(frames, 1, true));
  expect_wami_results_identical(per_frame, run_pipeline(frames, 4, true));
}

TEST(WamiDeterminism, FusedLumaMatchesComposedDebayerGrayscale) {
  const auto frames = make_frames(2);
  for (const auto& frame : frames) {
    const wami::ImageF composed = grayscale(debayer(frame));
    EXPECT_EQ(composed, wami::luma_from_bayer(frame));
  }
}

}  // namespace
}  // namespace presp
