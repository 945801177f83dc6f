// Tests for the software WAMI pipeline API and the bitstream artifact
// files (flow -> disk -> loader round trip).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bitstream/artifact_io.hpp"
#include "core/flow.hpp"
#include "core/reference_designs.hpp"
#include "util/log.hpp"
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

// ------------------------------------------------------------ pipeline

TEST(WamiPipelineTest, TracksCameraDriftAcrossFrames) {
  wami::SceneOptions scene;
  scene.width = 64;
  scene.height = 64;
  scene.drift_x = 1.0;
  scene.drift_y = -0.6;
  scene.num_objects = 0;
  scene.noise_sigma = 0.5;
  wami::FrameGenerator gen(scene);
  wami::WamiPipeline pipeline;
  wami::PipelineFrameResult last;
  for (int f = 0; f < 4; ++f) last = pipeline.process(gen.next_frame());
  EXPECT_EQ(pipeline.frames_processed(), 4);
  // After 3 drift steps the recovered translation matches the
  // accumulated camera motion. Sign convention: camera drift +d shifts
  // scene content by -d in camera coordinates, and warp_affine samples
  // the source at +p, so registration recovers p = -drift.
  EXPECT_NEAR(last.params[4], -3.0 * scene.drift_x, 0.5);
  EXPECT_NEAR(last.params[5], -3.0 * scene.drift_y, 0.5);
}

TEST(WamiPipelineTest, StabilizationReducesResidualVsRaw) {
  wami::SceneOptions scene;
  scene.width = 64;
  scene.height = 64;
  scene.drift_x = 1.5;
  scene.num_objects = 0;
  scene.noise_sigma = 0.5;
  wami::FrameGenerator gen(scene);
  wami::WamiPipeline pipeline;
  const auto first = pipeline.process(gen.next_frame());
  (void)first;
  const auto bayer = gen.next_frame();
  const auto raw = wami::grayscale(wami::debayer(bayer));
  const auto result = pipeline.process(bayer);
  // Residual against the template after registration beats the raw
  // difference.
  double raw_mae = 0.0;
  const auto& ref = *pipeline.reference();
  for (std::size_t i = 0; i < raw.size(); ++i)
    raw_mae += std::abs(raw.pixels()[i] - ref.pixels()[i]);
  raw_mae /= static_cast<double>(raw.size());
  EXPECT_LT(result.residual, raw_mae);
}

TEST(WamiPipelineTest, FlagsMovingObjects) {
  wami::SceneOptions scene;
  scene.width = 64;
  scene.height = 64;
  scene.drift_x = 0.0;
  scene.drift_y = 0.0;
  scene.num_objects = 2;
  scene.object_size = 6;
  scene.object_speed = 3.0;
  wami::FrameGenerator gen(scene);
  wami::WamiPipeline pipeline;
  int last_changed = 0;
  // Let the GMM absorb the background first (same burn-in as the
  // kernel-level tests), then check a steady-state frame.
  for (int f = 0; f < 16; ++f)
    last_changed = pipeline.process(gen.next_frame()).changed_pixels;
  // Two 6x6 movers: the mask should flag roughly their area (trail +
  // leading edge), not the whole frame.
  EXPECT_GT(last_changed, 10);
  EXPECT_LT(last_changed, 64 * 64 / 4);
}

TEST(WamiPipelineTest, ResetStartsOver) {
  wami::FrameGenerator gen(wami::SceneOptions{64, 64});
  wami::WamiPipeline pipeline;
  pipeline.process(gen.next_frame());
  pipeline.process(gen.next_frame());
  pipeline.reset();
  EXPECT_EQ(pipeline.frames_processed(), 0);
  EXPECT_FALSE(pipeline.reference().has_value());
  const auto result = pipeline.process(gen.next_frame());
  EXPECT_EQ(result.params, wami::AffineParams{});  // new template frame
}

// ------------------------------------------------------------ artifacts

TEST(ArtifactIoTest, WriteReadRoundTrip) {
  const auto device = fabric::Device::vc707();
  const bitstream::BitstreamGenerator gen(device);
  netlist::Netlist nl("a");
  nl.add_cell({"c", netlist::CellKind::kLogic, {300, 0, 0, 0}, ""});
  pnr::Placement placement;
  placement.locations = {{10, 1}};
  const auto pbs =
      gen.partial("soc", "mod", fabric::Pblock{8, 20, 1, 1}, nl, placement);

  const std::string path = ::testing::TempDir() + "/rt.pbs";
  bitstream::write_bitstream(pbs, path);
  const auto loaded = bitstream::read_bitstream(path);
  EXPECT_EQ(loaded.design, "soc");
  EXPECT_EQ(loaded.module, "mod");
  EXPECT_TRUE(loaded.partial);
  EXPECT_EQ(loaded.pblock.col_lo, 8);
  EXPECT_EQ(loaded.words, pbs.words);
  EXPECT_EQ(loaded.rle, pbs.rle);
  EXPECT_EQ(loaded.word_count, pbs.word_count);
  EXPECT_EQ(loaded.crc, pbs.crc);
  std::remove(path.c_str());
}

TEST(ArtifactIoTest, CorruptedFileDetected) {
  const auto device = fabric::Device::vc707();
  const bitstream::BitstreamGenerator gen(device);
  netlist::Netlist nl("a");
  nl.add_cell({"c", netlist::CellKind::kLogic, {300, 0, 0, 0}, ""});
  pnr::Placement placement;
  placement.locations = {{10, 1}};
  const auto pbs =
      gen.partial("soc", "mod", fabric::Pblock{8, 20, 1, 1}, nl, placement);
  const std::string path = ::testing::TempDir() + "/bad.pbs";
  bitstream::write_bitstream(pbs, path);
  // Flip one payload byte near the end of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    char byte;
    f.read(&byte, 1);
    f.seekp(-5, std::ios::end);
    byte = static_cast<char>(byte ^ 0x7);
    f.write(&byte, 1);
  }
  EXPECT_THROW(bitstream::read_bitstream(path), Error);
  std::remove(path.c_str());

  EXPECT_THROW(bitstream::read_bitstream("/nonexistent.pbs"),
               InvalidArgument);
}

TEST(ArtifactIoTest, FlowWritesArtifactsPerModule) {
  const auto dir = ::testing::TempDir() + "/presp_artifacts";
  std::filesystem::create_directories(dir);
  const auto device = fabric::Device::vc707();
  const auto lib = core::characterization_library();
  core::FlowOptions opt;
  opt.pnr.placer.temperature_steps = 4;
  opt.pnr.placer.moves_per_cell = 1;
  opt.floorplan.refine_iterations = 20;
  opt.artifacts_dir = dir;
  const core::PrEspFlow flow(device, lib, opt);
  const auto result = flow.run(core::characterization_soc(3));
  ASSERT_TRUE(result.physical_ok);

  for (const auto& m : result.modules) {
    const auto path =
        dir + "/" + bitstream::pbs_filename("soc_3", m.partition, m.module);
    const auto loaded = bitstream::read_bitstream(path);
    EXPECT_EQ(loaded.module, m.module);
    // On-disk size tracks the reported compressed size (header deltas
    // aside).
    EXPECT_NEAR(static_cast<double>(std::filesystem::file_size(path)),
                static_cast<double>(m.pbs_compressed_bytes),
                static_cast<double>(m.pbs_compressed_bytes) * 0.05);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace presp
