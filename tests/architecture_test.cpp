// Architectural coverage beyond the paper's evaluation configurations:
// monolithic accelerator tiles, SLM tiles, the CVA6 core option, larger
// grids, and the oracle strategy extension.
#include <gtest/gtest.h>

#include "core/flow.hpp"
#include "core/reference_designs.hpp"
#include "hls/library.hpp"
#include "netlist/rtl.hpp"
#include "util/log.hpp"

namespace presp {
namespace {

class QuietEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new QuietEnv);  // NOLINT

const char* kMixedSoc = R"(
[soc]
name = mixed
device = vc707
rows = 3
cols = 3

[tiles]
r0c0 = cpu:cva6
r0c1 = mem
r0c2 = aux
r1c0 = accel:sort
r1c1 = reconf:conv2d,gemm
r1c2 = slm
r2c0 = reconf:fft
r2c1 = empty
r2c2 = mem
)";

netlist::ComponentLibrary lib() { return core::characterization_library(); }

TEST(ArchitectureTest, MonolithicAcceleratorTileIsStatic) {
  const auto library = lib();
  const auto rtl =
      netlist::elaborate(netlist::SocConfig::parse(kMixedSoc), library);
  // Two reconfigurable partitions only; the accel tile's sort is static.
  EXPECT_EQ(rtl.partitions().size(), 2u);
  const auto static_r = rtl.static_resources(library);
  // Static includes the monolithic sort accelerator.
  EXPECT_GT(static_r.luts,
            library.get("sort").resources.luts +
                library.get(netlist::ComponentLibrary::kCva6).resources.luts);
}

TEST(ArchitectureTest, Cva6CostsMoreThanLeon3) {
  const auto library = lib();
  auto leon_cfg = netlist::SocConfig::parse(kMixedSoc);
  leon_cfg.tile(0, 0).cpu_core = netlist::CpuCore::kLeon3;
  const auto rtl_cva6 =
      netlist::elaborate(netlist::SocConfig::parse(kMixedSoc), library);
  const auto rtl_leon = netlist::elaborate(leon_cfg, library);
  EXPECT_GT(rtl_cva6.static_resources(library).luts,
            rtl_leon.static_resources(library).luts + 20'000);
}

TEST(ArchitectureTest, SlmTileContributesBramHeavyStatic) {
  const auto library = lib();
  const auto rtl =
      netlist::elaborate(netlist::SocConfig::parse(kMixedSoc), library);
  const auto static_r = rtl.static_resources(library);
  EXPECT_GT(static_r.bram36,
            library.get(netlist::ComponentLibrary::kSlmTileLogic)
                .resources.bram36);
}

TEST(ArchitectureTest, MultipleMemTilesAllowed) {
  const auto library = lib();
  const auto config = netlist::SocConfig::parse(kMixedSoc);
  EXPECT_EQ(config.count(netlist::TileType::kMem), 2);
  EXPECT_NO_THROW(netlist::elaborate(config, library));
}

TEST(ArchitectureTest, FlowHandlesMixedSocEndToEnd) {
  const auto library = lib();
  const auto device = fabric::Device::vc707();
  core::FlowOptions opt;
  opt.run_physical = false;
  const core::PrEspFlow flow(device, library, opt);
  const auto result = flow.run(netlist::SocConfig::parse(kMixedSoc));
  EXPECT_EQ(result.plan.pblocks.size(), 2u);
  EXPECT_EQ(result.modules.size(), 3u);  // conv2d, gemm, fft
  EXPECT_GT(result.total_minutes, 0.0);
}

TEST(ArchitectureTest, LargeGridElaborates) {
  netlist::SocConfig config;
  config.name = "big";
  config.rows = 5;
  config.cols = 6;
  config.tiles.assign(30, netlist::TileSpec{});
  config.tile(0, 0).type = netlist::TileType::kCpu;
  config.tile(0, 1).type = netlist::TileType::kMem;
  config.tile(0, 2).type = netlist::TileType::kAux;
  for (int i = 3; i < 30; ++i) {
    auto& tile = config.tiles[static_cast<std::size_t>(i)];
    tile.type = netlist::TileType::kReconf;
    tile.accelerators = {"mac"};
  }
  config.validate();
  const auto library = lib();
  const auto rtl = netlist::elaborate(config, library);
  EXPECT_EQ(rtl.partitions().size(), 27u);
  const auto device = fabric::Device::vc707();
  const auto metrics = core::compute_metrics(rtl, library, device);
  EXPECT_EQ(core::classify(metrics), core::DesignClass::kClass11);
}

// --------------------------------------------------- oracle extension

TEST(OracleStrategyTest, NeverWorseThanTable1Choice) {
  const auto library = lib();
  const auto device = fabric::Device::vc707();
  const core::RuntimeModel model(device);
  for (const int soc : {1, 2, 3, 4}) {
    const auto rtl =
        netlist::elaborate(core::characterization_soc(soc), library);
    core::StrategyInputs in;
    in.metrics = core::compute_metrics(rtl, library, device);
    for (const auto& p : rtl.partitions())
      for (const auto& m : p.modules)
        in.module_luts.push_back(
            netlist::SocRtl::module_resources(library, m).luts);
    in.static_region_luts =
        device.total().luts -
        static_cast<long long>(1.3 *
                               static_cast<double>(in.metrics.reconf_luts));
    const auto table1 = core::choose_strategy(in, model);
    const auto oracle = core::choose_strategy_oracle(in, model);
    EXPECT_LE(oracle.predicted_minutes,
              table1.predicted_minutes + 1e-9)
        << "SOC_" << soc;
    // The oracle agrees with Table I on the clear-cut classes.
    if (soc == 1) {
      EXPECT_EQ(oracle.strategy, core::Strategy::kSerial);
    }
    if (soc == 2) {
      EXPECT_EQ(oracle.strategy, core::Strategy::kFullyParallel);
    }
  }
}

TEST(OracleStrategyTest, ScansIntermediateTaus) {
  const auto device = fabric::Device::vc707();
  const core::RuntimeModel model(device);
  core::StrategyInputs in;
  in.metrics.num_partitions = 6;
  in.metrics.kappa = 0.13;
  in.metrics.alpha_av = 0.10;
  in.metrics.gamma = 4.0;
  in.metrics.static_luts = 40'000;
  in.metrics.reconf_luts = 160'000;
  in.module_luts = {40'000, 35'000, 30'000, 25'000, 20'000, 10'000};
  in.static_region_luts = 90'000;
  const auto oracle = core::choose_strategy_oracle(in, model);
  EXPECT_GE(oracle.tau, 2);
  EXPECT_LE(oracle.tau, 6);
  EXPECT_EQ(oracle.groups.size(), static_cast<std::size_t>(oracle.tau));
}

}  // namespace
}  // namespace presp
