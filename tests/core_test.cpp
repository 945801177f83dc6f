#include <gtest/gtest.h>

#include <cstdint>

#include "bitstream/bitstream.hpp"
#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "core/reference_designs.hpp"
#include "core/runtime_model.hpp"
#include "core/strategy.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace presp::core {
namespace {

class CoreEnv : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new CoreEnv);  // NOLINT

// ------------------------------------------------------------- metrics

// gtest prints a parameter that has no PrintTo overload as its raw
// bytes, and ctest registers each case under that text. The implicit
// padding after `soc` and `cls` is therefore spelled out and zeroed, so
// the case names cannot pick up stack garbage and change from build to
// build.
struct MetricsCase {
  MetricsCase(int soc_, double kappa_, double alpha_, double gamma_,
              DesignClass cls_)
      : soc(soc_), kappa(kappa_), alpha(alpha_), gamma(gamma_), cls(cls_) {}

  int soc;
  std::int32_t soc_pad = 0;
  double kappa;
  double alpha;
  double gamma;
  DesignClass cls;
  std::int32_t cls_pad = 0;
};
static_assert(sizeof(MetricsCase) ==
                  2 * sizeof(int) + 3 * sizeof(double) +
                      sizeof(DesignClass) + sizeof(std::int32_t),
              "MetricsCase must have no implicit padding bytes");

class CharacterizationMetrics
    : public ::testing::TestWithParam<MetricsCase> {};

// Paper Table III columns for SOC_1..SOC_4. Tolerances reflect the
// component-calibration error budget (static part within a few percent).
TEST_P(CharacterizationMetrics, MatchTable3) {
  const auto& param = GetParam();
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  const auto rtl = netlist::elaborate(characterization_soc(param.soc), lib);
  const SizeMetrics m = compute_metrics(rtl, lib, device);
  EXPECT_NEAR(m.kappa * 100.0, param.kappa, param.kappa * 0.20);
  EXPECT_NEAR(m.alpha_av * 100.0, param.alpha, param.alpha * 0.20);
  EXPECT_NEAR(m.gamma, param.gamma, param.gamma * 0.10);
  EXPECT_EQ(classify(m), param.cls);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable3, CharacterizationMetrics,
    ::testing::Values(
        MetricsCase{1, 27.0, 0.8, 0.48, DesignClass::kClass11},
        MetricsCase{2, 27.2, 10.1, 1.47, DesignClass::kClass12},
        MetricsCase{3, 27.1, 9.6, 1.07, DesignClass::kClass13},
        MetricsCase{4, 11.5, 10.8, 4.1, DesignClass::kClass21}),
    [](const auto& info) {
      return "SOC_" + std::to_string(info.param.soc);
    });

TEST(MetricsTest, ClassificationBandsRespected) {
  SizeMetrics m;
  m.num_partitions = 4;
  m.kappa = 0.27;
  m.alpha_av = 0.01;
  m.gamma = 0.99;  // inside the gamma ~ 1 band
  EXPECT_EQ(classify(m), DesignClass::kClass13);
  m.gamma = 0.80;
  EXPECT_EQ(classify(m), DesignClass::kClass11);
  m.gamma = 1.20;
  EXPECT_EQ(classify(m), DesignClass::kClass12);
}

TEST(MetricsTest, Group2SinglePartitionIsClass22) {
  SizeMetrics m;
  m.num_partitions = 1;
  m.kappa = 0.10;
  m.alpha_av = 0.11;
  m.gamma = 1.05;
  EXPECT_EQ(classify(m), DesignClass::kClass22);
}

TEST(MetricsTest, ImpossibleGroup2GammaBelowOneRejected) {
  SizeMetrics m;
  m.num_partitions = 3;
  m.kappa = 0.10;
  m.alpha_av = 0.12;
  m.gamma = 0.5;
  EXPECT_THROW(classify(m), InvalidArgument);
}

TEST(MetricsTest, NoPartitionsRejected) {
  EXPECT_THROW(classify(SizeMetrics{}), InvalidArgument);
}

// -------------------------------------------------------- runtime model

TEST(RuntimeModelTest, CongestionGrowsQuadratically) {
  const auto device = fabric::Device::vc707();
  const RuntimeModel model(device);
  EXPECT_DOUBLE_EQ(model.congestion(0.0), 1.0);
  EXPECT_GT(model.congestion(0.8), model.congestion(0.4));
  const double low = model.congestion(0.2) - 1.0;
  const double high = model.congestion(0.4) - 1.0;
  EXPECT_NEAR(high / low, 4.0, 1e-9);
}

TEST(RuntimeModelTest, MoreParallelismNeverHurtsMakespanOfGroups) {
  const auto device = fabric::Device::vc707();
  const RuntimeModel model(device);
  const std::vector<long long> mods{37'000, 33'000, 31'000, 21'000};
  double prev = 1e18;
  for (int tau = 2; tau <= 4; ++tau) {
    std::vector<std::vector<long long>> groups;
    for (const auto& g : balanced_groups(mods, tau)) {
      std::vector<long long> luts;
      for (const auto i : g) luts.push_back(mods[i]);
      groups.push_back(luts);
    }
    const double t = model.predict_parallel(83'000, 160'000, groups);
    EXPECT_LE(t, prev + 1e-9);
    prev = t;
  }
}

TEST(RuntimeModelTest, StandardFlowCheaperThanComposedSerialPnr) {
  const auto device = fabric::Device::vc707();
  const RuntimeModel model(device);
  const std::vector<long long> mods{37'000, 33'000};
  EXPECT_LT(model.predict_standard(83'000, 160'000, mods),
            model.predict_serial(83'000, 160'000, mods));
}

TEST(RuntimeModelTest, BalancedGroupsPartitionAllModules) {
  const std::vector<long long> mods{9, 8, 7, 3, 2, 1};
  const auto groups = balanced_groups(mods, 3);
  ASSERT_EQ(groups.size(), 3u);
  std::vector<bool> seen(mods.size(), false);
  for (const auto& g : groups)
    for (const auto i : g) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  for (const bool s : seen) EXPECT_TRUE(s);
  // LPT: loads should be near-balanced (here exactly 10 each).
  for (const auto& g : groups) {
    long long load = 0;
    for (const auto i : g) load += mods[i];
    EXPECT_EQ(load, 10);
  }
}

TEST(RuntimeModelTest, BalancedGroupsClampToModuleCount) {
  const auto groups = balanced_groups({5, 3}, 8);
  EXPECT_EQ(groups.size(), 2u);
}

// ------------------------------------------------------------ strategy

TEST(StrategyTest, Table1MappingPerClass) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  const RuntimeModel model(device);

  const auto decide = [&](int soc) {
    const auto rtl = netlist::elaborate(characterization_soc(soc), lib);
    StrategyInputs in;
    in.metrics = compute_metrics(rtl, lib, device);
    for (const auto& p : rtl.partitions())
      for (const auto& m : p.modules)
        in.module_luts.push_back(
            netlist::SocRtl::module_resources(lib, m).luts);
    in.static_region_luts =
        device.total().luts - static_cast<long long>(1.3 * in.metrics.reconf_luts);
    return choose_strategy(in, model);
  };

  EXPECT_EQ(decide(1).strategy, Strategy::kSerial);          // Class 1.1
  EXPECT_EQ(decide(2).strategy, Strategy::kFullyParallel);   // Class 1.2
  EXPECT_EQ(decide(3).strategy, Strategy::kSemiParallel);    // Class 1.3
  EXPECT_EQ(decide(3).tau, 2);
  EXPECT_EQ(decide(4).strategy, Strategy::kFullyParallel);   // Class 2.1
  EXPECT_EQ(decide(4).tau, 5);
}

TEST(StrategyTest, SerialGroupsEverythingInOneInstance) {
  const auto device = fabric::Device::vc707();
  const RuntimeModel model(device);
  StrategyInputs in;
  in.metrics.num_partitions = 4;
  in.metrics.kappa = 0.3;
  in.metrics.alpha_av = 0.01;
  in.metrics.gamma = 0.5;
  in.metrics.static_luts = 90'000;
  in.module_luts = {3'000, 3'000, 3'000, 3'000};
  in.static_region_luts = 250'000;
  const auto d = choose_strategy(in, model);
  EXPECT_EQ(d.strategy, Strategy::kSerial);
  ASSERT_EQ(d.groups.size(), 1u);
  EXPECT_EQ(d.groups.front().size(), 4u);
}

TEST(StrategyTest, RejectsEmptyModuleList) {
  const auto device = fabric::Device::vc707();
  const RuntimeModel model(device);
  EXPECT_THROW(choose_strategy(StrategyInputs{}, model), InvalidArgument);
}

// ------------------------------------------------- characterization flow

// Paper Table III shape checks: the strategy chosen for each class is the
// measured winner for Classes 1.1, 1.2, 2.1; Class 1.3 is a near-tie in
// the paper itself (134 vs 137 minutes) and in our model, so there we only
// require the chosen strategy to be within 10% of the best.
TEST(FlowShapeTest, Table3WinnersReproduced) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  FlowOptions opt;
  opt.run_physical = false;
  const PrEspFlow flow(device, lib, opt);

  for (const int soc : {1, 2, 3, 4}) {
    const auto result = flow.run(characterization_soc(soc));
    // Evaluate the full sweep with the same module list.
    const auto rtl = netlist::elaborate(characterization_soc(soc), lib);
    std::vector<long long> mods;
    for (const auto& p : rtl.partitions())
      for (const auto& m : p.modules)
        mods.push_back(netlist::SocRtl::module_resources(lib, m).luts);
    const long long region = result.plan.static_capacity.luts;

    double best = 1e18;
    for (int tau = 1; tau <= static_cast<int>(mods.size()); ++tau) {
      const Strategy strategy =
          tau == 1 ? Strategy::kSerial
                   : (tau == static_cast<int>(mods.size())
                          ? Strategy::kFullyParallel
                          : Strategy::kSemiParallel);
      best = std::min(best,
                      evaluate_schedule(flow.model(),
                                        result.metrics.static_luts, region,
                                        mods, strategy, tau)
                          .total);
    }
    if (soc == 3) {
      EXPECT_LE(result.pnr_total_minutes, best * 1.10) << "SOC_" << soc;
    } else {
      EXPECT_LE(result.pnr_total_minutes, best * 1.001) << "SOC_" << soc;
    }
  }
}

TEST(FlowShapeTest, PrEspBeatsStandardFlowForClass12And21) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  FlowOptions opt;
  opt.run_physical = false;
  const PrEspFlow flow(device, lib, opt);
  for (const int soc : {2, 4}) {
    const auto ours = flow.run(characterization_soc(soc));
    const auto standard = flow.run_standard(characterization_soc(soc));
    // Paper Table V: 19-24% total-time improvement for these classes.
    EXPECT_LT(ours.total_minutes, standard.total_minutes * 0.9)
        << "SOC_" << soc;
  }
}

TEST(FlowShapeTest, SerialClassRoughParityWithStandardFlow) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  FlowOptions opt;
  opt.run_physical = false;
  const PrEspFlow flow(device, lib, opt);
  const auto ours = flow.run(characterization_soc(1));
  const auto standard = flow.run_standard(characterization_soc(1));
  // Paper: PR-ESP within a few percent of the standard flow (2.5% slower
  // for SoC_B). Accept +-10%.
  EXPECT_NEAR(ours.total_minutes, standard.total_minutes,
              standard.total_minutes * 0.10);
}

TEST(FlowTest, PhysicalRunProducesBitstreams) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  FlowOptions opt;
  opt.pnr.placer.temperature_steps = 6;
  opt.pnr.placer.moves_per_cell = 1;
  opt.floorplan.refine_iterations = 50;
  const PrEspFlow flow(device, lib, opt);
  const auto result = flow.run(characterization_soc(3));
  EXPECT_TRUE(result.physical_ok);
  ASSERT_EQ(result.modules.size(), 3u);
  for (const auto& m : result.modules) {
    EXPECT_TRUE(m.routed) << m.module;
    EXPECT_GT(m.pbs_raw_bytes, 0u);
    EXPECT_GT(m.pbs_compressed_bytes, 0u);
    EXPECT_LT(m.pbs_compressed_bytes, m.pbs_raw_bytes);
  }
  EXPECT_GT(result.full_bitstream_bytes, 10'000'000u);  // ~19.5 MB VC707
  // The flow reports the size without building the image; it must be
  // the size of the image it would have built.
  netlist::Netlist empty("e");
  EXPECT_EQ(result.full_bitstream_bytes,
            bitstream::BitstreamGenerator(device)
                .full("e", empty, pnr::Placement{})
                .raw_bytes());
}

TEST(FlowTest, ForcedStrategyOverridesTable1) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  FlowOptions opt;
  opt.run_physical = false;
  opt.force_strategy = Strategy::kFullyParallel;
  const PrEspFlow flow(device, lib, opt);
  const auto result = flow.run(characterization_soc(1));  // Class 1.1
  EXPECT_EQ(result.decision.strategy, Strategy::kFullyParallel);
  EXPECT_EQ(result.decision.tau, 16);
}

TEST(FlowTest, ModuleLookupByPartition) {
  const auto device = fabric::Device::vc707();
  const auto lib = characterization_library();
  FlowOptions opt;
  opt.run_physical = false;
  const PrEspFlow flow(device, lib, opt);
  const auto result = flow.run(characterization_soc(2));
  EXPECT_NO_THROW(result.module("RT_1", "conv2d"));
  EXPECT_THROW(result.module("RT_1", "gemm"), InvalidArgument);
}

}  // namespace
}  // namespace presp::core
