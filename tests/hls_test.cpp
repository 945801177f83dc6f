#include <gtest/gtest.h>

#include "hls/estimator.hpp"
#include "hls/library.hpp"
#include "util/error.hpp"

namespace presp::hls {
namespace {

TEST(EstimatorTest, Deterministic) {
  const auto a = estimate(conv2d_kernel());
  const auto b = estimate(conv2d_kernel());
  EXPECT_EQ(a.resources, b.resources);
  EXPECT_EQ(a.latency.items_per_beat, b.latency.items_per_beat);
}

TEST(EstimatorTest, ResourcesScaleWithPes) {
  KernelSpec spec = gemm_kernel();
  const auto small = estimate(spec);
  spec.num_pes *= 2;
  const auto big = estimate(spec);
  EXPECT_GT(big.resources.luts, small.resources.luts);
  EXPECT_GT(big.resources.dsp, small.resources.dsp);
}

TEST(EstimatorTest, ScratchpadMapsToBram) {
  KernelSpec spec = mac_kernel();
  spec.scratchpad_bytes = 0;
  EXPECT_EQ(estimate(spec).resources.bram36, 0);
  spec.scratchpad_bytes = 4096;
  EXPECT_EQ(estimate(spec).resources.bram36, 1);
  spec.scratchpad_bytes = 4097;
  EXPECT_EQ(estimate(spec).resources.bram36, 2);
}

TEST(EstimatorTest, RejectsInvalidSpecs) {
  KernelSpec spec = mac_kernel();
  spec.num_pes = 0;
  EXPECT_THROW(estimate(spec), InvalidArgument);
  spec = mac_kernel();
  spec.name.clear();
  EXPECT_THROW(estimate(spec), InvalidArgument);
  spec = mac_kernel();
  spec.pipeline_ii = 0;
  EXPECT_THROW(estimate(spec), InvalidArgument);
}

TEST(LatencyModelTest, ComputeCyclesPipelined) {
  LatencyModel m;
  m.startup_cycles = 100;
  m.items_per_beat = 4;
  m.ii = 1;
  m.drain_cycles = 10;
  EXPECT_EQ(m.compute_cycles(0), 100);
  EXPECT_EQ(m.compute_cycles(1), 111);
  EXPECT_EQ(m.compute_cycles(4), 111);
  EXPECT_EQ(m.compute_cycles(5), 112);
  EXPECT_EQ(m.compute_cycles(400), 210);
}

TEST(LatencyModelTest, RejectsNegativeItems) {
  LatencyModel m;
  EXPECT_THROW(m.compute_cycles(-1), InvalidArgument);
}

// Calibration against the paper's Table II (LUT counts on VC707).
struct Table2Case {
  const char* name;
  double paper_luts;
};

// gtest names each case "<name>  # GetParam() = <printed param>". Without a
// printer it dumps the raw bytes, i.e. the address of `name`, which moves
// with ASLR and the build path, so every build got different test names.
void PrintTo(const Table2Case& c, std::ostream* os) {
  *os << c.name << " (" << c.paper_luts << " LUTs)";
}

class Table2Fixture : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2Fixture, LutsWithinThreePercentOfPaper) {
  const auto& param = GetParam();
  for (const KernelSpec& spec : characterization_kernels()) {
    if (spec.name == param.name) {
      const auto kernel = estimate(spec);
      EXPECT_NEAR(static_cast<double>(kernel.resources.luts),
                  param.paper_luts, param.paper_luts * 0.03)
          << spec.name;
      return;
    }
  }
  FAIL() << "kernel not found: " << param.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperTable2, Table2Fixture,
    ::testing::Values(Table2Case{"mac", 2'450},
                      Table2Case{"conv2d", 36'741},
                      Table2Case{"gemm", 30'617},
                      Table2Case{"fft", 33'690},
                      Table2Case{"sort", 20'468}),
    [](const ::testing::TestParamInfo<Table2Case>& info) {
      return info.param.name;
    });

TEST(LibraryTest, RegistersAllFiveKernels) {
  auto lib = netlist::ComponentLibrary::with_builtins();
  register_characterization_kernels(lib);
  for (const char* name : {"mac", "conv2d", "gemm", "fft", "sort"}) {
    ASSERT_TRUE(lib.has(name)) << name;
    EXPECT_TRUE(lib.get(name).reconfigurable);
  }
}

TEST(LibraryTest, KernelsHavePositiveThroughput) {
  for (const KernelSpec& spec : characterization_kernels()) {
    const auto kernel = estimate(spec);
    EXPECT_GT(kernel.latency.items_per_beat, 0) << spec.name;
    EXPECT_GT(kernel.latency.compute_cycles(1000), 0) << spec.name;
  }
}

}  // namespace
}  // namespace presp::hls
