// Tests for user-defined accelerator specifications in configuration
// files (hls/spec_io).
#include <gtest/gtest.h>

#include "hls/estimator.hpp"
#include "hls/spec_io.hpp"
#include "util/error.hpp"

namespace presp::hls {
namespace {

const char* kText = R"(
[soc]
name = x

[accelerator edge_detect]
flow = vivado_hls
ops = mul16:9, add16:8
pes = 12
address_generators = 4
fsm_states = 14
buffer_luts = 900
scratchpad_kb = 32
words_in_per_item = 0.5
words_out_per_item = 0.25

[accelerator fir]
ops = mac32
pes = 64
)";

TEST(SpecIoTest, ParsesFullSection) {
  const auto cfg = Config::parse(kText);
  const KernelSpec spec =
      kernel_spec_from_config(cfg, "accelerator edge_detect");
  EXPECT_EQ(spec.name, "edge_detect");
  EXPECT_EQ(spec.flow, HlsFlow::kVivadoHls);
  ASSERT_EQ(spec.pe_ops.size(), 2u);
  EXPECT_EQ(spec.pe_ops[0].kind, OpKind::kMul16);
  EXPECT_EQ(spec.pe_ops[0].count, 9);
  EXPECT_EQ(spec.pe_ops[1].kind, OpKind::kAdd16);
  EXPECT_EQ(spec.num_pes, 12);
  EXPECT_EQ(spec.scratchpad_bytes, 32 * 1024);
  EXPECT_DOUBLE_EQ(spec.words_in_per_item, 0.5);
}

TEST(SpecIoTest, DefaultsApplied) {
  const auto cfg = Config::parse(kText);
  const KernelSpec spec = kernel_spec_from_config(cfg, "accelerator fir");
  EXPECT_EQ(spec.flow, HlsFlow::kStratusHls);
  EXPECT_EQ(spec.pe_ops.size(), 1u);
  EXPECT_EQ(spec.pe_ops[0].count, 1);  // bare token
  EXPECT_EQ(spec.address_generators, 1);
  EXPECT_EQ(spec.fsm_states, 8);
}

TEST(SpecIoTest, RegistersAllSectionsIntoLibrary) {
  const auto cfg = Config::parse(kText);
  auto lib = netlist::ComponentLibrary::with_builtins();
  const auto specs = register_kernels_from_config(cfg, lib);
  EXPECT_EQ(specs.size(), 2u);
  EXPECT_TRUE(lib.has("edge_detect"));
  EXPECT_TRUE(lib.has("fir"));
  EXPECT_TRUE(lib.get("fir").reconfigurable);
  EXPECT_EQ(lib.get("fir").resources.luts,
            estimate(specs[1]).resources.luts);
}

TEST(SpecIoTest, RoundTripThroughConfig) {
  const auto cfg = Config::parse(kText);
  const KernelSpec spec =
      kernel_spec_from_config(cfg, "accelerator edge_detect");
  Config out;
  kernel_spec_to_config(spec, out);
  const KernelSpec again =
      kernel_spec_from_config(out, "accelerator edge_detect");
  EXPECT_EQ(again.num_pes, spec.num_pes);
  EXPECT_EQ(again.pe_ops.size(), spec.pe_ops.size());
  EXPECT_EQ(again.scratchpad_bytes, spec.scratchpad_bytes);
  EXPECT_EQ(estimate(again).resources, estimate(spec).resources);
}

TEST(SpecIoTest, OperatorTableCoversEveryKind) {
  // to_string and op_kind_from_string must be inverses for all operators.
  for (int k = 0; k <= static_cast<int>(OpKind::kLutFunc); ++k) {
    const auto kind = static_cast<OpKind>(k);
    EXPECT_EQ(op_kind_from_string(to_string(kind)), kind);
  }
}

TEST(SpecIoTest, MalformedInputsRejected) {
  EXPECT_THROW(parse_op("bogus:2"), ConfigError);
  EXPECT_THROW(parse_op("mac16:0"), ConfigError);
  EXPECT_THROW(parse_op("mac16:x"), ConfigError);

  auto lib = netlist::ComponentLibrary::with_builtins();
  // Missing pes.
  EXPECT_THROW(register_kernels_from_config(
                   Config::parse("[accelerator a]\nops = fadd\n"), lib),
               ConfigError);
  // No ops.
  EXPECT_THROW(register_kernels_from_config(
                   Config::parse("[accelerator b]\nops = \npes = 2\n"),
                   lib),
               ConfigError);
  // Unknown flow.
  EXPECT_THROW(
      register_kernels_from_config(
          Config::parse(
              "[accelerator c]\nops = fadd\npes = 2\nflow = quartus\n"),
          lib),
      ConfigError);
  // Counts that do not fit in an int, and a scratchpad whose byte size
  // would overflow; 4294967297 is 1 plus 2^32.
  for (const char* line :
       {"pes = 4294967297", "pes = 2\nfsm_states = -4294967295",
        "pes = 2\npipeline_depth = 4294967304",
        "pes = 2\nscratchpad_kb = 10000000000000000"}) {
    EXPECT_THROW(kernel_spec_from_config(
                     Config::parse(std::string("[accelerator d]\nops = "
                                               "fadd\n") +
                                   line),
                     "accelerator d"),
                 ConfigError)
        << line;
  }
  EXPECT_EQ(kernel_spec_from_config(
                Config::parse("[accelerator e]\nops = fadd\npes = 2\n"
                              "scratchpad_kb = 2147483647\n"),
                "accelerator e")
                .scratchpad_bytes,
            2147483647LL * 1024);
  // Nameless section.
  EXPECT_THROW(kernel_spec_from_config(
                   Config::parse("[accelerator ]\nops = fadd\npes = 1\n"),
                   "accelerator "),
               ConfigError);
}

}  // namespace
}  // namespace presp::hls
