#include <gtest/gtest.h>

#include <cstdint>

#include "soc/soc.hpp"
#include "util/error.hpp"

namespace presp::soc {
namespace {

const char* kSocText = R"(
[soc]
name = soc_sim
device = vc707
rows = 2
cols = 2

[tiles]
r0c0 = cpu
r0c1 = mem
r1c0 = aux
r1c1 = reconf:acc_a,acc_b
)";

AcceleratorRegistry test_registry() {
  AcceleratorRegistry registry;
  AcceleratorSpec a;
  a.name = "acc_a";
  a.luts = 20'000;
  a.latency.items_per_beat = 1;
  a.latency.ii = 4;
  a.latency.startup_cycles = 50;
  a.latency.words_in_per_item = 1.0;
  a.latency.words_out_per_item = 1.0;
  registry.add(a);
  AcceleratorSpec b = a;
  b.name = "acc_b";
  b.luts = 10'000;
  b.latency.ii = 2;
  registry.add(b);
  return registry;
}

class SocFixture : public ::testing::Test {
 protected:
  SocFixture()
      : registry_(test_registry()),
        soc_(netlist::SocConfig::parse(kSocText), registry_) {}

  /// Loads a module into the reconfigurable tile through the proper
  /// decouple / fabric / recouple sequence, bypassing the DFXC.
  void force_load(int tile, const std::string& module) {
    auto proc = [&]() -> sim::Process {
      co_await soc_.cpu().write_reg(tile, kRegDecouple, 1);
      soc_.load_module(tile, module);
      co_await soc_.cpu().write_reg(tile, kRegDecouple, 0);
    };
    proc();
    soc_.kernel().run();
  }

  AcceleratorRegistry registry_;
  Soc soc_;
};

TEST_F(SocFixture, TopologyResolved) {
  EXPECT_EQ(soc_.aux_tile_index(), 2);
  EXPECT_EQ(soc_.cpu().index(), 0);
  ASSERT_EQ(soc_.reconf_tiles().size(), 1u);
  EXPECT_EQ(soc_.reconf_tiles()[0]->index(), 3);
  EXPECT_EQ(soc_.reconf_tiles()[0]->partition(), "RT_1");
  EXPECT_THROW(soc_.reconf_tile(0), InvalidArgument);
}

TEST_F(SocFixture, RegisterWriteReadRoundTrip) {
  std::uint64_t readback = 0;
  auto proc = [&]() -> sim::Process {
    co_await soc_.cpu().write_reg(3, kRegSrc, 0xABCD);
    readback = co_await soc_.cpu().read_reg(3, kRegSrc);
  };
  proc();
  soc_.kernel().run();
  EXPECT_EQ(readback, 0xABCDu);
}

TEST_F(SocFixture, ModuleSwapRequiresDecoupling) {
  // Swapping while coupled violates the DPR sequence and must trip the
  // decoupler assertion.
  EXPECT_THROW(soc_.load_module(3, "acc_a"), LogicError);
  force_load(3, "acc_a");
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_a");
}

TEST_F(SocFixture, CommandWhileEmptyOrDecoupledRejected) {
  auto& tile = soc_.reconf_tile(3);
  auto proc = [&]() -> sim::Process {
    co_await soc_.cpu().write_reg(3, kRegCmd, 1);  // no module loaded
    co_await soc_.cpu().write_reg(3, kRegDecouple, 1);
    co_await soc_.cpu().write_reg(3, kRegCmd, 1);  // decoupled
  };
  proc();
  soc_.kernel().run();
  EXPECT_EQ(tile.rejected_commands(), 2u);
  EXPECT_EQ(tile.invocations(), 0u);
}

TEST_F(SocFixture, AcceleratorRunRaisesDoneInterrupt) {
  force_load(3, "acc_a");
  const std::uint64_t buf = soc_.memory().allocate("buf", 1 << 16);
  std::uint64_t irq_payload = 0;
  auto proc = [&]() -> sim::Process {
    co_await soc_.cpu().write_reg(3, kRegSrc, buf);
    co_await soc_.cpu().write_reg(3, kRegDst, buf + 32'768);
    co_await soc_.cpu().write_reg(3, kRegItems, 1'000);
    co_await soc_.cpu().write_reg(3, kRegCmd, 1);
    irq_payload = co_await soc_.cpu().irq_from(3).receive();
  };
  proc();
  soc_.kernel().run();
  EXPECT_EQ(irq_payload, kIrqAccelDone);
  EXPECT_EQ(soc_.reconf_tile(3).invocations(), 1u);
  EXPECT_GT(soc_.reconf_tile(3).busy_cycles(), 1'000 * 4);  // >= compute
}

TEST_F(SocFixture, FunctionalModelTransformsMemory) {
  AcceleratorRegistry registry = test_registry();
  AcceleratorSpec doubler = registry.get("acc_a");
  doubler.compute = [](MainMemory& mem, const AccelTask& task) {
    for (long long i = 0; i < task.items; ++i) {
      const auto v = mem.read_u32(task.src + static_cast<std::uint64_t>(i) * 4);
      mem.write_u32(task.dst + static_cast<std::uint64_t>(i) * 4, v * 2);
    }
  };
  registry.add(doubler);
  Soc soc(netlist::SocConfig::parse(kSocText), registry);

  const std::uint64_t src = soc.memory().allocate("src", 4096);
  const std::uint64_t dst = soc.memory().allocate("dst", 4096);
  for (int i = 0; i < 64; ++i)
    soc.memory().write_u32(src + static_cast<std::uint64_t>(i) * 4,
                           static_cast<std::uint32_t>(i));
  auto proc = [&]() -> sim::Process {
    co_await soc.cpu().write_reg(3, kRegDecouple, 1);
    soc.load_module(3, "acc_a");
    co_await soc.cpu().write_reg(3, kRegDecouple, 0);
    co_await soc.cpu().write_reg(3, kRegSrc, src);
    co_await soc.cpu().write_reg(3, kRegDst, dst);
    co_await soc.cpu().write_reg(3, kRegItems, 64);
    co_await soc.cpu().write_reg(3, kRegCmd, 1);
    (void)co_await soc.cpu().irq_from(3).receive();
  };
  proc();
  soc.kernel().run();
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(soc.memory().read_u32(dst + static_cast<std::uint64_t>(i) * 4),
              static_cast<std::uint32_t>(i) * 2);
}

TEST_F(SocFixture, DfxControllerReconfiguresViaIcap) {
  // Register a bitstream blob and trigger the DFXC by register writes.
  const std::size_t bytes = 300'000;
  const std::uint64_t addr = soc_.memory().allocate("pbs", bytes);
  soc_.memory().attach_blob(addr, BitstreamBlob{"acc_b", 3, bytes, 0});

  std::uint64_t irq_payload = 0;
  sim::Time start = 0;
  sim::Time end = 0;
  auto proc = [&]() -> sim::Process {
    co_await soc_.cpu().write_reg(3, kRegDecouple, 1);
    start = soc_.kernel().now();
    co_await soc_.cpu().write_reg(2, kRegDfxcBsAddr, addr);
    co_await soc_.cpu().write_reg(2, kRegDfxcBsBytes, bytes);
    co_await soc_.cpu().write_reg(2, kRegDfxcTarget, 3);
    co_await soc_.cpu().write_reg(2, kRegDfxcTrigger, 1);
    irq_payload = co_await soc_.cpu().irq_from(2).receive();
    end = soc_.kernel().now();
    co_await soc_.cpu().write_reg(3, kRegDecouple, 0);
  };
  proc();
  soc_.kernel().run();

  EXPECT_EQ(irq_payload & 0xFF, kIrqReconfDone);
  EXPECT_EQ(irq_payload >> 8, 3u);
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_b");
  EXPECT_EQ(soc_.aux().reconfigurations(), 1u);
  EXPECT_EQ(soc_.aux().icap_bytes(), bytes);
  // Latency at least the ICAP streaming time.
  const auto icap_cycles = static_cast<sim::Time>(
      static_cast<double>(bytes) / soc_.options().icap_bytes_per_cycle);
  EXPECT_GE(end - start, icap_cycles);
}

TEST_F(SocFixture, EnergyAccountsConfiguredAndActivePower) {
  const double idle0 = soc_.energy().total_joules();
  force_load(3, "acc_a");
  auto proc = [&]() -> sim::Process {
    co_await sim::Delay(soc_.kernel(), 1'000'000);
  };
  proc();
  soc_.kernel().run();
  const auto breakdown = soc_.energy().breakdown();
  EXPECT_GT(breakdown.configured, 0.0);
  EXPECT_GT(breakdown.baseline, 0.0);
  EXPECT_GT(soc_.energy().total_joules(), idle0);
}

TEST(SocMultiMemTest, DmaInterleavesAcrossMemTiles) {
  const char* text = R"(
[soc]
name = twomem
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a
r1c1 = mem
r1c2 = empty
)";
  AcceleratorRegistry registry = test_registry();
  Soc soc(netlist::SocConfig::parse(text), registry);
  ASSERT_EQ(soc.mem_tiles().size(), 2u);

  // Issue accelerator runs whose buffers land on different 4 KB pages:
  // both controllers must see traffic.
  const auto buf = soc.memory().allocate("buf", 1 << 20);
  auto proc = [&]() -> sim::Process {
    co_await soc.cpu().write_reg(3, kRegDecouple, 1);
    soc.load_module(3, "acc_a");
    co_await soc.cpu().write_reg(3, kRegDecouple, 0);
    for (int i = 0; i < 4; ++i) {
      co_await soc.cpu().write_reg(3, kRegSrc,
                                   buf + static_cast<std::uint64_t>(i) * 4096);
      co_await soc.cpu().write_reg(3, kRegDst, buf + (1 << 19));
      co_await soc.cpu().write_reg(3, kRegItems, 256);
      co_await soc.cpu().write_reg(3, kRegCmd, 1);
      (void)co_await soc.cpu().irq_from(3).receive();
    }
  };
  proc();
  soc.kernel().run();
  EXPECT_GT(soc.mem_tiles()[0]->requests(), 0u);
  EXPECT_GT(soc.mem_tiles()[1]->requests(), 0u);
}

TEST_F(SocFixture, UnsafeDecoupleWhileRunningCounted) {
  force_load(3, "acc_a");
  const auto buf = soc_.memory().allocate("ubuf", 1 << 16);
  auto proc = [&]() -> sim::Process {
    co_await soc_.cpu().write_reg(3, kRegSrc, buf);
    co_await soc_.cpu().write_reg(3, kRegDst, buf + 32'768);
    co_await soc_.cpu().write_reg(3, kRegItems, 2'000);
    co_await soc_.cpu().write_reg(3, kRegCmd, 1);
    // Violate the sequencing rule: decouple mid-run.
    co_await sim::Delay(soc_.kernel(), 100);
    co_await soc_.cpu().write_reg(3, kRegDecouple, 1);
    co_await soc_.cpu().write_reg(3, kRegDecouple, 0);
    (void)co_await soc_.cpu().irq_from(3).receive();
  };
  proc();
  soc_.kernel().run();
  EXPECT_EQ(soc_.reconf_tile(3).unsafe_decouples(), 1u);
}

TEST(MemoryTest, RegionAllocationAndBounds) {
  MainMemory mem(MemoryOptions{1 << 20, 28, 8});
  const auto a = mem.allocate("a", 1024);
  const auto b = mem.allocate("b", 1024);
  EXPECT_GE(b, a + 1024);
  EXPECT_EQ(mem.region("a"), a);
  EXPECT_EQ(mem.region_size("b"), 1024u);
  EXPECT_THROW(mem.allocate("a", 16), InvalidArgument);   // duplicate
  EXPECT_THROW(mem.allocate("c", 2 << 20), InvalidArgument);  // too big
  EXPECT_THROW(mem.bytes(1 << 20, 1), InvalidArgument);
  EXPECT_THROW(mem.region("nope"), InvalidArgument);
}

TEST(MemoryTest, BoundsChecksDoNotWrapNearTheTopOfTheAddressSpace) {
  MainMemory mem(MemoryOptions{1 << 16, 28, 8});
  const MainMemory& cmem = mem;
  // addr + len wraps to a small value here; the checks must not.
  EXPECT_THROW(mem.bytes(~0ull - 1, 4), InvalidArgument);
  EXPECT_THROW(cmem.bytes(~0ull - 1, 4), InvalidArgument);
  EXPECT_THROW(mem.read_u32(~0ull - 2), InvalidArgument);
  EXPECT_THROW(mem.write_u32(~0ull - 2, 1), InvalidArgument);
  mem.allocate("a", 64);
  EXPECT_THROW(mem.allocate("x", SIZE_MAX), InvalidArgument);
  // The failed allocation left the allocator usable.
  EXPECT_NO_THROW(mem.allocate("y", 64));
}

TEST(MemoryTest, WordAccessRoundTrip) {
  MainMemory mem(MemoryOptions{1 << 16, 28, 8});
  const auto a = mem.allocate("a", 64);
  mem.write_u32(a, 0xDEADBEEF);
  EXPECT_EQ(mem.read_u32(a), 0xDEADBEEFu);
}

TEST(MemoryTest, StreamCyclesModel) {
  MainMemory mem(MemoryOptions{1 << 16, 30, 8});
  EXPECT_EQ(mem.stream_cycles(0), 0);
  EXPECT_EQ(mem.stream_cycles(8), 31);
  EXPECT_EQ(mem.stream_cycles(80), 40);
}

}  // namespace
}  // namespace presp::soc
