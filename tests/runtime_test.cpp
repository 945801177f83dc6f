#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

#include <algorithm>
#include <iterator>
#include <vector>

#include "lint/cycle.hpp"
#include "runtime/api.hpp"
#include "runtime/manager.hpp"
#include "util/error.hpp"

namespace presp::runtime {
namespace {

const char* kSocText = R"(
[soc]
name = rt_sim
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a,acc_b
r1c1 = reconf:acc_a,acc_c
r1c2 = empty
)";

soc::AcceleratorRegistry test_registry() {
  soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b", "acc_c"}) {
    soc::AcceleratorSpec spec;
    spec.name = name;
    spec.luts = 15'000;
    spec.latency.items_per_beat = 1;
    spec.latency.ii = 3;
    spec.latency.startup_cycles = 40;
    spec.latency.words_in_per_item = 1.0;
    spec.latency.words_out_per_item = 0.5;
    registry.add(spec);
  }
  return registry;
}

class RuntimeFixture : public ::testing::Test {
 protected:
  RuntimeFixture()
      : registry_(test_registry()),
        soc_(netlist::SocConfig::parse(kSocText), registry_),
        store_(soc_.memory()),
        manager_(soc_, store_) {
    // Two reconfigurable tiles at grid indices 3 and 4.
    for (const int tile : {3, 4})
      for (const char* module : {"acc_a", "acc_b", "acc_c"})
        store_.add(tile, module, 250'000);
    buf_ = soc_.memory().allocate("buf", 1 << 16);
  }

  soc::AccelTask task() const {
    soc::AccelTask t;
    t.src = buf_;
    t.dst = buf_ + 32'768;
    t.items = 500;
    return t;
  }

  soc::AcceleratorRegistry registry_;
  soc::Soc soc_;
  BitstreamStore store_;
  ReconfigurationManager manager_;
  std::uint64_t buf_ = 0;
};

TEST_F(RuntimeFixture, FirstRunReconfiguresThenRuns) {
  sim::SimEvent done(soc_.kernel());
  manager_.run(3, "acc_a", task(), done);
  soc_.kernel().run();
  EXPECT_TRUE(done.triggered());
  EXPECT_EQ(manager_.stats().reconfigurations, 1u);
  EXPECT_EQ(manager_.stats().runs, 1u);
  EXPECT_EQ(manager_.driver(3), "acc_a");
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_a");
  EXPECT_FALSE(soc_.reconf_tile(3).decoupled());
}

TEST_F(RuntimeFixture, SecondRunSameModuleAvoidsReconfiguration) {
  sim::SimEvent d1(soc_.kernel());
  sim::SimEvent d2(soc_.kernel());
  auto seq = [&]() -> sim::Process {
    manager_.run(3, "acc_a", task(), d1);
    co_await d1.wait();
    manager_.run(3, "acc_a", task(), d2);
    co_await d2.wait();
  };
  seq();
  soc_.kernel().run();
  EXPECT_EQ(manager_.stats().reconfigurations, 1u);
  EXPECT_EQ(manager_.stats().reconfigurations_avoided, 1u);
  EXPECT_EQ(manager_.stats().runs, 2u);
}

TEST_F(RuntimeFixture, ModuleSwapOnSameTile) {
  sim::SimEvent d1(soc_.kernel());
  sim::SimEvent d2(soc_.kernel());
  auto seq = [&]() -> sim::Process {
    manager_.run(3, "acc_a", task(), d1);
    co_await d1.wait();
    manager_.run(3, "acc_b", task(), d2);
    co_await d2.wait();
  };
  seq();
  soc_.kernel().run();
  EXPECT_EQ(manager_.stats().reconfigurations, 2u);
  EXPECT_EQ(manager_.stats().driver_swaps, 2u);
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_b");
  EXPECT_EQ(manager_.driver(3), "acc_b");
}

TEST_F(RuntimeFixture, ConcurrentThreadsOnSameTileSerialize) {
  // "During reconfiguration, it locks access to the device so that other
  // threads trying to access it must wait."
  sim::SimEvent d1(soc_.kernel());
  sim::SimEvent d2(soc_.kernel());
  manager_.run(3, "acc_a", task(), d1);
  manager_.run(3, "acc_b", task(), d2);  // contends for the same tile
  soc_.kernel().run();
  EXPECT_TRUE(d1.triggered());
  EXPECT_TRUE(d2.triggered());
  EXPECT_EQ(manager_.stats().runs, 2u);
  EXPECT_EQ(manager_.stats().reconfigurations, 2u);
  EXPECT_GT(manager_.stats().lock_wait_cycles, 0);
  // The second thread's module must be the final resident.
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_b");
}

TEST_F(RuntimeFixture, ConcurrentReconfigurationsQueueOnPrc) {
  // Both tiles need reconfiguration at the same time: the single DFX
  // controller serializes them via the workqueue.
  sim::SimEvent d1(soc_.kernel());
  sim::SimEvent d2(soc_.kernel());
  manager_.run(3, "acc_a", task(), d1);
  manager_.run(4, "acc_c", task(), d2);
  soc_.kernel().run();
  EXPECT_TRUE(d1.triggered());
  EXPECT_TRUE(d2.triggered());
  EXPECT_EQ(manager_.stats().reconfigurations, 2u);
  EXPECT_GT(manager_.stats().prc_wait_cycles, 0);
  EXPECT_EQ(manager_.stats().max_queue_depth, 2);
}

TEST_F(RuntimeFixture, EnsureModulePrefetchesWithoutRunning) {
  sim::SimEvent done(soc_.kernel());
  manager_.ensure_module(4, "acc_c", done);
  soc_.kernel().run();
  EXPECT_TRUE(done.triggered());
  EXPECT_EQ(soc_.reconf_tile(4).module(), "acc_c");
  EXPECT_EQ(manager_.stats().runs, 0u);
  EXPECT_EQ(manager_.stats().reconfigurations, 1u);
}

TEST_F(RuntimeFixture, MissingBitstreamReported) {
  BitstreamStore empty_store(soc_.memory());
  ReconfigurationManager manager(soc_, empty_store);
  sim::SimEvent done(soc_.kernel());
  // Aborting a simulation mid-flight by letting the exception escape
  // run() strands the caller chain: each frame awaits a Completion that
  // lives inside itself, so nothing can release them once the kernel
  // stops. That is acceptable for a fatal programming-error path (the
  // process exits) but it is a leak by construction — tell LSan.
#if defined(__SANITIZE_ADDRESS__)
  __lsan_disable();
#endif
  manager.run(3, "acc_a", task(), done);
  EXPECT_THROW(soc_.kernel().run(), InvalidArgument);
#if defined(__SANITIZE_ADDRESS__)
  __lsan_enable();
#endif
}

TEST_F(RuntimeFixture, ReconfigurationCyclesTracked) {
  sim::SimEvent done(soc_.kernel());
  manager_.run(3, "acc_a", task(), done);
  soc_.kernel().run();
  // Reconfiguration includes the ICAP stream (250 KB / 8 B-per-cycle) and
  // the driver swap.
  EXPECT_GT(manager_.stats().reconfiguration_cycles,
            250'000 / 8 + 39'000);
}

TEST_F(RuntimeFixture, BareMetalDriverPollsToCompletion) {
  BareMetalDriver driver(soc_, store_);
  sim::SimEvent done(soc_.kernel());
  driver.run(3, "acc_b", task(), done);
  soc_.kernel().run();
  EXPECT_TRUE(done.triggered());
  EXPECT_EQ(driver.stats().reconfigurations, 1u);
  EXPECT_EQ(driver.stats().runs, 1u);
  EXPECT_GT(driver.stats().polls, 2u);
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_b");
}

// ------------------------------------------------------ BitstreamStore

TEST(BitstreamStoreTest, RegistersImagesAndBlobs) {
  soc::MainMemory mem;
  BitstreamStore store(mem);
  const auto& image = store.add(3, "acc_a", 300'000);
  EXPECT_TRUE(store.has(3, "acc_a"));
  EXPECT_FALSE(store.has(4, "acc_a"));
  EXPECT_EQ(store.get(3, "acc_a").address, image.address);
  EXPECT_EQ(mem.blob_at(image.address).module, "acc_a");
  EXPECT_EQ(store.total_bytes(), 300'000u);
  EXPECT_THROW(store.add(3, "acc_a", 100), InvalidArgument);  // duplicate
  EXPECT_THROW(store.get(9, "acc_a"), InvalidArgument);
}

TEST(BitstreamStoreTest, PayloadCopiedIntoKernelMemory) {
  soc::MainMemory mem;
  BitstreamStore store(mem);
  std::vector<std::uint8_t> payload(128);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i);
  const auto& image = store.add(3, "acc_a", 128, payload);
  const auto stored = mem.bytes(image.address, 128);
  for (std::size_t i = 0; i < payload.size(); ++i)
    EXPECT_EQ(stored[i], payload[i]);
}

// The manager's declared semaphore nesting, as a digraph over ManagerLock
// vertices (outer -> inner).
std::vector<std::vector<int>> nesting_graph(
    const std::vector<LockNesting>& edges) {
  std::vector<std::vector<int>> adjacency(kManagerLockCount);
  for (const LockNesting& e : edges)
    adjacency[static_cast<std::size_t>(e.outer)].push_back(
        static_cast<int>(e.inner));
  return adjacency;
}

TEST(LockNestingTest, ManagerNestingIsAcyclic) {
  const std::vector<LockNesting> edges(std::begin(kManagerLockNesting),
                                       std::end(kManagerLockNesting));
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_TRUE(lint::find_cycle(nesting_graph(edges)).empty());
}

TEST(LockNestingTest, InvertedRegToTileEdgeClosesACycle) {
  std::vector<LockNesting> edges(std::begin(kManagerLockNesting),
                                 std::end(kManagerLockNesting));
  edges.push_back({ManagerLock::kReg, ManagerLock::kTile});
  const std::vector<int> cycle = lint::find_cycle(nesting_graph(edges));
  ASSERT_GE(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), cycle.back());
  const auto on_cycle = [&cycle](ManagerLock lock) {
    return std::find(cycle.begin(), cycle.end(), static_cast<int>(lock)) !=
           cycle.end();
  };
  EXPECT_TRUE(on_cycle(ManagerLock::kReg));
  EXPECT_TRUE(on_cycle(ManagerLock::kTile));
  EXPECT_FALSE(on_cycle(ManagerLock::kFetch));
}

}  // namespace
}  // namespace presp::runtime
