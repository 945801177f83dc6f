// Pipelined bitstream-store tests: fetch/program overlap (request N+1's
// DMA fetch runs while request N streams through the ICAP), the store's
// eager hit accounting, and fault isolation between the two pipeline
// stages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>

#include "runtime/manager.hpp"
#include "trace/trace.hpp"

namespace presp::runtime {
namespace {

const char* kSocText = R"(
[soc]
name = store_sim
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

constexpr std::size_t kPbsBytes = 250'000;

class StoreFixture : public ::testing::Test {
 protected:
  explicit StoreFixture(ManagerOptions options = {})
      : registry_(test_registry()),
        soc_(netlist::SocConfig::parse(kSocText), registry_),
        store_(soc_.memory()),
        manager_(soc_, store_, options) {
    for (const int tile : {3, 4})
      for (const char* module : {"acc_a", "acc_b", "acc_c"})
        store_.add(tile, module, kPbsBytes);
  }

  soc::AcceleratorRegistry registry_;
  soc::Soc soc_;
  BitstreamStore store_;
  ReconfigurationManager manager_;
};

// ------------------------------------------------- fetch/program overlap

struct TwoTileRun {
  sim::Time cycles = 0;
  ManagerStats stats;
  StoreStats store;
};

/// Loads acc_a on tile 3 and acc_c on tile 4 on a fresh SoC whose DFX
/// controller has `dfxc_slots` staging slots, with `pbs_bytes` images.
/// `concurrent` issues both requests in the same cycle; otherwise the
/// second is issued once the first has completed. Returns the total
/// simulated time and the manager's and store's stats.
TwoTileRun run_two_tile_workload(bool concurrent, int dfxc_slots = 2,
                                 std::size_t pbs_bytes = kPbsBytes) {
  auto registry = test_registry();
  soc::SocOptions soc_options;
  soc_options.dfxc_staging_slots = dfxc_slots;
  soc::Soc soc(netlist::SocConfig::parse(kSocText), registry, soc_options);
  BitstreamStore store(soc.memory());
  for (const int tile : {3, 4})
    for (const char* module : {"acc_a", "acc_b", "acc_c"})
      store.add(tile, module, pbs_bytes);
  ReconfigurationManager manager(soc, store);

  Completion d1(soc.kernel());
  Completion d2(soc.kernel());
  manager.ensure_module(3, "acc_a", d1);
  if (!concurrent) soc.kernel().run();
  manager.ensure_module(4, "acc_c", d2);
  soc.kernel().run();
  EXPECT_TRUE(d1.ok());
  EXPECT_TRUE(d2.ok());
  return {soc.kernel().now(), manager.stats(), store.stats()};
}

TEST(StorePipelineTest, ConcurrentRequestsFinishBeforeBackToBackOnes) {
  // Back to back, neither request has a program stage to overlap; issued
  // together, the second fetch runs under the first one's ICAP stream.
  const TwoTileRun back_to_back = run_two_tile_workload(false);
  const TwoTileRun concurrent = run_two_tile_workload(true);
  EXPECT_LT(concurrent.cycles, back_to_back.cycles);
  EXPECT_EQ(back_to_back.stats.pipelined_fetches, 2u);
  EXPECT_EQ(concurrent.stats.pipelined_fetches, 2u);
  // Every image is resident from add() on: one hit per request, never a
  // miss or a wait.
  for (const TwoTileRun* run : {&back_to_back, &concurrent}) {
    EXPECT_EQ(run->store.hits, 2u);
    EXPECT_EQ(run->store.misses, 0u);
    EXPECT_EQ(run->store.fetch_wait_cycles, 0);
  }
}

TEST(StorePipelineTest, StagingDepthComesFromTheDfxc) {
  // One staging slot: the second request must wait for the slot rather
  // than have its fetch nacked. With 1 MB images the first one holds the
  // slot for longer than the retry budget's backoffs last.
  const TwoTileRun run = run_two_tile_workload(true, 1, 1'000'000);
  EXPECT_EQ(run.stats.reconfigurations, 2u);
  EXPECT_EQ(run.stats.dropped_trigger_retries, 0u);
  EXPECT_EQ(run.stats.quarantines, 0u);
}

TEST_F(StoreFixture, NextRequestFetchStartsBeforePreviousProgramEnds) {
  trace::TraceConfig config;
  config.categories = static_cast<std::uint32_t>(trace::Category::kRuntime);
  trace::TraceSession::instance().start(config);

  Completion d1(soc_.kernel());
  Completion d2(soc_.kernel());
  manager_.ensure_module(3, "acc_a", d1);
  manager_.ensure_module(4, "acc_c", d2);
  soc_.kernel().run();

  const trace::TraceReport report = trace::TraceSession::instance().stop();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());

  // Per tile track: when its fetch span opens and its ICAP span closes.
  std::map<std::uint32_t, std::uint64_t> fetch_begin;
  std::map<std::uint32_t, std::uint64_t> icap_end;
  for (const trace::TraceEvent& event : report.events) {
    if (event.clock != trace::ClockDomain::kSim) continue;
    if (event.name == "fetch" && event.phase == trace::Phase::kBegin &&
        fetch_begin.find(event.track) == fetch_begin.end()) {
      fetch_begin[event.track] = event.timestamp;
    }
    if (event.name == "icap" && event.phase == trace::Phase::kEnd) {
      icap_end[event.track] = event.timestamp;
    }
  }
  ASSERT_EQ(fetch_begin.size(), 2u);
  ASSERT_EQ(icap_end.size(), 2u);

  // Request N = the one whose ICAP finishes first; request N+1 = the
  // other. The pipeline must have started N+1's DMA fetch strictly
  // before N's programming completed.
  const auto first_done = std::min_element(
      icap_end.begin(), icap_end.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  for (const auto& [track, begin] : fetch_begin) {
    if (track == first_done->first) continue;
    EXPECT_LT(begin, first_done->second)
        << "tile track " << track
        << " did not overlap its fetch with the in-flight program stage";
  }
  EXPECT_EQ(manager_.stats().pipelined_fetches, 2u);
}

// ----------------------------------------------------- fault isolation

TEST_F(StoreFixture, FaultInjectedMidFetchLeavesInFlightProgramUntouched) {
  // Corrupt tile 4's bitstream: its fetch-stage CRC check trips once
  // while tile 3's program stage is in flight. Tile 4 must recover by
  // re-fetching; tile 3 must complete as if nothing happened.
  soc_.memory().corrupt_blob(store_.get(4, "acc_c").address);

  Completion d1(soc_.kernel());
  Completion d2(soc_.kernel());
  manager_.ensure_module(3, "acc_a", d1);
  manager_.ensure_module(4, "acc_c", d2);
  soc_.kernel().run();

  EXPECT_TRUE(d1.ok());
  EXPECT_TRUE(d2.ok());
  EXPECT_EQ(manager_.stats().crc_retries, 1u);
  EXPECT_EQ(manager_.stats().reconfigurations, 2u);
  EXPECT_EQ(manager_.stats().reconfigurations_failed, 0u);
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_a");
  EXPECT_EQ(soc_.reconf_tile(4).module(), "acc_c");
}

}  // namespace
}  // namespace presp::runtime
