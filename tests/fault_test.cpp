// Fault-injection library: trigger-count semantics of the injector hooks
// and the determinism property of seeded FaultPlans (the contract
// the bench_soak chaos replay relies on).
#include <gtest/gtest.h>

#include <set>

#include "fault/fault.hpp"
#include "runtime/workqueue.hpp"

namespace presp::fault {
namespace {

TEST(FaultInjector, FiresOnNthMatchingEventAndIsOneShot) {
  FaultInjector injector;
  injector.arm({FaultSite::kAccelHang, 3, -1, 3});
  EXPECT_EQ(injector.pending(), 1u);
  EXPECT_FALSE(injector.on_accelerator_start(3));
  EXPECT_FALSE(injector.on_accelerator_start(3));
  EXPECT_TRUE(injector.on_accelerator_start(3));  // the 3rd event fires
  EXPECT_EQ(injector.pending(), 0u);
  // One-shot: consumed when it fired.
  EXPECT_FALSE(injector.on_accelerator_start(3));
  const auto& stats = injector.stats();
  EXPECT_EQ(stats.injected[static_cast<int>(FaultSite::kAccelHang)], 1u);
  EXPECT_EQ(stats.observed[static_cast<int>(FaultSite::kAccelHang)], 4u);
  EXPECT_EQ(stats.total_injected(), 1u);
}

TEST(FaultInjector, TileFilteringOnlyCountsMatchingEvents) {
  FaultInjector injector;
  injector.arm({FaultSite::kIcapStall, 5, -1, 2});
  // Events on other tiles do not advance tile 5's stream.
  EXPECT_FALSE(injector.on_icap_transfer(4));
  EXPECT_FALSE(injector.on_icap_transfer(4));
  EXPECT_FALSE(injector.on_icap_transfer(5));
  EXPECT_TRUE(injector.on_icap_transfer(5));
  EXPECT_EQ(injector.pending(), 0u);
}

TEST(FaultInjector, WildcardTileMatchesAnyTile) {
  FaultInjector injector;
  injector.arm({FaultSite::kSeuFlip, -1, -1, 2});
  EXPECT_FALSE(injector.on_seu_check(7));
  EXPECT_TRUE(injector.on_seu_check(9));
}

TEST(FaultInjector, NocCorruptMatchesOnPlane) {
  FaultInjector injector;
  injector.arm({FaultSite::kNocCorrupt, -1, 4, 2});
  EXPECT_FALSE(injector.on_noc_packet(3));  // wrong plane: no advance
  EXPECT_FALSE(injector.on_noc_packet(4));
  EXPECT_FALSE(injector.on_noc_packet(3));
  EXPECT_TRUE(injector.on_noc_packet(4));
}

TEST(FaultInjector, IndependentStreamsPerSite) {
  FaultInjector injector;
  injector.arm({FaultSite::kDfxcHang, 3, -1, 1});
  injector.arm({FaultSite::kDecouplerStuck, 3, -1, 1});
  EXPECT_EQ(injector.pending(), 2u);
  // Each site keys its own event stream.
  EXPECT_TRUE(injector.on_dfxc_completion(3));
  EXPECT_EQ(injector.pending(), 1u);
  EXPECT_TRUE(injector.on_decoupler_release(3));
  EXPECT_EQ(injector.pending(), 0u);
  EXPECT_EQ(injector.stats().total_injected(), 2u);
}

// ---------------------------------------------------------------------------

FaultPlanOptions plan_options(std::uint64_t seed) {
  FaultPlanOptions options;
  options.seed = seed;
  options.faults = 64;
  options.tiles = {3, 4, 6};
  options.planes = {3, 4};
  options.max_trigger_count = 8;
  return options;
}

TEST(FaultPlan, SameSeedReproducesIdenticalSchedule) {
  // The property the bench_soak chaos replay builds
  // on: a plan is a pure function of its options.
  for (const std::uint64_t seed : {1ull, 2ull, 42ull, 0xdeadbeefull}) {
    const FaultPlan a(plan_options(seed));
    const FaultPlan b(plan_options(seed));
    EXPECT_EQ(a.specs(), b.specs());
    EXPECT_EQ(a.describe(), b.describe());
    EXPECT_EQ(a.seed(), seed);
  }
}

TEST(FaultPlan, DifferentSeedsProduceDifferentSchedules) {
  const FaultPlan a(plan_options(1));
  const FaultPlan b(plan_options(2));
  EXPECT_NE(a.specs(), b.specs());
}

TEST(FaultPlan, RespectsOptionBounds) {
  const FaultPlanOptions options = plan_options(7);
  const FaultPlan plan(options);
  ASSERT_EQ(plan.specs().size(), static_cast<std::size_t>(options.faults));
  const std::set<int> tiles(options.tiles.begin(), options.tiles.end());
  const std::set<int> planes(options.planes.begin(), options.planes.end());
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_GE(spec.trigger_count, 1u);
    EXPECT_LE(spec.trigger_count, options.max_trigger_count);
    if (spec.site == FaultSite::kNocCorrupt) {
      EXPECT_TRUE(planes.contains(spec.plane));
    } else {
      EXPECT_TRUE(tiles.contains(spec.tile));
    }
  }
}

TEST(FaultPlan, MixZeroDisablesASite) {
  FaultPlanOptions options = plan_options(11);
  options.mix.noc_corrupt = 0.0;
  options.mix.seu_flip = 0.0;
  const FaultPlan plan(options);
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_NE(spec.site, FaultSite::kNocCorrupt);
    EXPECT_NE(spec.site, FaultSite::kSeuFlip);
  }
}

TEST(FaultPlan, ArmLoadsEverySpec) {
  const FaultPlan plan(plan_options(5));
  FaultInjector injector;
  plan.arm(injector);
  EXPECT_EQ(injector.pending(), plan.specs().size());
}

TEST(FaultPlan, DescribeListsHeaderPlusOneLinePerSpec) {
  const FaultPlan plan(plan_options(3));
  const std::string text = plan.describe();
  std::size_t lines = 0;
  for (const char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, plan.specs().size() + 1);
  EXPECT_NE(text.find("seed=3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pooled request drain under faults: RequestPool workers dispatch to the
// unchanged manager entry points, so the watchdog/health machinery (PR 1)
// must behave exactly as in the serial drain while requests overlap in
// sim-time.

const char* kPooledSocText = R"(
[soc]
name = pooled_faults
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:acc_a,acc_b
r1c1 = reconf:acc_a,acc_b
r1c2 = empty
)";

soc::AcceleratorRegistry pooled_registry() {
  soc::AcceleratorRegistry registry;
  for (const char* name : {"acc_a", "acc_b"}) {
    soc::AcceleratorSpec spec;
    spec.name = name;
    spec.luts = 12'000;
    spec.latency.items_per_beat = 1;
    spec.latency.ii = 2;
    spec.latency.startup_cycles = 30;
    spec.latency.words_in_per_item = 1.0;
    spec.latency.words_out_per_item = 0.5;
    registry.add(spec);
  }
  return registry;
}

class PooledManagerFixture : public ::testing::Test {
 protected:
  PooledManagerFixture()
      : registry_(pooled_registry()),
        soc_(netlist::SocConfig::parse(kPooledSocText), registry_),
        store_(soc_.memory()),
        manager_(soc_, store_) {
    for (const int tile : {3, 4}) {
      store_.add(tile, "acc_a", 140'000);
      store_.add(tile, "acc_b", 150'000);
      store_.add_blank(tile, 120'000);
    }
    soc_.set_fault_injector(&injector_);
    buf_ = soc_.memory().allocate("buf", 1 << 16);
  }

  soc::AccelTask task() const {
    soc::AccelTask t;
    t.src = buf_;
    t.dst = buf_ + 32'768;
    t.items = 200;
    return t;
  }

  soc::AcceleratorRegistry registry_;
  soc::Soc soc_;
  runtime::BitstreamStore store_;
  runtime::ReconfigurationManager manager_;
  FaultInjector injector_;
  std::uint64_t buf_ = 0;
};

TEST_F(PooledManagerFixture, WatchdogRecoveryUnderPooledDrain) {
  // One fault on each tile, two run requests drained by two workers
  // concurrently in sim-time: both watchdogs must fire and recover, and
  // both requests must complete kOk on their own tile.
  injector_.arm({FaultSite::kIcapStall, 3, -1, 1});
  injector_.arm({FaultSite::kAccelHang, 4, -1, 1});

  runtime::RequestPool pool(soc_.kernel(), manager_, /*workers=*/2);
  runtime::Completion done_a(soc_.kernel());
  runtime::Completion done_b(soc_.kernel());
  runtime::PoolRequest run_a;
  run_a.kind = runtime::PoolRequest::Kind::kRun;
  run_a.tile = 3;
  run_a.module = "acc_a";
  run_a.task = task();
  run_a.done = &done_a;
  runtime::PoolRequest run_b = run_a;
  run_b.tile = 4;
  run_b.module = "acc_b";
  run_b.done = &done_b;
  pool.enqueue(run_a);
  pool.enqueue(run_b);
  pool.drain();
  soc_.kernel().run();

  ASSERT_TRUE(pool.idle());
  ASSERT_TRUE(done_a.triggered());
  ASSERT_TRUE(done_b.triggered());
  EXPECT_EQ(done_a.status(), runtime::RequestStatus::kOk);
  EXPECT_EQ(done_b.status(), runtime::RequestStatus::kOk);
  EXPECT_EQ(done_a.tile(), 3);
  EXPECT_EQ(done_b.tile(), 4);
  // Both injected faults were hit and recovered by the watchdog path.
  EXPECT_EQ(injector_.pending(), 0u);
  EXPECT_GE(manager_.stats().watchdog_fires, 2u);
  EXPECT_EQ(soc_.aux().icap_stalls(), 1u);
  EXPECT_EQ(soc_.reconf_tile(3).hung_runs() + soc_.reconf_tile(4).hung_runs(),
            1u);
  EXPECT_EQ(manager_.stats().runs, 2u);
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_a");
  EXPECT_EQ(soc_.reconf_tile(4).module(), "acc_b");
  // No escalation: health stayed clean.
  EXPECT_EQ(manager_.stats().quarantines, 0u);
  EXPECT_EQ(pool.stats().completed, 2u);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(pool.stats().max_queue_depth, 2);
}

TEST_F(PooledManagerFixture, PooledScrubRepairsSeusOnAllTiles) {
  // Load both tiles, upset both partitions, then drain a scrub queue with
  // more workers than the single PRC can use: repairs must match the
  // serial drain (every upset partition rewritten, none missed).
  for (const int tile : {3, 4}) {
    runtime::Completion prep(soc_.kernel());
    manager_.ensure_module(tile, tile == 3 ? "acc_a" : "acc_b", prep);
    soc_.kernel().run();
    ASSERT_TRUE(prep.ok());
    soc_.reconf_tile(tile).inject_seu();
  }

  runtime::RequestPool pool(soc_.kernel(), manager_, /*workers=*/4);
  for (const int tile : {3, 4}) {
    runtime::PoolRequest scrub;
    scrub.kind = runtime::PoolRequest::Kind::kScrub;
    scrub.tile = tile;
    pool.enqueue(scrub);
  }
  pool.drain();
  soc_.kernel().run();

  ASSERT_TRUE(pool.idle());
  EXPECT_EQ(pool.stats().completed, 2u);
  EXPECT_EQ(pool.stats().failed, 0u);
  EXPECT_EQ(manager_.stats().scrubs, 2u);
  EXPECT_EQ(manager_.stats().seu_repairs, 2u);
  EXPECT_FALSE(soc_.reconf_tile(3).config_upset());
  EXPECT_FALSE(soc_.reconf_tile(4).config_upset());
  EXPECT_EQ(soc_.reconf_tile(3).module(), "acc_a");
  EXPECT_EQ(soc_.reconf_tile(4).module(), "acc_b");
}

}  // namespace
}  // namespace presp::fault
