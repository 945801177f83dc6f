// Fleet-scale DPR service: admission control, typed overload shedding,
// request coalescing, circuit breakers layered on tile health, shard
// stall diversion and the seeded-jitter retry backoff.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "fleet/fleet.hpp"
#include "fleet/load.hpp"
#include "trace/metrics.hpp"
#include "util/error.hpp"

namespace presp::fleet {
namespace {

const char* kFleetSocText = R"(
[soc]
name = fleet_shard
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

soc::AcceleratorRegistry test_registry() {
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

FleetTopology test_topology() {
  FleetTopology topo;
  topo.shards = 2;
  topo.quantum_cycles = 4'000;
  topo.coalesce_limit = 4;
  topo.service_estimate_cycles = 60'000;
  topo.fallback_latency_cycles = 8'000;
  topo.stall_cycles = 400'000;
  topo.classes[0] = {8.0, 4.0, 8.0, 16, 600};    // realtime
  topo.classes[1] = {4.0, 4.0, 16.0, 32, 2'000};  // standard
  topo.classes[2] = {1.0, 4.0, 32.0, 64, 8'000};  // besteffort
  topo.breaker.failure_threshold = 0.5;
  topo.breaker.window = 4;
  topo.breaker.open_base_cycles = 40'000;
  topo.breaker.open_max_cycles = 640'000;
  topo.breaker.half_open_probes = 2;
  topo.breaker.jitter = 0.0;  // exact backoff arithmetic in tests
  return topo;
}

FleetRequest make_request(std::uint64_t id, QosClass cls,
                          const std::string& module) {
  FleetRequest req;
  req.id = id;
  req.tenant = static_cast<int>(id % 4);
  req.cls = cls;
  req.module = module;
  req.items = 128;
  return req;
}

class FleetFixture : public ::testing::Test {
 protected:
  FleetFixture() : registry_(test_registry()) {}

  std::unique_ptr<FleetManager> make_fleet(
      FleetTopology topo, std::uint64_t seed = 7,
      fault::FaultInjector* injector = nullptr) {
    runtime::ManagerOptions options;
    options.watchdog_run_cycles = 200'000;  // keep recovery drills short
    auto fleet = std::make_unique<FleetManager>(
        std::move(topo), netlist::SocConfig::parse(kFleetSocText), registry_,
        seed, injector, options);
    fleet->add_module("acc_a", 140'000);
    fleet->add_module("acc_b", 150'000);
    return fleet;
  }

  soc::AcceleratorRegistry registry_;
};

// ------------------------------------------------------------ breakers

TEST(CircuitBreakerTest, OpensOnFailureRateAndRecloses) {
  BreakerOptions options;
  options.failure_threshold = 0.5;
  options.window = 4;
  options.open_base_cycles = 1'000;
  options.open_max_cycles = 16'000;
  options.half_open_probes = 2;
  options.jitter = 0.0;
  Rng rng(1);
  CircuitBreaker breaker(options, &rng);

  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.record_success(0);
  breaker.record_failure(0);
  breaker.record_success(0);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // window not full
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);  // 2/4 >= 0.5

  EXPECT_FALSE(breaker.allow(500));
  EXPECT_TRUE(breaker.allow(1'000));  // backoff expired -> half-open probe
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.allow(1'000));   // second probe slot
  EXPECT_FALSE(breaker.allow(1'000));  // probe budget exhausted
  breaker.record_success(1'100);
  breaker.record_success(1'200);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensWithDoubledBackoff) {
  BreakerOptions options;
  options.failure_threshold = 1.0;
  options.window = 2;
  options.open_base_cycles = 1'000;
  options.open_max_cycles = 16'000;
  options.half_open_probes = 1;
  options.jitter = 0.0;
  Rng rng(1);
  CircuitBreaker breaker(options, &rng);

  breaker.record_failure(0);
  breaker.record_failure(0);
  ASSERT_EQ(breaker.state(), BreakerState::kOpen);
  ASSERT_TRUE(breaker.allow(1'000));
  breaker.record_failure(1'100);  // probe failed
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Second open interval is doubled: closed until 1'100 + 2'000.
  EXPECT_FALSE(breaker.allow(2'000));
  EXPECT_FALSE(breaker.allow(3'000));
  EXPECT_TRUE(breaker.allow(3'100));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

TEST(CircuitBreakerTest, AbandonReturnsProbeSlot) {
  BreakerOptions options;
  options.failure_threshold = 1.0;
  options.window = 1;
  options.open_base_cycles = 100;
  options.open_max_cycles = 100;
  options.half_open_probes = 1;
  options.jitter = 0.0;
  Rng rng(1);
  CircuitBreaker breaker(options, &rng);
  breaker.record_failure(0);
  ASSERT_TRUE(breaker.allow(100));
  EXPECT_FALSE(breaker.allow(100));
  breaker.abandon();
  EXPECT_TRUE(breaker.allow(100));
}

// ----------------------------------------------- health listener hook

TEST(TileHealthListenerTest, ListenerSeesEveryTransition) {
  runtime::TileHealthRegistry registry;
  std::vector<std::tuple<int, runtime::TileHealth, runtime::TileHealth>>
      seen;
  registry.set_listener([&seen](int tile, runtime::TileHealth from,
                                runtime::TileHealth to) {
    seen.emplace_back(tile, from, to);
  });
  registry.quarantine(5);
  registry.rehabilitate(5);
  for (int i = 0; i < 3; ++i) registry.record_success(5);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_tuple(5, runtime::TileHealth::kHealthy,
                                     runtime::TileHealth::kQuarantined));
  EXPECT_EQ(seen[1], std::make_tuple(5, runtime::TileHealth::kQuarantined,
                                     runtime::TileHealth::kDegraded));
  EXPECT_EQ(seen[2], std::make_tuple(5, runtime::TileHealth::kDegraded,
                                     runtime::TileHealth::kHealthy));
}

// ------------------------------------------------- jittered backoff

TEST(JitteredBackoffTest, ZeroJitterIsFixedExponential) {
  Rng rng(42);
  EXPECT_EQ(runtime::jittered_backoff(1'000, 1, 0.0, rng), 1'000u);
  EXPECT_EQ(runtime::jittered_backoff(1'000, 2, 0.0, rng), 2'000u);
  EXPECT_EQ(runtime::jittered_backoff(1'000, 5, 0.0, rng), 16'000u);
}

TEST(JitteredBackoffTest, JitterStaysInBandAndReplays) {
  Rng a(42);
  Rng b(42);
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const auto full = static_cast<sim::Time>(1'000) << (attempt - 1);
    const sim::Time draw_a = runtime::jittered_backoff(1'000, attempt, 0.5, a);
    const sim::Time draw_b = runtime::jittered_backoff(1'000, attempt, 0.5, b);
    EXPECT_EQ(draw_a, draw_b);  // same seed, same schedule
    EXPECT_GE(draw_a, full - full / 2);
    EXPECT_LE(draw_a, full);
  }
}

// ------------------------------------------------------- admission

TEST_F(FleetFixture, CompletesSteadyLoadConserved) {
  auto fleet = make_fleet(test_topology());
  std::uint64_t id = 0;
  for (int q = 0; q < 8; ++q) {
    fleet->submit(make_request(++id, QosClass::kStandard,
                               q % 2 == 0 ? "acc_a" : "acc_b"));
    fleet->step();
  }
  ASSERT_TRUE(fleet->drain(400));
  const FleetStats& stats = fleet->stats();
  EXPECT_EQ(stats.submitted, 8u);
  EXPECT_EQ(stats.completed_ok, 8u);
  EXPECT_EQ(stats.shed_total, 0u);
  EXPECT_TRUE(stats.conserved());
  EXPECT_TRUE(stats.sheds_explained());
}

TEST_F(FleetFixture, QueueFullShedsWithTypedError) {
  FleetTopology topo = test_topology();
  topo.classes[static_cast<int>(QosClass::kStandard)].queue_bound = 4;
  auto fleet = make_fleet(topo);
  for (std::uint64_t i = 1; i <= 10; ++i)
    fleet->submit(make_request(i, QosClass::kStandard, "acc_a"));
  const FleetStats& stats = fleet->stats();
  EXPECT_EQ(stats.shed_total, 6u);
  EXPECT_EQ(stats.shed_by_reason[static_cast<int>(FleetError::kQueueFull)],
            6u);
  ASSERT_TRUE(fleet->drain(400));
  EXPECT_TRUE(fleet->stats().conserved());
  EXPECT_TRUE(fleet->stats().sheds_explained());
}

TEST_F(FleetFixture, BestEffortDegradesToSoftwareFallback) {
  FleetTopology topo = test_topology();
  topo.classes[static_cast<int>(QosClass::kBestEffort)].queue_bound = 2;
  auto fleet = make_fleet(topo);
  for (std::uint64_t i = 1; i <= 5; ++i)
    fleet->submit(make_request(i, QosClass::kBestEffort, "acc_a"));
  // Overflowing best-effort work degrades instead of shedding.
  EXPECT_EQ(fleet->stats().shed_total, 0u);
  ASSERT_TRUE(fleet->drain(400));
  EXPECT_EQ(fleet->stats().completed_fallback, 3u);
  EXPECT_EQ(fleet->stats().completed_ok, 2u);
  EXPECT_TRUE(fleet->stats().conserved());
}

TEST_F(FleetFixture, ImpossibleDeadlineIsRejectedEarly) {
  FleetTopology topo = test_topology();
  topo.classes[static_cast<int>(QosClass::kRealtime)].deadline_quanta = 1;
  auto fleet = make_fleet(topo);
  fleet->submit(make_request(1, QosClass::kRealtime, "acc_a"));
  fleet->step();
  const FleetStats& stats = fleet->stats();
  EXPECT_EQ(stats.shed_total, 1u);
  EXPECT_EQ(
      stats.shed_by_reason[static_cast<int>(FleetError::kDeadlineShed)], 1u);
  EXPECT_TRUE(stats.conserved());
}

TEST_F(FleetFixture, EmptyTokenBucketThrottles) {
  FleetTopology topo = test_topology();
  topo.classes[static_cast<int>(QosClass::kRealtime)].tokens_per_quantum =
      0.0;
  topo.classes[static_cast<int>(QosClass::kRealtime)].deadline_quanta = 2;
  auto fleet = make_fleet(topo);
  fleet->submit(make_request(1, QosClass::kRealtime, "acc_a"));
  fleet->run_quanta(4);
  const FleetStats& stats = fleet->stats();
  EXPECT_EQ(stats.shed_total, 1u);
  EXPECT_EQ(stats.shed_by_reason[static_cast<int>(FleetError::kThrottled)],
            1u);
  EXPECT_TRUE(stats.conserved());
}

// ------------------------------------------------------ coalescing

TEST_F(FleetFixture, SameModuleRequestsCoalesceProgramOnce) {
  auto fleet = make_fleet(test_topology());
  for (std::uint64_t i = 1; i <= 4; ++i)
    fleet->submit(make_request(i, QosClass::kStandard, "acc_a"));
  ASSERT_TRUE(fleet->drain(400));
  const FleetStats& stats = fleet->stats();
  EXPECT_EQ(stats.completed_ok, 4u);
  EXPECT_EQ(stats.coalesced, 3u);
  EXPECT_TRUE(stats.conserved());
  // One reconfiguration across the whole fleet: the followers ran on the
  // leader's still-warm tile.
  std::uint64_t reconfigurations = 0;
  std::uint64_t avoided = 0;
  for (int s = 0; s < fleet->num_shards(); ++s) {
    reconfigurations += fleet->manager(s).stats().reconfigurations;
    avoided += fleet->manager(s).stats().reconfigurations_avoided;
  }
  EXPECT_EQ(reconfigurations, 1u);
  EXPECT_GE(avoided, 3u);
}

TEST_F(FleetFixture, LeaderQuarantineMidProgramLosesNoCompletion) {
  FleetTopology topo = test_topology();
  topo.shards = 1;
  fault::FaultInjector injector;
  // retry_budget = 3: the fourth consecutive hang on tile 3 quarantines
  // it mid-request; the manager re-routes the leader to tile 4.
  for (int i = 0; i < 4; ++i)
    injector.arm({fault::FaultSite::kAccelHang, 3, -1, 1});
  auto fleet = make_fleet(topo, 7, &injector);
  for (std::uint64_t i = 1; i <= 4; ++i)
    fleet->submit(make_request(i, QosClass::kStandard, "acc_a"));
  ASSERT_TRUE(fleet->drain(2'000));
  const FleetStats& stats = fleet->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_TRUE(stats.sheds_explained());
  EXPECT_EQ(stats.coalesced, 3u);
  // Every coalesced completion was delivered despite the quarantine.
  EXPECT_EQ(stats.completed_ok + stats.completed_failed + stats.shed_total +
                stats.completed_fallback,
            4u);
  EXPECT_EQ(fleet->manager(0).health().health(3),
            runtime::TileHealth::kQuarantined);
  // The health listener tripped the tile breaker open.
  EXPECT_NE(fleet->tile_breaker(0, 3), BreakerState::kClosed);
}

// -------------------------------------------- stall -> breaker divert

TEST_F(FleetFixture, ShardStallOpensBreakerAndDivertsTraffic) {
  FleetTopology topo = test_topology();
  topo.classes[static_cast<int>(QosClass::kStandard)].deadline_quanta = 20;
  fault::FaultInjector injector;
  // Each armed spec fires once; chaining six keeps shard 0 wedged for
  // ~600 quanta — the whole loop and most of the drain — so the
  // diverted traffic cannot rebalance after a single recovery.
  for (int i = 0; i < 6; ++i)
    injector.arm({fault::FaultSite::kShardStall, 0, -1, 1});
  auto fleet = make_fleet(topo, 7, &injector);
  std::uint64_t id = 0;
  for (int q = 0; q < 40; ++q) {
    fleet->submit(make_request(++id, QosClass::kStandard,
                               q % 2 == 0 ? "acc_a" : "acc_b"));
    fleet->step();
  }
  EXPECT_GE(fleet->stats().breaker_opens, 1u);
  ASSERT_TRUE(fleet->drain(2'000));
  const FleetStats& stats = fleet->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_TRUE(stats.sheds_explained());
  EXPECT_GT(stats.stall_quanta, 0u);
  // Traffic demonstrably diverted to the healthy shard.
  int on_healthy = 0;
  int on_stalled = 0;
  for (const FleetOutcome& outcome : fleet->outcomes()) {
    if (outcome.kind != OutcomeKind::kOk &&
        outcome.kind != OutcomeKind::kCoalescedOk)
      continue;
    if (outcome.shard == 1) ++on_healthy;
    if (outcome.shard == 0) ++on_stalled;
  }
  EXPECT_GT(on_healthy, on_stalled);
}

TEST_F(FleetFixture, QuarantinedTileIsReadmittedThroughHalfOpenProbe) {
  FleetTopology topo = test_topology();
  topo.shards = 1;
  topo.breaker.open_base_cycles = 8'000;  // two quanta
  auto fleet = make_fleet(topo);
  fleet->manager(0).health().quarantine(3);
  ASSERT_EQ(fleet->tile_breaker(0, 3), BreakerState::kOpen);
  fleet->run_quanta(3);  // let the breaker backoff expire
  std::uint64_t id = 0;
  for (int q = 0; q < 6; ++q) {
    fleet->submit(make_request(++id, QosClass::kStandard, "acc_a"));
    fleet->run_quanta(30);
  }
  ASSERT_TRUE(fleet->drain(400));
  const FleetStats& stats = fleet->stats();
  EXPECT_TRUE(stats.conserved());
  EXPECT_GE(stats.probe_rehabilitations, 1u);
  // The probe rehabilitated the tile and it is back in rotation.
  EXPECT_TRUE(fleet->manager(0).health().usable(3));
  EXPECT_EQ(fleet->tile_breaker(0, 3), BreakerState::kClosed);
  EXPECT_EQ(stats.completed_ok, 6u);
}

TEST_F(FleetFixture, FailedProbeReopensTileBreaker) {
  FleetTopology topo = test_topology();
  topo.shards = 1;
  topo.coalesce_limit = 0;  // force independent dispatches
  topo.breaker.open_base_cycles = 8'000;
  fault::FaultInjector injector;
  auto fleet = make_fleet(topo, 7, &injector);
  fleet->manager(0).health().quarantine(3);
  ASSERT_EQ(fleet->tile_breaker(0, 3), BreakerState::kOpen);
  fleet->run_quanta(3);
  // The probe lands on tile 3 (first in routing order) and hangs until
  // the tile is re-quarantined mid-request.
  for (int i = 0; i < 4; ++i)
    injector.arm({fault::FaultSite::kAccelHang, 3, -1, 1});
  fleet->submit(make_request(1, QosClass::kStandard, "acc_a"));
  ASSERT_TRUE(fleet->drain(2'000));
  EXPECT_GE(fleet->stats().probe_rehabilitations, 1u);
  EXPECT_GE(fleet->stats().breaker_reopens, 1u);
  EXPECT_EQ(fleet->tile_breaker(0, 3), BreakerState::kOpen);
  EXPECT_TRUE(fleet->stats().conserved());
}

// ---------------------------------------------------- determinism

TEST_F(FleetFixture, SameSeedsReplayBitIdentically) {
  std::string digests[2];
  for (int round = 0; round < 2; ++round) {
    fault::FaultInjector injector;
    injector.arm({fault::FaultSite::kShardStall, 0, -1, 1});
    FleetTopology topo = test_topology();
    topo.classes[static_cast<int>(QosClass::kStandard)].deadline_quanta = 20;
    auto fleet = make_fleet(topo, 7, &injector);
    SyntheticLoad load([] {
      LoadOptions options;
      options.seed = 11;
      options.arrivals_per_quantum = 1.5;
      options.modules = {"acc_a", "acc_b"};
      return options;
    }());
    for (int q = 0; q < 40; ++q) {
      for (FleetRequest& req : load.generate(fleet->now(),
                                             fleet->topology().burst_multiplier,
                                             &injector))
        fleet->submit(std::move(req));
      fleet->step();
    }
    fleet->drain(2'000);
    digests[round] = fleet->digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(SyntheticLoadTest, SeededBatchesReplayAndBurstMultiplies) {
  LoadOptions options;
  options.seed = 3;
  options.arrivals_per_quantum = 2.0;
  options.modules = {"acc_a"};
  SyntheticLoad a(options);
  SyntheticLoad b(options);
  std::uint64_t total_a = 0;
  std::uint64_t total_b = 0;
  for (int q = 0; q < 50; ++q) {
    total_a += a.generate(0, 8, nullptr).size();
    total_b += b.generate(0, 8, nullptr).size();
  }
  EXPECT_EQ(total_a, total_b);
  EXPECT_NEAR(static_cast<double>(total_a), 100.0, 10.0);

  // An armed burst-overload fault multiplies the arrival rate.
  fault::FaultInjector injector;
  injector.arm({fault::FaultSite::kBurstOverload, -1, -1, 1});
  SyntheticLoad bursty(options);
  std::uint64_t burst_total = 0;
  for (int q = 0; q < options.burst_quanta; ++q)
    burst_total += bursty.generate(0, 8, &injector).size();
  EXPECT_GT(burst_total, 4u * options.burst_quanta);
}

// ----------------------------------------------------------- topology

TEST(FleetTopologyTest, ValidatesShardQuantumClassAndBreakerFields) {
  FleetTopology topo;
  topo.shards = 3;
  topo.quantum_cycles = 5'000;
  topo.coalesce_limit = 2;
  topo.classes[0] = {9.0, 3.5, 6.0, 24, 500};
  topo.breaker.failure_threshold = 0.25;
  topo.breaker.window = 16;
  topo.validate();

  FleetTopology bad = topo;
  bad.shards = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = topo;
  bad.breaker.failure_threshold = 1.5;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = topo;
  for (QosClassParams& cls : bad.classes) cls.weight = 0.0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

// ---------------------------------------------------- tenant buckets

std::uint64_t tenant_counter(int tenant, const char* which) {
  return trace::MetricsRegistry::global()
      .counter("fleet.tenant." + std::to_string(tenant) + "." + which)
      .value();
}

FleetTopology throttled_topology() {
  FleetTopology topo = test_topology();
  topo.tenant_tokens_per_quantum = 0.5;
  topo.tenant_burst = 2.0;
  return topo;
}

TEST_F(FleetFixture, TenantThrottleShedsHardBeyondBurst) {
  auto fleet = make_fleet(throttled_topology());
  // Step off t=0 first: a bucket's first touch grants the full burst.
  fleet->run_quanta(1);

  // The global registry outlives tests; measure deltas, not absolutes.
  const std::uint64_t shed_before = tenant_counter(0, "shed");
  const std::uint64_t admitted_before = tenant_counter(0, "admitted");

  for (std::uint64_t id = 1; id <= 5; ++id) {
    FleetRequest req = make_request(id, QosClass::kBestEffort, "acc_a");
    req.tenant = 0;
    fleet->submit(std::move(req));
  }
  // Burst of 2: two admitted, three shed with the tenant-specific
  // reason. Best-effort sheds hard too — no fallback tunneling past the
  // quota.
  EXPECT_EQ(fleet->stats().shed_by_reason[static_cast<int>(
                FleetError::kTenantThrottled)],
            3u);
  EXPECT_EQ(fleet->stats().completed_fallback, 0u);
  EXPECT_EQ(tenant_counter(0, "shed") - shed_before, 3u);
  EXPECT_EQ(tenant_counter(0, "admitted") - admitted_before, 2u);
  EXPECT_STREQ(to_string(FleetError::kTenantThrottled), "tenant-throttled");

  int tenant_sheds = 0;
  for (const FleetOutcome& outcome : fleet->outcomes())
    if (outcome.kind == OutcomeKind::kShed &&
        outcome.error == FleetError::kTenantThrottled)
      ++tenant_sheds;
  EXPECT_EQ(tenant_sheds, 3);

  ASSERT_TRUE(fleet->drain(2'000));
  EXPECT_TRUE(fleet->stats().conserved());
}

TEST_F(FleetFixture, TenantBucketRefillsFromVirtualTime) {
  auto fleet = make_fleet(throttled_topology());
  fleet->run_quanta(1);

  auto submit_one = [&fleet](std::uint64_t id) {
    FleetRequest req = make_request(id, QosClass::kStandard, "acc_a");
    req.tenant = 0;
    fleet->submit(std::move(req));
  };
  const auto tenant_shed_count = [&fleet] {
    return fleet->stats().shed_by_reason[static_cast<int>(
        FleetError::kTenantThrottled)];
  };

  for (std::uint64_t id = 1; id <= 3; ++id) submit_one(id);
  EXPECT_EQ(tenant_shed_count(), 1u);  // burst 2 exhausted

  // 4 quanta at 0.5 tokens/quantum refill exactly the 2-token burst —
  // purely from elapsed virtual time, no per-tenant work in the step
  // loop.
  fleet->run_quanta(4);
  for (std::uint64_t id = 4; id <= 6; ++id) submit_one(id);
  EXPECT_EQ(tenant_shed_count(), 2u);  // 2 re-admitted, 1 shed again

  ASSERT_TRUE(fleet->drain(2'000));
  EXPECT_TRUE(fleet->stats().conserved());
}

TEST_F(FleetFixture, TenantsThrottleIndependently) {
  auto fleet = make_fleet(throttled_topology());
  fleet->run_quanta(1);

  const std::uint64_t t1_admitted_before = tenant_counter(1, "admitted");
  auto submit_for = [&fleet](std::uint64_t id, int tenant) {
    FleetRequest req = make_request(id, QosClass::kStandard, "acc_a");
    req.tenant = tenant;
    fleet->submit(std::move(req));
  };

  for (std::uint64_t id = 1; id <= 3; ++id) submit_for(id, 0);
  EXPECT_EQ(fleet->stats().shed_by_reason[static_cast<int>(
                FleetError::kTenantThrottled)],
            1u);
  // Tenant 0 exhausting its bucket takes nothing from tenant 1.
  submit_for(4, 1);
  submit_for(5, 1);
  EXPECT_EQ(fleet->stats().shed_by_reason[static_cast<int>(
                FleetError::kTenantThrottled)],
            1u);
  EXPECT_EQ(tenant_counter(1, "admitted") - t1_admitted_before, 2u);

  // The ops snapshot exposes both buckets' live fills.
  const FleetOpsSnapshot snap = fleet->ops_snapshot();
  ASSERT_EQ(snap.tenant_tokens.size(), 2u);
  EXPECT_DOUBLE_EQ(snap.tenant_tokens.at(0), 0.0);
  EXPECT_DOUBLE_EQ(snap.tenant_tokens.at(1), 0.0);
  EXPECT_EQ(snap.now, fleet->now());
  EXPECT_EQ(snap.shards.size(), 2u);

  ASSERT_TRUE(fleet->drain(2'000));
  EXPECT_TRUE(fleet->stats().conserved());
}

TEST_F(FleetFixture, TenantThrottlingOffByDefault) {
  auto fleet = make_fleet(test_topology());  // tenant rate 0: disabled
  fleet->run_quanta(1);
  for (std::uint64_t id = 1; id <= 20; ++id) {
    FleetRequest req = make_request(id, QosClass::kStandard, "acc_a");
    req.tenant = 0;
    fleet->submit(std::move(req));
  }
  EXPECT_EQ(fleet->stats().shed_by_reason[static_cast<int>(
                FleetError::kTenantThrottled)],
            0u);
  EXPECT_TRUE(fleet->ops_snapshot().tenant_tokens.empty());
  ASSERT_TRUE(fleet->drain(2'000));
  EXPECT_TRUE(fleet->stats().conserved());
}

TEST(FleetTopologyTest, ValidatesTenantBucketFields) {
  FleetTopology topo;
  topo.shards = 1;
  topo.tenant_tokens_per_quantum = 0.25;
  topo.tenant_burst = 4.0;
  topo.validate();

  FleetTopology bad = topo;
  bad.tenant_tokens_per_quantum = -0.1;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = topo;
  bad.tenant_burst = 0.5;  // cannot admit even one request
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

// ---------------------------------------------- online defragmentation

FleetTopology repack_topology() {
  FleetTopology topo = test_topology();
  topo.repack = true;
  // One repack opportunity every other quantum, migrate on any
  // fragmentation at all.
  topo.repack_interval_cycles = 2 * topo.quantum_cycles;
  topo.repack_frag_threshold = 0.0;
  return topo;
}

TEST_F(FleetFixture, RepackerIsAbsentUntilEnabled) {
  auto fleet = make_fleet(test_topology());
  EXPECT_EQ(fleet->repacker(0), nullptr);
  EXPECT_EQ(fleet->dynamic_floorplan(0), nullptr);
  const auto digest = fleet->digest();
  EXPECT_EQ(digest.find("repack="), std::string::npos);
}

TEST_F(FleetFixture, RepackerDefragmentsShardsUnderChurn) {
  auto fleet = make_fleet(repack_topology());
  ASSERT_NE(fleet->repacker(0), nullptr);
  ASSERT_NE(fleet->dynamic_floorplan(0), nullptr);
  const double frag_before = fleet->dynamic_floorplan(0)
                                 ->fragmentation().ratio();
  EXPECT_GT(frag_before, 0.0);  // scattered initial placement

  SyntheticLoad load([] {
    LoadOptions options;
    options.seed = 5;
    options.arrivals_per_quantum = 1.0;
    options.modules = {"acc_a", "acc_b"};
    return options;
  }());
  for (int q = 0; q < 60; ++q) {
    for (FleetRequest& req : load.generate(fleet->now(),
                                           fleet->topology().burst_multiplier,
                                           nullptr))
      fleet->submit(std::move(req));
    fleet->step();
  }
  ASSERT_TRUE(fleet->drain(2'000));

  std::uint64_t migrations = 0;
  for (int s = 0; s < fleet->num_shards(); ++s)
    migrations += fleet->repacker(s)->stats().migrations;
  EXPECT_GT(migrations, 0u);
  const double frag_after = fleet->dynamic_floorplan(0)
                                ->fragmentation().ratio();
  EXPECT_LT(frag_after, frag_before);
  // The digest carries the defrag state for determinism diffs.
  EXPECT_NE(fleet->digest().find("frag=["), std::string::npos);
  EXPECT_NE(fleet->digest().find("repack=["), std::string::npos);
  // Serving stayed intact while the fabric compacted underneath it.
  EXPECT_GT(fleet->stats().completed_ok, 0u);
}

TEST_F(FleetFixture, RepackRunsReplayBitIdenticallyUnderAbortChaos) {
  std::string digests[2];
  for (int round = 0; round < 2; ++round) {
    fault::FaultInjector injector;
    injector.arm({fault::FaultSite::kRepackAbort, -1, -1, 1});
    injector.arm({fault::FaultSite::kRepackAbort, -1, -1, 2});
    auto fleet = make_fleet(repack_topology(), 7, &injector);
    SyntheticLoad load([] {
      LoadOptions options;
      options.seed = 11;
      options.arrivals_per_quantum = 1.5;
      options.modules = {"acc_a", "acc_b"};
      return options;
    }());
    for (int q = 0; q < 50; ++q) {
      for (FleetRequest& req : load.generate(fleet->now(),
                                             fleet->topology().burst_multiplier,
                                             &injector))
        fleet->submit(std::move(req));
      fleet->step();
    }
    fleet->drain(2'000);
    std::uint64_t aborts = 0;
    for (int s = 0; s < fleet->num_shards(); ++s)
      aborts += fleet->repacker(s)->stats().aborts;
    EXPECT_GT(aborts, 0u);  // the armed kRepackAbort faults fired
    digests[round] = fleet->digest();
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(FleetTopologyTest, ValidatesRepackFieldsOnlyWhileRepacking) {
  FleetTopology topo;
  topo.repack = true;
  topo.repack_interval_cycles = 500'000;
  topo.repack_frag_threshold = 0.25;
  topo.repack_max_migrations = 2;
  topo.repack_migration_budget = 3;
  topo.validate();

  FleetTopology bad = topo;
  bad.repack_interval_cycles = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = topo;
  bad.repack_frag_threshold = 1.0;  // must be < 1: never triggers
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = topo;
  bad.repack_max_migrations = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  bad = topo;
  bad.repack_migration_budget = 0;
  EXPECT_THROW(bad.validate(), InvalidArgument);
  // The knobs are ignored (not validated) while repack is off.
  bad.repack = false;
  bad.validate();
}

}  // namespace
}  // namespace presp::fleet
