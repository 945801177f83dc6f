// Tests for the cross-layer tracing subsystem: ring-buffer overflow and
// drop accounting, deterministic sim-domain event streams at any exec
// width, the Chrome-trace JSON golden shape plus round-trip parsing, a
// seeded malformed-input sweep over the Chrome-trace and floorplan JSON
// parsers, the summarizer, metrics, and concurrent host-side emitters
// (this test also runs under TSan in tier-1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "fabric/device.hpp"
#include "floorplan/floorplan_io.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wami/app.hpp"

namespace presp {
namespace {

using trace::Category;
using trace::ClockDomain;
using trace::Phase;
using trace::TraceConfig;
using trace::TraceEvent;
using trace::TraceReport;
using trace::TraceSession;

TraceConfig config_with(std::uint32_t categories,
                        std::size_t capacity = std::size_t{1} << 19) {
  TraceConfig config;
  config.categories = categories;
  config.buffer_capacity = capacity;
  return config;
}

TEST(TraceSessionTest, DisabledByDefault) {
  EXPECT_FALSE(trace::active());
  EXPECT_FALSE(trace::enabled(Category::kExec));
  // Emitting without a session is a cheap no-op, not an error.
  trace::instant(Category::kExec, "ignored");
  trace::counter(Category::kExec, "ignored", 1.0);
}

TEST(TraceSessionTest, RecordsSpansInstantsAndCounters) {
  auto& session = TraceSession::instance();
  session.start(config_with(trace::kAllCategories));
  trace::set_thread_name("tester");
  {
    const trace::TraceScope span(Category::kExec, "outer");
    trace::instant(Category::kExec, "tick", 42.0);
    trace::counter(Category::kExec, "depth", 3.0);
  }
  trace::sim_begin(Category::kRuntime, "fetch", 100, 5, 2048.0);
  trace::sim_end(Category::kRuntime, "fetch", 250, 5);
  const TraceReport report = session.stop();

  EXPECT_EQ(report.dropped, 0u);
  ASSERT_EQ(report.events.size(), 6u);
  // Sorted host-domain first, then sim-domain.
  EXPECT_EQ(report.events[0].name, "outer");
  EXPECT_EQ(report.events[0].phase, Phase::kBegin);
  EXPECT_EQ(report.events[3].phase, Phase::kEnd);
  EXPECT_EQ(report.events[4].clock, ClockDomain::kSim);
  EXPECT_EQ(report.events[4].timestamp, 100u);
  EXPECT_EQ(report.events[4].value, 2048.0);
  EXPECT_EQ(report.events[5].timestamp, 250u);
  ASSERT_FALSE(report.thread_names.empty());
  EXPECT_EQ(report.thread_names[0], "tester");
}

TEST(TraceSessionTest, CategoryMaskFilters) {
  auto& session = TraceSession::instance();
  session.start(config_with(static_cast<std::uint32_t>(Category::kNoc)));
  EXPECT_TRUE(trace::enabled(Category::kNoc));
  EXPECT_FALSE(trace::enabled(Category::kExec));
  trace::instant(Category::kNoc, "kept");
  trace::instant(Category::kExec, "filtered");
  const TraceReport report = session.stop();
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].name, "kept");
  EXPECT_FALSE(trace::active());
}

TEST(TraceSessionTest, OverflowDropsAndCounts) {
  auto& session = TraceSession::instance();
  session.start(config_with(trace::kAllCategories, 16));
  for (int i = 0; i < 100; ++i)
    trace::instant(Category::kApp, "e" + std::to_string(i));
  const TraceReport report = session.stop();
  EXPECT_EQ(report.events.size(), 16u);
  EXPECT_EQ(report.dropped, 84u);
  // The retained prefix is the oldest events, in emission order.
  EXPECT_EQ(report.events.front().name, "e0");
  EXPECT_EQ(report.events.back().name, "e15");
}

TEST(TraceSessionTest, RestartDiscardsEarlierSession) {
  auto& session = TraceSession::instance();
  session.start(config_with(trace::kAllCategories));
  trace::instant(Category::kApp, "old");
  session.start(config_with(trace::kAllCategories));
  trace::instant(Category::kApp, "new");
  const TraceReport report = session.stop();
  ASSERT_EQ(report.events.size(), 1u);
  EXPECT_EQ(report.events[0].name, "new");
}

TEST(TraceSessionTest, ConcurrentEmittersLoseNothing) {
  auto& session = TraceSession::instance();
  session.start(config_with(trace::kAllCategories));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      trace::set_thread_name("emitter-" + std::to_string(t));
      for (int i = 0; i < kPerThread; ++i)
        trace::counter(Category::kExec, "c", static_cast<double>(i));
    });
  for (auto& thread : threads) thread.join();
  const TraceReport report = session.stop();
  EXPECT_EQ(report.events.size() + report.dropped,
            static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(report.dropped, 0u);
  // Per-thread sequence numbers stay strictly increasing after the merge.
  std::vector<std::uint64_t> last_seq(kThreads + 1, 0);
  for (const TraceEvent& event : report.events) {
    ASSERT_LT(event.tid, last_seq.size());
    if (last_seq[event.tid] != 0) {
      EXPECT_GT(event.seq, last_seq[event.tid]);
    }
    last_seq[event.tid] = event.seq;
  }
}

TEST(TraceCategoryTest, ParseAndToString) {
  EXPECT_EQ(trace::parse_categories("all"), trace::kAllCategories);
  EXPECT_EQ(trace::parse_categories("default"), trace::kDefaultCategories);
  EXPECT_EQ(trace::parse_categories("noc,exec"),
            static_cast<std::uint32_t>(Category::kNoc) |
                static_cast<std::uint32_t>(Category::kExec));
  EXPECT_THROW(trace::parse_categories("bogus"), ConfigError);
  EXPECT_STREQ(trace::to_string(Category::kRuntime), "runtime");
}

// ------------------------------------------------------------ export

/// Hand-built two-domain report with a known shape.
TraceReport golden_report() {
  TraceReport report;
  report.config.sim_clock_mhz = 100.0;  // 1 cycle = 0.01 us
  report.thread_names = {"main"};
  report.sim_track_names[4] = "tile 4";
  const auto ev = [](std::string name, Phase phase, ClockDomain clock,
                     std::uint64_t ts, std::uint32_t track, double value) {
    TraceEvent e;
    e.name = std::move(name);
    e.category = clock == ClockDomain::kSim ? Category::kRuntime
                                            : Category::kExec;
    e.phase = phase;
    e.clock = clock;
    e.timestamp = ts;
    e.track = track;
    e.value = value;
    return e;
  };
  report.events = {
      ev("work", Phase::kBegin, ClockDomain::kHost, 1'000, 0, 0.0),
      ev("work", Phase::kEnd, ClockDomain::kHost, 5'000, 0, 0.0),
      ev("icap", Phase::kBegin, ClockDomain::kSim, 200, 4, 4096.0),
      ev("icap", Phase::kEnd, ClockDomain::kSim, 700, 4, 0.0),
      ev("retry", Phase::kInstant, ClockDomain::kSim, 400, 4, 0.0),
      ev("depth", Phase::kCounter, ClockDomain::kSim, 300, 4, 2.0),
  };
  return report;
}

TEST(ChromeTraceTest, GoldenJsonShape) {
  const std::string json = trace::chrome_trace_json(golden_report());
  // Metadata names both clock-domain processes and the named tracks.
  EXPECT_NE(json.find("\"host (wall clock)\""), std::string::npos);
  EXPECT_NE(json.find("\"sim (virtual time)\""), std::string::npos);
  EXPECT_NE(json.find("\"tile 4\""), std::string::npos);
  EXPECT_NE(json.find("\"main\""), std::string::npos);
  // Host ns -> us and sim cycles -> us conversions.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);   // 1000 ns
  EXPECT_NE(json.find("\"ts\":2.000"), std::string::npos);   // 200 cyc
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
}

TEST(ChromeTraceTest, RoundTripThroughParser) {
  const auto report = golden_report();
  const trace::ParsedTrace parsed =
      trace::parse_chrome_trace(trace::chrome_trace_json(report));
  ASSERT_EQ(parsed.events.size(), report.events.size());
  EXPECT_EQ(parsed.dropped, 0u);
  EXPECT_EQ(parsed.sim_clock_mhz, 100.0);
  EXPECT_EQ(parsed.process_names.at(trace::kHostPid), "host (wall clock)");
  int begins = 0;
  int counters = 0;
  for (const auto& event : parsed.events) {
    if (event.ph == "B") ++begins;
    if (event.ph == "C") ++counters;
  }
  EXPECT_EQ(begins, 2);
  EXPECT_EQ(counters, 1);
  EXPECT_THROW(trace::parse_chrome_trace("{not json"), ConfigError);
  const auto with_name = [](const std::string& name) {
    return R"({"traceEvents":[{"name":")" + name +
           R"(","ph":"i","ts":0,"pid":1,"tid":1}]})";
  };
  EXPECT_THROW(trace::parse_chrome_trace(with_name("a\\uZZZZb")),
               ConfigError);
  EXPECT_THROW(trace::parse_chrome_trace(with_name("a\\u00")),
               ConfigError);
  const trace::ParsedTrace escaped =
      trace::parse_chrome_trace(with_name("a\\u000ab"));
  ASSERT_EQ(escaped.events.size(), 1u);
  EXPECT_EQ(escaped.events[0].name, "a\nb");
  // pid/tid reject what an int cannot hold, and nothing may follow the
  // document.
  EXPECT_THROW(trace::parse_chrome_trace(
                   R"({"traceEvents":[{"ph":"i","pid":1e300,"tid":1}]})"),
               ConfigError);
  EXPECT_THROW(trace::parse_chrome_trace(
                   R"({"traceEvents":[{"ph":"i","pid":1,"tid":1e300}]})"),
               ConfigError);
  EXPECT_THROW(trace::parse_chrome_trace(R"({"traceEvents":[]} trailing)"),
               ConfigError);
}

TEST(ChromeTraceTest, SummaryComputesSelfTimeAndExtents) {
  const trace::TraceSummary summary =
      trace::summarize(trace::parse_chrome_trace(
          trace::chrome_trace_json(golden_report())));
  EXPECT_EQ(summary.total_events, 6u);
  EXPECT_EQ(summary.spans, 2u);
  EXPECT_EQ(summary.instants, 1u);
  EXPECT_EQ(summary.counters, 1u);
  EXPECT_EQ(summary.unmatched, 0u);
  EXPECT_DOUBLE_EQ(summary.host_extent_us, 5.0);
  EXPECT_DOUBLE_EQ(summary.sim_extent_us, 7.0);
  ASSERT_EQ(summary.top_spans.size(), 2u);
  // "work" is 4 us, "icap" 5 us; both leaves, so self == total.
  EXPECT_EQ(summary.top_spans[0].name, "icap");
  EXPECT_DOUBLE_EQ(summary.top_spans[0].self_us, 5.0);
  EXPECT_DOUBLE_EQ(summary.top_spans[1].total_us, 4.0);
  const std::string rendered = trace::render_summary(summary);
  EXPECT_NE(rendered.find("dropped events: 0"), std::string::npos);
}

// --------------------------------------------------- malformed input

/// The floorplan artifact lint_test's FloorplanArtifactTest suite uses.
floorplan::FloorplanArtifact planned_artifact() {
  const auto device = fabric::Device::vc707();
  const floorplan::Floorplanner planner(device);
  floorplan::FloorplanArtifact artifact;
  artifact.design = "unit";
  artifact.device = "vc707";
  artifact.requests = {{"RT_1", {20'000, 20'000, 16, 32}},
                       {"RT_2", {15'000, 15'000, 8, 16}}};
  artifact.plan =
      planner.plan(artifact.requests, {40'000, 40'000, 64, 64}, {});
  return artifact;
}

// Both JSON artifact parsers, fed their own writer's output with one
// seeded byte flip, truncation or insertion, must return or throw
// ConfigError: no other exception, and (under ASan+UBSan) no crash.
TEST(JsonMutationTest, ParsersReturnOrThrowConfigError) {
  constexpr std::uint64_t kSeed = 0x6a736f6e;
  constexpr int kMutationsPerDocument = 1000;
  // Half the written bytes come from the grammar's own characters, so
  // mutations reach past the first token.
  constexpr std::string_view kGrammar = "\"\\{}[],:-.eE0123456789 tfnu";
  const std::vector<std::pair<std::string,
                              std::function<void(const std::string&)>>>
      documents = {
          {floorplan::render_floorplan_json(planned_artifact()),
           [](const std::string& text) {
             floorplan::parse_floorplan_json(text);
           }},
          {trace::chrome_trace_json(golden_report()),
           [](const std::string& text) { trace::parse_chrome_trace(text); }},
      };
  Rng rng(kSeed);
  int index = 0;
  int accepted = 0;
  int rejected = 0;
  for (const auto& [text, parse] : documents) {
    for (int i = 0; i < kMutationsPerDocument; ++i, ++index) {
      std::string mutated = text;
      const std::size_t pos = rng.next_below(mutated.size());
      const char byte =
          rng.next_bool() ? kGrammar[rng.next_below(kGrammar.size())]
                          : static_cast<char>(rng.next_below(256));
      switch (rng.next_below(3)) {
        case 0: mutated[pos] = byte; break;
        case 1: mutated.resize(pos); break;
        default: mutated.insert(pos, 1, byte); break;
      }
      try {
        parse(mutated);
        ++accepted;
      } catch (const ConfigError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "seed " << kSeed << " mutation " << index
                      << " threw a non-ConfigError: " << e.what();
      }
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------------------ determinism

/// Sim-domain events of a traced WAMI run. Host-domain noise (exec pool
/// spans, worker thread names) is excluded: only virtual-time events are
/// required to be deterministic.
std::vector<std::string> sim_event_signature(int exec_noise_threads) {
  auto& session = TraceSession::instance();
  session.start(config_with(trace::kAllCategories));

  // Unrelated concurrent host emitters must not perturb the sim stream.
  std::vector<std::thread> noise;
  for (int t = 0; t < exec_noise_threads; ++t)
    noise.emplace_back([] {
      for (int i = 0; i < 500; ++i)
        trace::counter(Category::kExec, "noise", static_cast<double>(i));
    });

  wami::WamiAppOptions options;
  options.frames = 2;
  options.workload = {32, 32};
  options.lk_iterations = 1;
  wami::WamiApp app('X', options);
  const auto result = app.run();
  EXPECT_TRUE(result.all_verified);

  for (auto& thread : noise) thread.join();
  const TraceReport report = session.stop();
  EXPECT_EQ(report.dropped, 0u);

  std::vector<std::string> signature;
  for (const TraceEvent& event : report.events) {
    if (event.clock != ClockDomain::kSim) continue;
    signature.push_back(std::to_string(event.timestamp) + ":" +
                        std::to_string(event.track) + ":" + event.name +
                        ":" + std::to_string(static_cast<int>(event.phase)));
  }
  return signature;
}

TEST(TraceDeterminismTest, SimStreamIdenticalUnderHostConcurrency) {
  const auto quiet = sim_event_signature(0);
  const auto noisy = sim_event_signature(4);
  ASSERT_FALSE(quiet.empty());
  EXPECT_EQ(quiet, noisy);
}

// --------------------------------------------------------- metrics

TEST(MetricsTest, CountersGaugesHistograms) {
  trace::MetricsRegistry registry;
  registry.counter("reqs").add();
  registry.counter("reqs").add(4);
  EXPECT_EQ(registry.counter("reqs").value(), 5u);

  registry.gauge("depth").set(3.0);
  registry.gauge("depth").set(9.0);
  registry.gauge("depth").set(2.0);
  EXPECT_EQ(registry.gauge("depth").value(), 2.0);
  EXPECT_EQ(registry.gauge("depth").max_seen(), 9.0);

  auto& h = registry.histogram("latency");
  for (const double v : {0.5, 3.0, 5.0, 100.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 108.5);
  EXPECT_GE(h.quantile_upper_bound(0.95), 100.0);

  // Out of long long's range, and not a number: JSON has no spelling for
  // NaN, the exposition format does.
  registry.gauge("huge").set(1e300);
  registry.gauge("nan").set(std::nan(""));

  const std::string json = registry.snapshot_json();
  EXPECT_NE(json.find("\"reqs\":5"), std::string::npos);
  EXPECT_NE(json.find("\"depth\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
  EXPECT_NE(json.find("\"huge\":{\"value\":1e+300,"), std::string::npos);
  EXPECT_NE(json.find("\"nan\":{\"value\":null,"), std::string::npos);
  const std::string prom = registry.prometheus_text();
  EXPECT_NE(prom.find("\npresp_huge 1e+300\n"), std::string::npos);
  EXPECT_NE(prom.find("\npresp_nan NaN\n"), std::string::npos);

  registry.reset();
  EXPECT_EQ(registry.counter("reqs").value(), 0u);
  EXPECT_EQ(registry.histogram("latency").count(), 0u);
}

TEST(MetricsTest, ConcurrentUpdatesSumExactly) {
  trace::MetricsRegistry registry;
  auto& counter = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace presp
