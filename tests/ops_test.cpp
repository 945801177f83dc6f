// The live ops plane (DESIGN.md §16): options parsing, the SSE
// ring/hub isolation contract, wire framing, snapshot-vs-mutation
// safety of the registries the endpoints read, and the embedded HTTP
// server end to end on an ephemeral loopback port — including the 503
// connection cap, slow-client drop accounting and the watch-mode lint
// bridge into /events.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "ops/events.hpp"
#include "ops/http.hpp"
#include "ops/options.hpp"
#include "ops/server.hpp"
#include "ops/sources.hpp"
#include "ops/watch.hpp"
#include "runtime/health.hpp"
#include "trace/metrics.hpp"
#include "util/config.hpp"
#include "util/error.hpp"

namespace presp::ops {
namespace {

namespace fs = std::filesystem;

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ------------------------------------------------------------- options

TEST(OpsOptionsTest, DefaultsAreDisabledLoopback) {
  const OpsOptions opts = OpsOptions::from_config(Config::parse(""));
  EXPECT_FALSE(opts.enabled);
  EXPECT_EQ(opts.bind, "127.0.0.1");
  EXPECT_EQ(opts.port, 0);
  EXPECT_EQ(opts.workers, 4);
  EXPECT_EQ(opts.max_connections, 16);
  EXPECT_EQ(opts.sse_buffer_events, 64);
  EXPECT_EQ(opts.publish_interval_ms, 50);
  EXPECT_NO_THROW(opts.validate());
}

TEST(OpsOptionsTest, ParsesOpsSection) {
  const OpsOptions opts = OpsOptions::from_config(Config::parse(R"(
[ops]
enabled = true
bind = 0.0.0.0
port = 9180
workers = 2
max_connections = 8
sse_buffer_events = 16
publish_interval_ms = 10
)"));
  EXPECT_TRUE(opts.enabled);
  EXPECT_EQ(opts.bind, "0.0.0.0");
  EXPECT_EQ(opts.port, 9180);
  EXPECT_EQ(opts.workers, 2);
  EXPECT_EQ(opts.max_connections, 8);
  EXPECT_EQ(opts.sse_buffer_events, 16);
  EXPECT_EQ(opts.publish_interval_ms, 10);
  EXPECT_NO_THROW(opts.validate());
}

TEST(OpsOptionsTest, ValidateRejectsUnusableValues) {
  OpsOptions opts;
  opts.port = 70'000;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = OpsOptions{};
  opts.workers = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = OpsOptions{};
  opts.max_connections = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = OpsOptions{};
  opts.sse_buffer_events = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = OpsOptions{};
  opts.publish_interval_ms = 0;
  EXPECT_THROW(opts.validate(), InvalidArgument);
  opts = OpsOptions{};
  opts.bind.clear();
  EXPECT_THROW(opts.validate(), InvalidArgument);
}

// ------------------------------------------------------------ SSE ring

TEST(SseRingTest, FifoOrderAndDropAndCount) {
  SseRing ring(4);
  for (int i = 0; i < 6; ++i) {
    SseEvent e;
    e.id = static_cast<std::uint64_t>(i);
    e.data = std::to_string(i);
    const bool pushed = ring.push(std::move(e));
    EXPECT_EQ(pushed, i < 4);
  }
  EXPECT_EQ(ring.dropped(), 2u);

  SseEvent out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.pop(&out));
    EXPECT_EQ(out.data, std::to_string(i));  // FIFO, drops are the newest
  }
  EXPECT_FALSE(ring.pop(&out));

  // Space freed by the pops is reusable; the drop tally is cumulative.
  EXPECT_TRUE(ring.push(SseEvent{"metrics", "{}", 7}));
  ASSERT_TRUE(ring.pop(&out));
  EXPECT_EQ(out.id, 7u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(SseClientTest, WaitPopTimesOutThenDelivers) {
  SseClient client(4);
  SseEvent out;
  EXPECT_FALSE(client.wait_pop(&out, 10));

  std::thread producer([&client] {
    sleep_ms(20);
    client.ring.push(SseEvent{"lint", "payload", 1});
    client.wake_cv.notify_one();
  });
  EXPECT_TRUE(client.wait_pop(&out, 2'000));
  EXPECT_EQ(out.data, "payload");
  producer.join();
}

TEST(SseHubTest, FanoutDropsPerSlowClientAndFoldsDeparted) {
  SseHub hub(2);
  auto fast = hub.subscribe();
  auto slow = hub.subscribe();
  EXPECT_EQ(hub.clients(), 2);

  // The fast consumer keeps draining; the slow one never pops, so only
  // its own ring overflows.
  SseEvent out;
  for (int i = 0; i < 5; ++i) {
    hub.publish("metrics", std::to_string(i));
    while (fast->ring.pop(&out)) {
    }
  }
  EXPECT_EQ(hub.published(), 5u);
  EXPECT_EQ(fast->ring.dropped(), 0u);
  EXPECT_EQ(slow->ring.dropped(), 3u);  // capacity 2, 5 published
  EXPECT_EQ(hub.dropped(), 3u);

  // A departing client's tally survives its unsubscription.
  hub.unsubscribe(slow);
  EXPECT_EQ(hub.clients(), 1);
  EXPECT_EQ(hub.dropped(), 3u);
}

TEST(SseWireTest, FrameParserRoundTripSkipsComments) {
  SseEvent a{"metrics", "{\"counters\":{}}", 3};
  SseEvent b{"lint", "{\"errors\":1}", 4};
  // Streams open with a comment handshake; keep-alives look the same.
  const std::string wire =
      ": presp ops stream\n\n" + sse_frame(a) + ": keep-alive\n\n" +
      sse_frame(b);

  // Feed byte-by-byte to exercise incremental reassembly.
  SseParser parser;
  std::vector<SseEvent> events;
  SseEvent out;
  for (char c : wire) {
    parser.feed(&c, 1);
    while (parser.next(&out)) events.push_back(out);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].id, 3u);
  EXPECT_EQ(events[0].event, "metrics");
  EXPECT_EQ(events[0].data, "{\"counters\":{}}");
  EXPECT_EQ(events[1].id, 4u);
  EXPECT_EQ(events[1].event, "lint");
  EXPECT_EQ(events[1].data, "{\"errors\":1}");
}

// --------------------------------------------- snapshots under mutation

// The endpoint contract: readers take snapshots while writer threads
// keep mutating, and every read is internally consistent. Run under
// TSan (tier-1) this is the data-race regression for the observer path.
TEST(SnapshotUnderMutationTest, MetricsRegistrySnapshotsStayConsistent) {
  trace::MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kIncrements = 5'000;
  std::atomic<bool> stop{false};
  // Registered before any thread starts, so the reader's first snapshot
  // already holds every metric (an empty registry prints no `presp_` line).
  // The writers still look their metrics up concurrently.
  registry.counter("ops.test.counter");
  registry.gauge("ops.test.depth");
  registry.histogram("ops.test.lat");

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&registry, w] {
      trace::Counter& counter = registry.counter("ops.test.counter");
      trace::Gauge& gauge = registry.gauge("ops.test.depth");
      trace::Histogram& histogram = registry.histogram("ops.test.lat");
      for (int i = 0; i < kIncrements; ++i) {
        counter.add();
        gauge.set(static_cast<double>(i % 32));
        histogram.observe(static_cast<double>((w + 1) * (i % 16)));
      }
    });
  }

  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const trace::MetricsSnapshot snap = registry.snapshot();
      for (const auto& [name, value] : snap.counters)
        EXPECT_LE(value, static_cast<std::uint64_t>(kWriters * kIncrements));
      EXPECT_EQ(registry.snapshot_json().front(), '{');
      EXPECT_NE(registry.prometheus_text().find("presp_"),
                std::string::npos);
    }
  });

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const trace::MetricsSnapshot final_snap = registry.snapshot();
  EXPECT_EQ(final_snap.counters.at("ops.test.counter"),
            static_cast<std::uint64_t>(kWriters * kIncrements));
  EXPECT_EQ(final_snap.histograms.at("ops.test.lat").count,
            static_cast<std::uint64_t>(kWriters * kIncrements));
}

TEST(SnapshotUnderMutationTest, TileHealthSnapshotsStayConsistent) {
  runtime::TileHealthRegistry registry;
  constexpr int kTiles = 4;
  constexpr int kRounds = 2'000;
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int tile = 0; tile < kTiles; ++tile) {
    writers.emplace_back([&registry, tile] {
      for (int i = 0; i < kRounds; ++i) {
        registry.record_failure(tile);
        registry.record_success(tile);
        if (i % 128 == 0) {
          registry.quarantine(tile);
          registry.rehabilitate(tile);
        }
      }
    });
  }

  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = registry.snapshot();
      EXPECT_LE(snap.size(), static_cast<std::size_t>(kTiles));
      const auto stats = registry.stats();
      EXPECT_GE(stats.failures, stats.quarantines);
      // Render through the endpoint path too: consistent JSON from a
      // moving registry.
      const std::string body = tile_health_json(snap, stats);
      EXPECT_EQ(body.front(), '{');
    }
  });

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto stats = registry.stats();
  EXPECT_EQ(stats.failures,
            static_cast<std::uint64_t>(kTiles) * kRounds);
  EXPECT_EQ(stats.quarantines,
            static_cast<std::uint64_t>(kTiles) * (kRounds / 128 + 1));
}

TEST(SourcesTest, MetricsDeltaJsonReportsOnlyMovement) {
  trace::MetricsSnapshot prev;
  prev.counters["a"] = 3;
  prev.counters["b"] = 5;
  trace::MetricsSnapshot cur = prev;

  EXPECT_EQ(metrics_delta_json(prev, cur), "{}");

  cur.counters["b"] = 9;
  cur.counters["c"] = 1;
  const std::string delta = metrics_delta_json(prev, cur);
  EXPECT_EQ(delta.find("\"a\""), std::string::npos);
  EXPECT_NE(delta.find("\"b\":4"), std::string::npos);
  EXPECT_NE(delta.find("\"c\":1"), std::string::npos);
}

// -------------------------------------------------------------- server

// Raw one-shot request helper for the verbs http_get cannot produce.
int raw_request_status(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  send_all(fd, request);
  std::string head;
  char buf[512];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    head.append(buf, static_cast<std::size_t>(n));
    if (head.find("\r\n") != std::string::npos) break;
  }
  ::close(fd);
  if (head.rfind("HTTP/1.1 ", 0) != 0 || head.size() < 12) return -1;
  return std::atoi(head.c_str() + 9);
}

// Collects every event from /events until the server closes the stream.
std::vector<SseEvent> collect_sse(int port) {
  std::vector<SseEvent> events;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return events;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return events;
  }
  send_all(fd,
           "GET /events HTTP/1.1\r\nHost: t\r\n"
           "Accept: text/event-stream\r\n\r\n");
  std::string head;
  bool in_body = false;
  SseParser parser;
  SseEvent out;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    if (!in_body) {
      head.append(buf, static_cast<std::size_t>(n));
      const std::size_t end = head.find("\r\n\r\n");
      if (end == std::string::npos) continue;
      in_body = true;
      parser.feed(head.data() + end + 4, head.size() - end - 4);
    } else {
      parser.feed(buf, static_cast<std::size_t>(n));
    }
    while (parser.next(&out)) events.push_back(out);
  }
  ::close(fd);
  return events;
}

OpsOptions test_server_options() {
  OpsOptions opts;
  opts.enabled = true;
  opts.port = 0;  // ephemeral: tests never collide on a port
  opts.workers = 4;
  opts.max_connections = 8;
  opts.publish_interval_ms = 5;
  return opts;
}

TEST(OpsServerTest, ServesEndpointCatalogAndSnapshots) {
  OpsServer server(test_server_options());
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_get(server.port(), "/", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("/metrics"), std::string::npos);
  EXPECT_NE(body.find("/events"), std::string::npos);

  ASSERT_TRUE(http_get(server.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '{');

  ASSERT_TRUE(http_get(server.port(), "/metrics/prometheus", &status,
                       &body));
  EXPECT_EQ(status, 200);

  // No health source attached: explicit null, still valid JSON.
  ASSERT_TRUE(http_get(server.port(), "/health", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{\"health\":null}");

  ASSERT_TRUE(http_get(server.port(), "/trace/summary", &status, &body));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body.front(), '{');

  server.set_health_source([] { return std::string("{\"tiles\":3}"); });
  ASSERT_TRUE(http_get(server.port(), "/health", &status, &body));
  EXPECT_EQ(body, "{\"tiles\":3}");

  ASSERT_TRUE(http_get(server.port(), "/no-such-endpoint", &status, &body));
  EXPECT_EQ(status, 404);

  EXPECT_EQ(raw_request_status(server.port(),
                               "POST /metrics HTTP/1.1\r\nHost: t\r\n"
                               "Content-Length: 0\r\n\r\n"),
            405);

  const OpsServer::Stats stats = server.stats();
  EXPECT_GE(stats.requests, 8u);
  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
}

TEST(OpsServerTest, RejectsBeyondConnectionCapWith503) {
  OpsOptions opts = test_server_options();
  opts.workers = 2;
  opts.max_connections = 1;
  OpsServer server(opts);
  server.start();

  // One SSE subscriber occupies the single connection slot until the
  // server shuts down.
  std::thread occupant([&server] {
    sse_stream(server.port(), "/events", 0, 30'000);
  });
  for (int i = 0; i < 200 && server.stats().sse_clients == 0; ++i)
    sleep_ms(5);
  ASSERT_EQ(server.stats().sse_clients, 1u);

  int status = 0;
  std::string body;
  ASSERT_TRUE(http_get(server.port(), "/metrics", &status, &body));
  EXPECT_EQ(status, 503);
  EXPECT_GE(server.stats().rejected, 1u);

  server.stop();
  occupant.join();
}

TEST(OpsServerTest, PublishReachesSseSubscribers) {
  OpsServer server(test_server_options());
  server.start();

  std::thread client;
  std::vector<SseEvent> events;
  client = std::thread(
      [&events, port = server.port()] { events = collect_sse(port); });
  for (int i = 0; i < 200 && server.stats().sse_clients == 0; ++i)
    sleep_ms(5);
  ASSERT_EQ(server.stats().sse_clients, 1u);

  server.publish("lint", "{\"path\":\"a.esp_config\",\"errors\":2}");
  // One publish interval delivers the inbox; wait a few to be safe.
  sleep_ms(100);
  server.stop();
  client.join();

  bool saw_lint = false;
  for (const SseEvent& e : events)
    if (e.event == "lint" &&
        e.data == "{\"path\":\"a.esp_config\",\"errors\":2}")
      saw_lint = true;
  EXPECT_TRUE(saw_lint) << events.size() << " events, none was the lint one";
}

TEST(OpsServerTest, SlowClientOverflowsOwnRingOnly) {
  OpsOptions opts = test_server_options();
  opts.sse_buffer_events = 2;
  OpsServer server(opts);
  server.start();

  std::atomic<bool> hurry{false};
  SseStreamResult slow_result;
  std::thread slow([&slow_result, &hurry, port = server.port()] {
    // 1 KiB receive window + 250 ms between reads: the TCP path
    // backpressures almost immediately and the server-side ring (cap 2)
    // must overflow.
    slow_result = sse_stream(port, "/events", 250, 60'000, 1'024, &hurry);
  });
  for (int i = 0; i < 200 && server.stats().sse_clients == 0; ++i)
    sleep_ms(5);
  ASSERT_EQ(server.stats().sse_clients, 1u);

  for (int i = 0; i < 2'000 && server.stats().sse_dropped == 0; ++i) {
    server.publish("probe", std::string(4'096, 'x'));
    sleep_ms(1);
  }
  EXPECT_GT(server.stats().sse_dropped, 0u);

  server.stop();
  hurry.store(true);  // drain the client's TCP backlog at full speed
  slow.join();
  EXPECT_TRUE(slow_result.connected);
  EXPECT_GT(slow_result.events, 0u);
}

// ----------------------------------------------------------- watch-lint

class TempConfigDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("presp-ops-watch-" +
            std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string write_config(const std::string& name,
                           const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream out(path);
    out << text;
    return path.string();
  }

  fs::path dir_;
};

constexpr const char* kCleanConfig = R"([soc]
name = watch_soc
device = vc707
rows = 2
cols = 3

[tiles]
r0c0 = cpu
r0c1 = mem
r0c2 = aux
r1c0 = reconf:conv2d,gemm
r1c1 = reconf:fft,sort
r1c2 = empty
)";

class WatchLintTest : public TempConfigDir {};

TEST_F(WatchLintTest, RelintsOnlyChangedFiles) {
  const std::string path = write_config("watched.esp_config", kCleanConfig);
  std::vector<LintWatcher::Report> reports;
  LintWatcher watcher({path}, [&reports](const LintWatcher::Report& r) {
    reports.push_back(r);
  });

  EXPECT_EQ(watcher.lint_all(), 1);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].path, path);
  EXPECT_EQ(reports[0].errors, 0u);

  // Unchanged file: the poll is quiet.
  EXPECT_EQ(watcher.poll_once(), 0);
  EXPECT_EQ(reports.size(), 1u);

  // An edit that breaks the config re-lints with findings. Appending
  // changes the size, so the fingerprint moves even within one mtime
  // granule.
  {
    std::ofstream out(path, std::ios::app);
    out << "\n[ops]\nenabled = true\nport = 99999\n";
  }
  EXPECT_EQ(watcher.poll_once(), 1);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_GE(reports[1].errors, 1u);  // ops.port out of range
  EXPECT_NE(reports[1].findings_json.find("ops.port"), std::string::npos);
  EXPECT_EQ(watcher.reports(), 2u);
}

TEST_F(WatchLintTest, DeletedFileReportsParseErrorOnce) {
  const std::string path = write_config("doomed.esp_config", kCleanConfig);
  std::vector<LintWatcher::Report> reports;
  LintWatcher watcher({path}, [&reports](const LintWatcher::Report& r) {
    reports.push_back(r);
  });
  watcher.lint_all();
  ASSERT_EQ(reports.size(), 1u);

  fs::remove(path);
  EXPECT_EQ(watcher.poll_once(), 1);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_GE(reports[1].errors, 1u);
  // The deletion is reported once, not on every subsequent poll.
  EXPECT_EQ(watcher.poll_once(), 0);
  EXPECT_EQ(reports.size(), 2u);
}

TEST_F(WatchLintTest, ReportsReachSseSubscribersViaServer) {
  const std::string path = write_config("live.esp_config", kCleanConfig);

  OpsServer server(test_server_options());
  server.start();
  LintWatcher watcher({path}, [&server](const LintWatcher::Report& r) {
    server.publish("lint", "{\"path\":\"" + r.path + "\",\"errors\":" +
                               std::to_string(r.errors) + "}");
  });

  std::vector<SseEvent> events;
  std::thread client(
      [&events, port = server.port()] { events = collect_sse(port); });
  for (int i = 0; i < 200 && server.stats().sse_clients == 0; ++i)
    sleep_ms(5);
  ASSERT_EQ(server.stats().sse_clients, 1u);

  watcher.lint_all();
  {
    std::ofstream out(path, std::ios::app);
    out << "\n[ops]\nenabled = true\nworkers = 0\n";
  }
  EXPECT_EQ(watcher.poll_once(), 1);
  sleep_ms(100);
  server.stop();
  client.join();

  // Both the baseline pass and the edit arrived as "lint" events.
  int lint_events = 0;
  bool saw_error_report = false;
  for (const SseEvent& e : events) {
    if (e.event != "lint") continue;
    ++lint_events;
    if (e.data.find("\"errors\":0") == std::string::npos)
      saw_error_report = true;
  }
  EXPECT_GE(lint_events, 2);
  EXPECT_TRUE(saw_error_report);
}

}  // namespace
}  // namespace presp::ops
