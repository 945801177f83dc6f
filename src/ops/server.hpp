// The embedded ops server (DESIGN.md §16): a dependency-free HTTP/1.1
// endpoint surface over the observability subsystems that already exist
// in-process —
//
//   GET /            endpoint catalog
//   GET /metrics     MetricsRegistry JSON snapshot
//   GET /metrics/prometheus   Prometheus text exposition
//   GET /health      TileHealthRegistry / fleet breaker states
//   GET /trace/summary        live TraceSession span summary
//   GET /events      SSE stream of periodic deltas (metrics diffs,
//                    breaker transitions) and externally published
//                    events (watch-mode lint findings)
//
// Threading: one acceptor thread (poll()-timeout loop for graceful
// shutdown), one pump thread (periodic snapshot diffs -> SseHub), and an
// exec::ThreadPool of connection workers. A plain GET occupies a worker
// for one request/response; an SSE client occupies one until it
// disconnects. Connections beyond max_connections get an immediate 503.
//
// Observer contract: handlers only ever read snapshots (MetricsRegistry
// copies, FleetOpsSnapshot, TraceSession::snapshot) — they never touch
// live scheduler state, so serving traffic cannot perturb a fleet run's
// virtual-time results (the bench_soak fleet replay gate proves it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.hpp"
#include "ops/events.hpp"
#include "ops/http.hpp"
#include "ops/options.hpp"

namespace presp::ops {

class OpsServer {
 public:
  struct Stats {
    std::uint64_t requests = 0;       // HTTP requests served (incl. SSE)
    std::uint64_t rejected = 0;       // 503s at the connection cap
    std::uint64_t sse_clients = 0;    // subscriptions over the lifetime
    std::uint64_t sse_published = 0;  // events fanned out by the pump
    std::uint64_t sse_dropped = 0;    // per-client ring overflows
  };

  /// `health_source` supplies the /health body (endpoint returns
  /// {"health":null} when absent). It runs on a server worker, so it
  /// must be thread-safe (the snapshot accessors all are).
  explicit OpsServer(OpsOptions options);
  ~OpsServer();
  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  void set_health_source(std::function<std::string()> source) {
    health_source_ = std::move(source);
  }

  /// Binds, spawns acceptor/pump/workers. Throws presp::Error when the
  /// port cannot be bound. No-op when options.enabled is false.
  void start();
  /// Graceful shutdown: stops accepting, closes every live connection,
  /// drains the workers. Idempotent; also run by the destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  /// Actual bound port (differs from options().port when that was 0).
  int port() const { return port_; }
  const OpsOptions& options() const { return options_; }

  /// Publishes an externally produced event ("lint" findings from the
  /// watch loop) to /events subscribers. Thread-safe; delivered by the
  /// pump within one publish interval.
  void publish(std::string event, std::string data);

  Stats stats() const;

 private:
  void accept_loop();
  void pump_loop();
  void handle_connection(int fd);
  void handle_sse(int fd);
  std::string respond(const HttpRequest& request, bool* is_sse);
  void track(int fd, bool add);

  OpsOptions options_;
  std::function<std::string()> health_source_;
  SseHub hub_;
  std::unique_ptr<exec::ThreadPool> workers_;
  std::thread acceptor_;
  std::thread pump_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<int> active_connections_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> sse_clients_{0};
  /// Live sockets, so stop() can shutdown() them under the workers.
  std::mutex fds_mutex_;
  std::set<int> open_fds_;
  /// Pump inbox for publish(): drained into the hub each pump tick (or
  /// immediately on wake), so external producers never touch the hub's
  /// fan-out path concurrently with the pump.
  std::mutex inbox_mutex_;
  std::condition_variable inbox_cv_;
  std::vector<SseEvent> inbox_;
};

}  // namespace presp::ops
