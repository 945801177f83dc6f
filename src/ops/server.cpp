#include "ops/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>

#include "ops/sources.hpp"
#include "trace/metrics.hpp"

namespace presp::ops {

namespace {

constexpr int kAcceptPollMs = 100;
constexpr int kRequestTimeoutMs = 2000;

trace::Counter& counter(const char* name) {
  return trace::MetricsRegistry::global().counter(name);
}

void set_recv_timeout(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

}  // namespace

OpsServer::OpsServer(OpsOptions options)
    : options_(std::move(options)),
      hub_(static_cast<std::size_t>(
          options_.sse_buffer_events > 0 ? options_.sse_buffer_events : 1)) {
  options_.validate();
}

OpsServer::~OpsServer() { stop(); }

void OpsServer::start() {
  if (!options_.enabled || running_.load(std::memory_order_relaxed)) return;
  listen_fd_ = listen_on(options_.bind, options_.port,
                         options_.max_connections, &port_);
  stopping_.store(false, std::memory_order_relaxed);
  exec::ThreadPool::Options pool;
  pool.threads = options_.workers;
  pool.pin_workers = false;  // server workers mostly block on sockets
  workers_ = std::make_unique<exec::ThreadPool>(pool);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  pump_ = std::thread([this] { pump_loop(); });
}

void OpsServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stopping_.store(true, std::memory_order_release);
  // Wake the pump immediately and tell SSE consumers to bail.
  inbox_cv_.notify_all();
  hub_.close_all();
  // Shut down every live connection so blocked reads/writes return.
  {
    std::lock_guard<std::mutex> lock(fds_mutex_);
    for (const int fd : open_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (acceptor_.joinable()) acceptor_.join();
  if (pump_.joinable()) pump_.join();
  // The pool destructor drains the (now unblocked) connection handlers.
  workers_.reset();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void OpsServer::publish(std::string event, std::string data) {
  SseEvent e;
  e.event = std::move(event);
  e.data = std::move(data);
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    inbox_.push_back(std::move(e));
  }
  inbox_cv_.notify_one();
}

OpsServer::Stats OpsServer::stats() const {
  Stats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.sse_clients = sse_clients_.load(std::memory_order_relaxed);
  s.sse_published = hub_.published();
  s.sse_dropped = hub_.dropped();
  return s;
}

void OpsServer::track(int fd, bool add) {
  std::lock_guard<std::mutex> lock(fds_mutex_);
  if (add) {
    open_fds_.insert(fd);
  } else {
    open_fds_.erase(fd);
  }
}

void OpsServer::accept_loop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout (re-check stop flag) or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      // Bounded connections: refuse immediately rather than queueing
      // unbounded work behind the pool.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      counter("ops.http.rejected").add();
      const std::string resp =
          http_response(503, "application/json",
                        "{\"error\":\"connection limit reached\"}");
      send_all(fd, resp);
      ::close(fd);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_relaxed);
    track(fd, true);
    workers_->submit([this, fd] {
      handle_connection(fd);
      track(fd, false);
      ::close(fd);
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
    });
  }
}

std::string OpsServer::respond(const HttpRequest& request, bool* is_sse) {
  *is_sse = false;
  if (request.method != "GET")
    return http_response(405, "application/json",
                        "{\"error\":\"only GET is supported\"}");
  // Strip any query string: the endpoints take no parameters.
  std::string path = request.target;
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  if (path == "/" || path == "/index") {
    return http_response(
        200, "application/json",
        "{\"endpoints\":[\"/metrics\",\"/metrics/prometheus\","
        "\"/health\",\"/trace/summary\",\"/events\"]}");
  }
  if (path == "/metrics") {
    return http_response(200, "application/json",
                         trace::MetricsRegistry::global().snapshot_json());
  }
  if (path == "/metrics/prometheus") {
    return http_response(200, "text/plain; version=0.0.4",
                         trace::MetricsRegistry::global().prometheus_text());
  }
  if (path == "/health") {
    const std::string body =
        health_source_ ? health_source_() : "{\"health\":null}";
    return http_response(200, "application/json", body);
  }
  if (path == "/trace/summary") {
    return http_response(200, "application/json", trace_summary_json());
  }
  if (path == "/events") {
    *is_sse = true;
    return "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
           "Cache-Control: no-cache\r\nConnection: close\r\n\r\n";
  }
  return http_response(404, "application/json",
                       "{\"error\":\"no such endpoint\"}");
}

void OpsServer::handle_connection(int fd) {
  set_recv_timeout(fd, kRequestTimeoutMs);
  HttpRequest request;
  if (!read_http_request(fd, &request)) return;
  requests_.fetch_add(1, std::memory_order_relaxed);
  counter("ops.http.requests").add();
  bool is_sse = false;
  const std::string head = respond(request, &is_sse);
  if (!send_all(fd, head)) return;
  if (is_sse) handle_sse(fd);
}

void OpsServer::handle_sse(int fd) {
  sse_clients_.fetch_add(1, std::memory_order_relaxed);
  trace::MetricsRegistry::global().gauge("ops.sse.clients").set(
      static_cast<double>(hub_.clients() + 1));
  const std::shared_ptr<SseClient> client = hub_.subscribe();
  // Opening handshake so EventSource clients see the stream is live.
  send_all(fd, std::string(": presp ops stream\n\n"));
  SseEvent event;
  while (running_.load(std::memory_order_acquire) &&
         client->open.load(std::memory_order_relaxed)) {
    if (!client->wait_pop(&event, kAcceptPollMs)) continue;
    if (!send_all(fd, sse_frame(event))) break;  // client went away
  }
  hub_.unsubscribe(client);
  trace::MetricsRegistry::global().gauge("ops.sse.clients").set(
      static_cast<double>(hub_.clients()));
}

void OpsServer::pump_loop() {
  trace::MetricsSnapshot prev = trace::MetricsRegistry::global().snapshot();
  std::string prev_health;
  while (running_.load(std::memory_order_acquire)) {
    // Sleep until the next tick or an external publish arrives.
    std::vector<SseEvent> pending;
    {
      std::unique_lock<std::mutex> lock(inbox_mutex_);
      inbox_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.publish_interval_ms),
          [this] {
            return !inbox_.empty() ||
                   !running_.load(std::memory_order_acquire);
          });
      pending.swap(inbox_);
    }
    if (!running_.load(std::memory_order_acquire)) break;
    for (SseEvent& e : pending) {
      hub_.publish(std::move(e.event), std::move(e.data));
      counter("ops.sse.published").add();
    }
    // Metrics deltas since the last tick.
    trace::MetricsSnapshot cur = trace::MetricsRegistry::global().snapshot();
    const std::string delta = metrics_delta_json(prev, cur);
    if (delta != "{}") {
      hub_.publish("metrics", delta);
      counter("ops.sse.published").add();
    }
    prev = std::move(cur);
    // Health / breaker transitions: publish only when the rendered state
    // changes, so an idle fleet stays silent on the wire.
    if (health_source_) {
      std::string health = health_source_();
      if (health != prev_health) {
        hub_.publish("health", health);
        counter("ops.sse.published").add();
        prev_health = std::move(health);
      }
    }
    trace::MetricsRegistry::global().gauge("ops.sse.dropped").set(
        static_cast<double>(hub_.dropped()));
  }
}

}  // namespace presp::ops
