#include "ops/events.hpp"

#include <algorithm>
#include <chrono>

namespace presp::ops {

SseRing::SseRing(std::size_t capacity)
    : slots_(std::max<std::size_t>(capacity, 1)) {}

bool SseRing::push(SseEvent event) {
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t tail = tail_.load(std::memory_order_acquire);
  if (head - tail >= slots_.size()) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // The acquire-load of tail_ above is what licenses reusing the slot
  // the consumer freed.
  slots_[head % slots_.size()] = std::move(event);
  // Release-publish the slot to the consumer.
  head_.store(head + 1, std::memory_order_release);
  return true;
}

bool SseRing::pop(SseEvent* out) {
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  if (tail == head) return false;
  *out = std::move(slots_[tail % slots_.size()]);
  // Release the slot back to the producer (paired with the acquire-load
  // of tail_ in push()).
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

bool SseClient::wait_pop(SseEvent* out, int timeout_ms) {
  if (ring.pop(out)) return true;
  bool popped = false;
  std::unique_lock<std::mutex> lock(wake_mutex);
  wake_cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    if (!open.load(std::memory_order_relaxed)) return true;
    popped = ring.pop(out);
    return popped;
  });
  // Cover the timeout race where the event landed after the last
  // predicate evaluation but before the wait expired.
  return popped || ring.pop(out);
}

std::shared_ptr<SseClient> SseHub::subscribe() {
  auto client = std::make_shared<SseClient>(capacity_);
  std::lock_guard<std::mutex> lock(clients_mutex_);
  clients_.push_back(client);
  return client;
}

void SseHub::unsubscribe(const std::shared_ptr<SseClient>& client) {
  std::lock_guard<std::mutex> lock(clients_mutex_);
  departed_dropped_.fetch_add(client->ring.dropped(),
                              std::memory_order_relaxed);
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
}

void SseHub::publish(std::string event, std::string data) {
  SseEvent e;
  e.event = std::move(event);
  e.data = std::move(data);
  e.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  published_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(clients_mutex_);
  for (const auto& client : clients_) {
    client->ring.push(e);
    // Bare notify: the producer never takes a client's wake mutex, so a
    // consumer stuck in a slow socket write cannot transitively stall
    // the pump. The consumer's timed wait covers the lost-wakeup window.
    client->wake_cv.notify_one();
  }
}

void SseHub::close_all() {
  std::lock_guard<std::mutex> lock(clients_mutex_);
  for (const auto& client : clients_) {
    client->open.store(false, std::memory_order_relaxed);
    client->wake_cv.notify_one();
  }
}

int SseHub::clients() const {
  std::lock_guard<std::mutex> lock(clients_mutex_);
  return static_cast<int>(clients_.size());
}

std::uint64_t SseHub::dropped() const {
  std::uint64_t total = departed_dropped_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(clients_mutex_);
  for (const auto& client : clients_) total += client->ring.dropped();
  return total;
}

std::string sse_frame(const SseEvent& event) {
  std::string out;
  out += "id: " + std::to_string(event.id) + "\n";
  if (!event.event.empty()) out += "event: " + event.event + "\n";
  out += "data: " + event.data + "\n\n";
  return out;
}

void SseParser::feed(const char* data, std::size_t size) {
  buffer_.append(data, size);
}

bool SseParser::next(SseEvent* out) {
  for (;;) {
    const std::size_t end = buffer_.find("\n\n");
    if (end == std::string::npos) return false;
    const std::string block = buffer_.substr(0, end);
    buffer_.erase(0, end + 2);
    *out = SseEvent{};
    bool has_field = false;
    std::size_t pos = 0;
    while (pos < block.size()) {
      std::size_t eol = block.find('\n', pos);
      if (eol == std::string::npos) eol = block.size();
      const std::string line = block.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.rfind("id: ", 0) == 0) {
        out->id = std::stoull(line.substr(4));
        has_field = true;
      } else if (line.rfind("event: ", 0) == 0) {
        out->event = line.substr(7);
        has_field = true;
      } else if (line.rfind("data: ", 0) == 0) {
        out->data = line.substr(6);
        has_field = true;
      }
    }
    // Blocks with no fields (": comment" handshakes, keep-alives) are
    // not events; keep scanning.
    if (has_field) return true;
  }
}

}  // namespace presp::ops
