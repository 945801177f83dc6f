#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "exec/topology.hpp"
#include "trace/trace.hpp"

namespace presp::exec {

namespace {
/// Index of the pool worker the current thread is, or -1 for external
/// threads. One pool is expected per scope (flow run, pipeline, bench);
/// nested pools would each see their own workers, so a plain thread_local
/// index keyed by pool pointer keeps stealing correct even then.
thread_local const ThreadPool* t_pool = nullptr;
thread_local int t_worker = -1;
}  // namespace

ThreadPool::ThreadPool(const Options& options) : options_(options) {
  const int n = std::max(1, options.threads);
  options_.threads = n;
  const Topology topo = Topology::detect();
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->steal_order = steal_order(topo, i, n);
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    threads_.emplace_back([this, i, topo] {
      if (options_.pin_workers)
        pin_worker(topo, i, static_cast<int>(workers_.size()));
      worker_loop(i);
    });
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // All tasks have completed (wait_idle), so no queued Task* remain.
}

void ThreadPool::submit(std::function<void()> fn) {
  const std::uint64_t depth =
      unfinished_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::uint64_t peak = max_queue_depth_.load(std::memory_order_relaxed);
  while (depth > peak && !max_queue_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
  if (trace::enabled(trace::Category::kExec)) {
    trace::counter(trace::Category::kExec, "exec.queue_depth",
                   static_cast<double>(depth));
  }
  Task* task = new Task(std::move(fn));
  const int w = (t_pool == this) ? t_worker : -1;
  if (w >= 0) {
    Worker& worker = *workers_[static_cast<std::size_t>(w)];
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.deque.push_back(task);
  } else {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    injection_.push_back(task);
  }
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    ++epoch_;
  }
  wake_cv_.notify_one();
}

ThreadPool::Task* ThreadPool::pop_own(int worker) {
  Worker& own = *workers_[static_cast<std::size_t>(worker)];
  std::lock_guard<std::mutex> lock(own.mutex);
  if (own.deque.empty()) return nullptr;
  Task* task = own.deque.back();
  own.deque.pop_back();
  return task;
}

ThreadPool::Task* ThreadPool::steal_from(int victim) {
  Worker& slot = *workers_[static_cast<std::size_t>(victim)];
  std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.deque.empty()) return nullptr;
  Task* task = slot.deque.front();
  slot.deque.pop_front();
  return task;
}

void ThreadPool::count_steal_failure(int worker) {
  if (worker >= 0)
    workers_[static_cast<std::size_t>(worker)]->steal_failures.fetch_add(
        1, std::memory_order_relaxed);
  else
    external_steal_failures_.fetch_add(1, std::memory_order_relaxed);
}

ThreadPool::Task* ThreadPool::take(int worker) {
  // 1. Own deque, newest first (cache-warm subtasks).
  if (worker >= 0) {
    if (Task* task = pop_own(worker)) return task;
  }
  // 2. Injection queue, oldest first.
  {
    std::lock_guard<std::mutex> lock(injection_mutex_);
    if (!injection_.empty()) {
      Task* task = injection_.front();
      injection_.pop_front();
      return task;
    }
  }
  // 3. Steal from siblings, oldest first (largest remaining work),
  // same-NUMA-node victims first. No tracing in here: this is the hot
  // spin path; it holds one victim's deque lock at a time and must not
  // touch the trace buffers.
  const int n = static_cast<int>(workers_.size());
  if (worker >= 0) {
    Worker& own = *workers_[static_cast<std::size_t>(worker)];
    for (const int victim : own.steal_order) {
      if (Task* task = steal_from(victim)) {
        own.stolen.fetch_add(1, std::memory_order_relaxed);
        return task;
      }
      count_steal_failure(worker);
    }
  } else {
    for (int victim = 0; victim < n; ++victim) {
      if (Task* task = steal_from(victim)) {
        external_stolen_.fetch_add(1, std::memory_order_relaxed);
        return task;
      }
      count_steal_failure(worker);
    }
  }
  return nullptr;
}

void ThreadPool::execute(Task* task, int worker) {
  (*task)();
  delete task;
  if (worker >= 0)
    workers_[static_cast<std::size_t>(worker)]->executed.fetch_add(
        1, std::memory_order_relaxed);
  else
    external_executed_.fetch_add(1, std::memory_order_relaxed);
  if (unfinished_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    idle_cv_.notify_all();
  }
}

bool ThreadPool::run_one() {
  const int worker = (t_pool == this) ? t_worker : -1;
  Task* task = take(worker);
  if (task == nullptr) return false;
  execute(task, worker);
  return true;
}

void ThreadPool::publish_trace_counters() {
  if (!trace::enabled(trace::Category::kExec)) return;
  const Stats s = stats();
  trace::counter(trace::Category::kExec, "exec.steals",
                 static_cast<double>(s.stolen));
  trace::counter(trace::Category::kExec, "exec.steal_failures",
                 static_cast<double>(s.steal_failures));
  trace::counter(trace::Category::kExec, "exec.parks",
                 static_cast<double>(s.parks));
}

void ThreadPool::worker_loop(int index) {
  t_pool = this;
  t_worker = index;
  trace::set_thread_name("worker-" + std::to_string(index));
  Worker& self = *workers_[static_cast<std::size_t>(index)];
  while (true) {
    if (Task* task = take(index)) {
      execute(task, index);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (stop_) return;
    const std::uint64_t seen = epoch_;
    lock.unlock();
    // Late re-check: a submit may have landed between the failed take and
    // reading the epoch.
    if (Task* task = take(index)) {
      execute(task, index);
      continue;
    }
    // About to park: this is the slow path, so trace emission (which may
    // allocate a buffer chunk) is safe here — never in take().
    publish_trace_counters();
    self.parks.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
    self.unparks.fetch_add(1, std::memory_order_relaxed);
    if (stop_) return;
  }
}

void ThreadPool::wait_idle() {
  while (true) {
    if (run_one()) continue;
    std::unique_lock<std::mutex> lock(wake_mutex_);
    if (unfinished_.load(std::memory_order_acquire) == 0) break;
    const std::uint64_t seen = epoch_;
    // Wake on either full drain (idle_cv_) or new work to help with
    // (epoch change). Periodic re-check covers the cross-cv race cheaply.
    idle_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return unfinished_.load(std::memory_order_acquire) == 0 ||
             epoch_ != seen;
    });
  }
  publish_trace_counters();
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.executed = external_executed_.load(std::memory_order_relaxed);
  s.stolen = external_stolen_.load(std::memory_order_relaxed);
  s.steal_failures =
      external_steal_failures_.load(std::memory_order_relaxed);
  for (const auto& worker : workers_) {
    s.executed += worker->executed.load(std::memory_order_relaxed);
    s.stolen += worker->stolen.load(std::memory_order_relaxed);
    s.steal_failures +=
        worker->steal_failures.load(std::memory_order_relaxed);
    s.parks += worker->parks.load(std::memory_order_relaxed);
    s.unparks += worker->unparks.load(std::memory_order_relaxed);
  }
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

int ThreadPool::current_worker() const {
  return t_pool == this ? t_worker : -1;
}

// ---------------------------------------------------------------- TaskGroup

void TaskGroup::run(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->threads() <= 1) {
    fn();  // serial mode: run inline, in submission order
    return;
  }
  remaining_.fetch_add(1, std::memory_order_relaxed);
  pool_->submit([this, fn = std::move(fn)] {
    fn();
    // The decrement must happen under mutex_: wait() re-acquires the mutex
    // after observing zero, which then cannot succeed until this thread has
    // released cv_ and the lock — so the caller cannot destroy the group
    // while we are still touching it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1)
      cv_.notify_all();
  });
}

void TaskGroup::wait() {
  if (pool_ == nullptr) return;
  while (remaining_.load(std::memory_order_acquire) != 0) {
    if (pool_->run_one()) continue;
    std::unique_lock<std::mutex> lock(mutex_);
    // The queued tasks are all running elsewhere; sleep until the group
    // drains (short timeout re-checks the queues for late arrivals).
    cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  // Handshake with the final completion, whose decrement-to-zero runs under
  // mutex_: once we hold the lock, that task has fully left cv_/mutex_ and
  // destroying the group is safe.
  std::lock_guard<std::mutex> lock(mutex_);
}

}  // namespace presp::exec
