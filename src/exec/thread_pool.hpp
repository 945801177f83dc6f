// Work-stealing thread pool: the task-level parallel execution substrate
// shared by the DPR flow (parallel OoC synthesis + strategy-shaped P&R
// fan-out), the WAMI stage pipeline and the row-tiled kernels.
//
// Topology: one deque per worker plus an external injection queue. A
// worker pops from the back of its own deque (LIFO: cache-warm subtasks
// first) and, when empty, steals from the front of a sibling's deque
// (FIFO: oldest, usually largest work) or the injection queue. Threads
// submitting from outside the pool land in the injection queue.
//
// Each per-worker deque is a std::deque guarded by its own mutex. The
// flow's pools run a few dozen coarse tasks (one per strategy group or
// stage), so steals are rare and an uncontended lock costs nothing that
// shows end to end. Victims are visited in topology order — same-NUMA-node
// workers first — and workers are best-effort pinned to CPUs when the host
// has enough of them (exec/topology.hpp).
//
// Determinism contract: the pool never promises an execution *order*, so
// tasks must be data-independent (or ordered via TaskGraph dependencies)
// and reductions must combine partial results in a task-index order chosen
// by the caller. parallel_for() supports this by making chunk boundaries a
// pure function of (range, grain) — never of the worker count — so a
// chunk-indexed partial-sum reduction is bit-identical at 1, 2 or N
// threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

namespace presp::exec {

class ThreadPool {
 public:
  struct Options {
    int threads = 1;
    /// Pin workers round-robin to CPUs (no-op when the host has fewer
    /// CPUs than workers, or off Linux).
    bool pin_workers = true;
  };

  /// Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads) : ThreadPool(make_options(threads)) {}
  explicit ThreadPool(const Options& options);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return static_cast<int>(threads_.size()); }

  /// Enqueues one task. Callable from any thread, including from inside a
  /// running task (the subtask lands in the submitting worker's own deque).
  void submit(std::function<void()> fn);

  /// Runs one queued task on the calling thread if any is available
  /// (own deque first, then steals). Returns false when nothing was found.
  /// This is the help-while-waiting primitive TaskGroup/TaskGraph use so a
  /// blocked submitter contributes cycles instead of sleeping.
  bool run_one();

  /// Blocks until every submitted task has finished, helping in the
  /// meantime. Must not be called from inside a pool task (the running
  /// task itself would never count as finished); use TaskGroup for nested
  /// fork-join.
  void wait_idle();

  struct Stats {
    std::uint64_t executed = 0;  // tasks run to completion
    std::uint64_t stolen = 0;    // tasks taken from another worker's deque
    /// Steal probes that found nothing (empty victim deque).
    std::uint64_t steal_failures = 0;
    /// Times a worker went to sleep on the wake cv / was woken from it.
    std::uint64_t parks = 0;
    std::uint64_t unparks = 0;
    std::uint64_t max_queue_depth = 0;  // peak in-flight (queued+running)
  };
  Stats stats() const;

  /// Index of the calling thread within this pool's workers, or -1 when
  /// called from outside (used to label per-task trace spans).
  int current_worker() const;

 private:
  using Task = std::function<void()>;

  static Options make_options(int threads) {
    Options options;
    options.threads = threads;
    return options;
  }

  /// One per worker, cache-line separated so a worker's own-counter
  /// updates never bounce a line a sibling is spinning on.
  struct alignas(64) Worker {
    /// Guards `deque`: the owner pushes/pops the back, thieves take the
    /// front.
    std::mutex mutex;
    std::deque<Task*> deque;
    /// Victim visitation order, same-NUMA-node first (topology.hpp).
    std::vector<int> steal_order;
    // Per-worker counters: written by the owning thread only (relaxed),
    // aggregated by stats().
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> steal_failures{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> unparks{0};
  };

  void worker_loop(int index);
  /// Takes a task: own deque back (worker >= 0), else injection front,
  /// else steal from sibling fronts. Returns nullptr if none. Failed
  /// steal probes are charged to `worker`'s counters (or the pool-level
  /// external counters for worker < 0); no tracing happens in here — the
  /// steal fast path must stay call-free (counters are published from the
  /// park slow path; see publish_trace_counters).
  Task* take(int worker);
  Task* pop_own(int worker);
  Task* steal_from(int victim);
  void execute(Task* task, int worker);
  /// Slow-path-only trace emission: aggregates the per-worker counters
  /// into the exec.steals / exec.steal_failures / exec.parks counters.
  void publish_trace_counters();
  void count_steal_failure(int worker);

  Options options_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex injection_mutex_;
  std::deque<Task*> injection_;

  // Sleep/wake protocol: epoch_ increments under wake_mutex_ on every
  // submit, so a worker that saw empty queues re-checks instead of
  // sleeping through a wakeup.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> unfinished_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  // External-thread (worker < 0) counters; workers use their own slots.
  std::atomic<std::uint64_t> external_executed_{0};
  std::atomic<std::uint64_t> external_stolen_{0};
  std::atomic<std::uint64_t> external_steal_failures_{0};
};

/// Fork-join group for nested parallelism: tasks spawned through a group
/// can be waited on from inside another pool task (unlike
/// ThreadPool::wait_idle). wait() helps execute queued tasks while the
/// group drains.
class TaskGroup {
 public:
  /// `pool` may be null: run() then executes inline (serial mode).
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup() { wait(); }

  void run(std::function<void()> fn);
  void wait();

 private:
  ThreadPool* pool_;
  std::atomic<std::uint64_t> remaining_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
};

/// Deterministically-chunked parallel loop: splits [begin, end) into
/// chunks of exactly `grain` iterations (last chunk may be short) and runs
/// `body(chunk_begin, chunk_end)` for each. Chunk boundaries depend only
/// on (begin, end, grain) — never on the pool's thread count — so
/// chunk-indexed reductions are bit-identical in serial and parallel.
/// With a null pool (or a single chunk) the chunks run inline, in order.
template <typename Body>
void parallel_for(ThreadPool* pool, long long begin, long long end,
                  long long grain, const Body& body) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (pool == nullptr || pool->threads() <= 1 || end - begin <= grain) {
    for (long long lo = begin; lo < end; lo += grain)
      body(lo, lo + grain < end ? lo + grain : end);
    return;
  }
  TaskGroup group(pool);
  for (long long lo = begin; lo < end; lo += grain) {
    const long long hi = lo + grain < end ? lo + grain : end;
    group.run([&body, lo, hi] {
      const trace::TraceScope span(trace::Category::kExec, "task:tile");
      body(lo, hi);
    });
  }
  group.wait();
}

}  // namespace presp::exec
