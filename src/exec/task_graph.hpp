// Job-DAG scheduler on top of ThreadPool.
//
// A TaskGraph is built once (add() nodes with dependencies and priorities)
// and executed once (run()). Scheduling is dependency-driven: a node
// becomes ready when its last dependency finishes; ready nodes are
// released to the pool highest-priority-first. With a null pool run() is a
// deterministic serial executor — same (priority, insertion-order) policy,
// calling thread only — which is the reference schedule the parallel
// benches compare against.
//
// Failure semantics: the first task exception cancels every not-yet-
// started task, the graph quiesces (running tasks finish), and run()
// rethrows that first exception. cancel() gives cooperative external
// cancellation with the same skip semantics.
//
// Per-task timing (start offset + duration, wall clock) is recorded for
// every executed node, so a flow run can report its *measured* makespan
// and cross-check the analytical runtime model.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"

namespace presp::exec {

using TaskId = std::size_t;

enum class TaskStatus { kPending, kDone, kCancelled, kFailed };

class TaskGraph {
 public:
  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node. `deps` must name already-added tasks. Higher `priority`
  /// runs earlier among simultaneously-ready nodes (use e.g. descending
  /// job size for LPT scheduling).
  TaskId add(std::string name, std::function<void()> fn,
             const std::vector<TaskId>& deps = {}, int priority = 0);

  std::size_t size() const { return nodes_.size(); }

  /// Cooperatively cancels the graph: nodes that have not started are
  /// marked kCancelled and never run. Callable from inside a task.
  void cancel();
  bool cancelled() const;

  /// Executes the graph to quiescence. Null pool = serial reference
  /// schedule on the calling thread. Rethrows the first task exception
  /// (after all running tasks finished). May only be called once.
  void run(ThreadPool* pool);

  struct Report {
    std::string name;
    int priority = 0;
    TaskStatus status = TaskStatus::kPending;
    /// Wall-clock offset of the task start relative to run() entry, and
    /// its duration; zero for skipped tasks.
    double start_seconds = 0.0;
    double seconds = 0.0;
  };
  const Report& report(TaskId id) const;

  /// Wall time of the whole run() (0 before run).
  double makespan_seconds() const { return makespan_seconds_; }
  /// Sum of executed task durations: the serial-equivalent work, so
  /// busy/makespan is the measured speedup of the schedule.
  double busy_seconds() const;

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<TaskId> dependents;
    int remaining_deps = 0;
    Report report;
  };

  void release(std::vector<TaskId> ready, ThreadPool* pool,
               std::chrono::steady_clock::time_point t0);
  void execute_node(TaskId id, ThreadPool* pool,
                    std::chrono::steady_clock::time_point t0);
  void finish_node(TaskId id, ThreadPool* pool,
                   std::chrono::steady_clock::time_point t0);

  std::vector<Node> nodes_;
  bool ran_ = false;

  mutable std::mutex mutex_;
  std::condition_variable done_cv_;
  std::size_t unfinished_ = 0;           // nodes not yet done/skipped
  bool cancelled_ = false;
  std::exception_ptr first_error_;
  double makespan_seconds_ = 0.0;
};

}  // namespace presp::exec
