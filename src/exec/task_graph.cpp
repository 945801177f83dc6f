#include "exec/task_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "trace/trace.hpp"

namespace presp::exec {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0,
                     std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
}  // namespace

TaskId TaskGraph::add(std::string name, std::function<void()> fn,
                      const std::vector<TaskId>& deps, int priority) {
  if (ran_) throw std::logic_error("TaskGraph::add after run()");
  const TaskId id = nodes_.size();
  Node node;
  node.fn = std::move(fn);
  node.report.name = std::move(name);
  node.report.priority = priority;
  for (TaskId dep : deps) {
    if (dep >= id) throw std::out_of_range("TaskGraph: dependency on unknown task");
    nodes_[dep].dependents.push_back(id);
    ++node.remaining_deps;
  }
  nodes_.push_back(std::move(node));
  return id;
}

void TaskGraph::cancel() {
  std::lock_guard<std::mutex> lock(mutex_);
  cancelled_ = true;
}

bool TaskGraph::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cancelled_;
}

const TaskGraph::Report& TaskGraph::report(TaskId id) const {
  return nodes_.at(id).report;
}

double TaskGraph::busy_seconds() const {
  double total = 0.0;
  for (const Node& node : nodes_) total += node.report.seconds;
  return total;
}

void TaskGraph::release(std::vector<TaskId> ready, ThreadPool* pool,
                        std::chrono::steady_clock::time_point t0) {
  // Highest priority first; insertion order breaks ties so the serial
  // reference schedule is fully specified.
  std::stable_sort(ready.begin(), ready.end(), [this](TaskId a, TaskId b) {
    if (nodes_[a].report.priority != nodes_[b].report.priority)
      return nodes_[a].report.priority > nodes_[b].report.priority;
    return a < b;
  });
  for (TaskId id : ready) {
    if (pool == nullptr) {
      execute_node(id, pool, t0);
    } else {
      pool->submit([this, id, pool, t0] { execute_node(id, pool, t0); });
    }
  }
}

void TaskGraph::execute_node(TaskId id, ThreadPool* pool,
                             std::chrono::steady_clock::time_point t0) {
  Node& node = nodes_[id];
  bool skip = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (cancelled_) {
      node.report.status = TaskStatus::kCancelled;
      skip = true;
    }
  }
  if (!skip) {
    const trace::TraceScope span(trace::Category::kExec,
                                 "task:" + node.report.name);
    const auto start = std::chrono::steady_clock::now();
    node.report.start_seconds = seconds_since(t0, start);
    try {
      node.fn();
      node.report.status = TaskStatus::kDone;
    } catch (...) {
      node.report.status = TaskStatus::kFailed;
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
      cancelled_ = true;
    }
    node.report.seconds =
        seconds_since(start, std::chrono::steady_clock::now());
  }
  node.fn = nullptr;  // release captures eagerly
  finish_node(id, pool, t0);
}

void TaskGraph::finish_node(TaskId id, ThreadPool* pool,
                            std::chrono::steady_clock::time_point t0) {
  std::vector<TaskId> ready;
  for (TaskId dep : nodes_[id].dependents) {
    // remaining_deps is only decremented by the finishing of a
    // predecessor; each predecessor finishes exactly once, and the last
    // one to do so (under mutex_) releases the dependent.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--nodes_[dep].remaining_deps == 0) ready.push_back(dep);
  }
  if (!ready.empty()) release(std::move(ready), pool, t0);
  std::lock_guard<std::mutex> lock(mutex_);
  if (--unfinished_ == 0) done_cv_.notify_all();
}

void TaskGraph::run(ThreadPool* pool) {
  if (ran_) throw std::logic_error("TaskGraph::run called twice");
  ran_ = true;
  const auto t0 = std::chrono::steady_clock::now();
  unfinished_ = nodes_.size();
  std::vector<TaskId> roots;
  for (TaskId id = 0; id < nodes_.size(); ++id)
    if (nodes_[id].remaining_deps == 0) roots.push_back(id);
  if (!nodes_.empty()) {
    if (roots.empty())
      throw std::logic_error("TaskGraph: dependency cycle (no roots)");
    release(std::move(roots), pool, t0);
    if (pool == nullptr) {
      // Serial mode executed everything recursively during release().
      std::lock_guard<std::mutex> lock(mutex_);
      if (unfinished_ != 0)
        throw std::logic_error("TaskGraph: unreachable tasks (cycle)");
    } else {
      while (true) {
        {
          std::lock_guard<std::mutex> lock(mutex_);
          if (unfinished_ == 0) break;
        }
        if (pool->run_one()) continue;
        std::unique_lock<std::mutex> lock(mutex_);
        done_cv_.wait_for(lock, std::chrono::milliseconds(1),
                          [&] { return unfinished_ == 0; });
        if (unfinished_ == 0) break;
      }
    }
  }
  makespan_seconds_ = seconds_since(t0, std::chrono::steady_clock::now());
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    error = first_error_;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace presp::exec
