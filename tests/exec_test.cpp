// Unit tests for the task-level execution engine: work-stealing pool,
// deterministically-chunked parallel_for, nested fork-join groups, and the
// TaskGraph DAG scheduler (dependencies, priorities, cancellation,
// exception propagation, per-task timing), the owner-vs-thieves fan-out
// stress on the per-worker deques, and the sysfs cpulist parser. The tsan
// stage reruns this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/task_graph.hpp"
#include "exec/thread_pool.hpp"
#include "exec/topology.hpp"

namespace presp::exec {
namespace {

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.stats().executed, 1000u);
}

TEST(ThreadPool, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, SubmitFromInsideATaskIsExecuted) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i)
      pool.submit([&count] { ++count; });
  });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, ChunkBoundariesIndependentOfThreadCount) {
  const auto chunks_with = [](ThreadPool* pool) {
    std::mutex mutex;
    std::vector<std::pair<long long, long long>> chunks;
    parallel_for(pool, 3, 1000, 64, [&](long long lo, long long hi) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.emplace_back(lo, hi);
    });
    std::sort(chunks.begin(), chunks.end());
    return chunks;
  };
  ThreadPool pool(4);
  const auto serial = chunks_with(nullptr);
  const auto parallel = chunks_with(&pool);
  EXPECT_EQ(serial, parallel);
  // Exact cover of [3, 1000) in 64-wide chunks.
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial.front().first, 3);
  EXPECT_EQ(serial.back().second, 1000);
  for (std::size_t i = 1; i < serial.size(); ++i)
    EXPECT_EQ(serial[i].first, serial[i - 1].second);
}

TEST(ParallelFor, ChunkIndexedReductionIsBitIdentical) {
  // The contract every kernel reduction relies on: per-chunk partials
  // folded in chunk order give the same floating-point result at any
  // parallelism level.
  std::vector<float> data(100'000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1.0f / static_cast<float>(i + 1);
  constexpr long long kGrain = 1 << 12;
  const auto reduce_with = [&](ThreadPool* pool) {
    const long long n = static_cast<long long>(data.size());
    std::vector<double> partial(
        static_cast<std::size_t>((n + kGrain - 1) / kGrain), 0.0);
    parallel_for(pool, 0, n, kGrain, [&](long long lo, long long hi) {
      double acc = 0.0;
      for (long long i = lo; i < hi; ++i)
        acc += static_cast<double>(data[static_cast<std::size_t>(i)]);
      partial[static_cast<std::size_t>(lo / kGrain)] = acc;
    });
    double sum = 0.0;
    for (const double p : partial) sum += p;
    return sum;
  };
  ThreadPool two(2);
  ThreadPool three(3);
  ThreadPool eight(8);
  const double serial = reduce_with(nullptr);
  EXPECT_EQ(serial, reduce_with(&two));
  EXPECT_EQ(serial, reduce_with(&eight));
  // Repeated fork-join on one pool: every run must see every chunk.
  for (int run = 0; run < 32; ++run)
    EXPECT_EQ(serial, reduce_with(&three)) << "run " << run;
}

TEST(TaskGroup, NestedForkJoinFromInsideAPoolTask) {
  ThreadPool pool(4);
  std::atomic<int> leaves{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &leaves] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j)
        inner.run([&leaves] { ++leaves; });
      inner.wait();
    });
  }
  outer.wait();
  EXPECT_EQ(leaves.load(), 64);
}

TEST(TaskGroup, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int order = 0;
  group.run([&] { EXPECT_EQ(order++, 0); });
  group.run([&] { EXPECT_EQ(order++, 1); });
  group.wait();
  EXPECT_EQ(order, 2);
}

// Regression for the TaskGroup destroy-while-notify bug: the last task
// used to decrement and notify cv_ without holding the group's mutex, so
// a waiter that saw zero could destroy the group while the notify still
// ran. Stack-local groups destroyed right after wait() keep that window
// open on every iteration; under TSan a regression is a reported race.
TEST(TaskGroup, DestroyRightAfterWaitIsSafe) {
  ThreadPool pool(4);
  std::atomic<long long> ran{0};
  constexpr int kIterations = 2000;
  constexpr int kTasks = 8;
  for (int it = 0; it < kIterations; ++it) {
    TaskGroup group(&pool);
    for (int t = 0; t < kTasks; ++t)
      group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
  }
  EXPECT_EQ(ran.load(), static_cast<long long>(kIterations) * kTasks);
}

TEST(TaskGraph, DiamondDependenciesRespected) {
  std::mutex mutex;
  std::vector<char> order;
  const auto record = [&](char c) {
    std::lock_guard<std::mutex> lock(mutex);
    order.push_back(c);
  };
  TaskGraph graph;
  const TaskId a = graph.add("a", [&] { record('a'); });
  const TaskId b = graph.add("b", [&] { record('b'); }, {a});
  const TaskId c = graph.add("c", [&] { record('c'); }, {a});
  const TaskId d = graph.add("d", [&] { record('d'); }, {b, c});

  ThreadPool pool(4);
  graph.run(&pool);

  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 'a');
  EXPECT_EQ(order.back(), 'd');
  for (const TaskId id : {a, b, c, d})
    EXPECT_EQ(graph.report(id).status, TaskStatus::kDone);
  EXPECT_GE(graph.makespan_seconds(), 0.0);
  EXPECT_GE(graph.busy_seconds(), 0.0);
}

TEST(TaskGraph, SerialRunFollowsPriorityThenInsertionOrder) {
  std::vector<int> order;
  TaskGraph graph;
  graph.add("low", [&] { order.push_back(0); }, {}, 1);
  graph.add("high", [&] { order.push_back(1); }, {}, 10);
  graph.add("mid-first", [&] { order.push_back(2); }, {}, 5);
  graph.add("mid-second", [&] { order.push_back(3); }, {}, 5);
  graph.run(nullptr);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

// Cancellation and exception sweeps over a chain: when node kTrigger
// cancels (or throws), nodes before it have run and nodes after it were
// never released, so the done/cancelled/failed sets are exact whatever
// the executor, pool width or schedule. Width 0 is the serial executor.
constexpr std::size_t kChain = 12;
constexpr std::size_t kTrigger = 5;
constexpr int kRepeats = 16;
constexpr int kWidths[] = {0, 1, 3, 8};

/// Adds nodes n0 -> n1 -> ... -> n{kChain-1}, each running body(index).
template <typename Body>
void add_chain(TaskGraph& graph, const Body& body) {
  TaskId prev = 0;
  for (std::size_t i = 0; i < kChain; ++i) {
    std::vector<TaskId> deps;
    if (i > 0) deps.push_back(prev);
    prev = graph.add(
        "n" + std::to_string(i), [&body, i] { body(i); }, deps);
  }
}

std::set<TaskId> ids_with(const TaskGraph& graph, TaskStatus status) {
  std::set<TaskId> ids;
  for (TaskId id = 0; id < graph.size(); ++id)
    if (graph.report(id).status == status) ids.insert(id);
  return ids;
}

/// The ids in [lo, hi).
std::set<TaskId> ids_in(TaskId lo, TaskId hi) {
  std::set<TaskId> ids;
  for (TaskId id = lo; id < hi; ++id) ids.insert(id);
  return ids;
}

TEST(TaskGraph, CancelSkipsNotYetStartedTasks) {
  for (const int width : kWidths) {
    std::unique_ptr<ThreadPool> pool;
    if (width > 0) pool = std::make_unique<ThreadPool>(width);
    for (int rep = 0; rep < kRepeats; ++rep) {
      SCOPED_TRACE("width " + std::to_string(width) + " rep " +
                   std::to_string(rep));
      TaskGraph graph;
      // Not atomic: the chain's dependency edges must order every
      // increment (TSan checks this in the tsan stage).
      std::size_t ran = 0;
      const auto body = [&graph, &ran](std::size_t i) {
        ++ran;
        if (i == kTrigger) graph.cancel();
      };
      add_chain(graph, body);
      graph.run(pool.get());
      EXPECT_EQ(ran, kTrigger + 1);
      EXPECT_TRUE(graph.cancelled());
      EXPECT_EQ(ids_with(graph, TaskStatus::kDone), ids_in(0, kTrigger + 1));
      EXPECT_EQ(ids_with(graph, TaskStatus::kCancelled),
                ids_in(kTrigger + 1, kChain));
      EXPECT_TRUE(ids_with(graph, TaskStatus::kFailed).empty());
    }
  }
}

TEST(TaskGraph, FirstExceptionCancelsRestAndRethrows) {
  for (const int width : kWidths) {
    std::unique_ptr<ThreadPool> pool;
    if (width > 0) pool = std::make_unique<ThreadPool>(width);
    for (int rep = 0; rep < kRepeats; ++rep) {
      SCOPED_TRACE("width " + std::to_string(width) + " rep " +
                   std::to_string(rep));
      TaskGraph graph;
      std::size_t ran = 0;
      const auto body = [&ran](std::size_t i) {
        if (i == kTrigger) throw std::runtime_error("synthesis failed");
        ++ran;
      };
      add_chain(graph, body);
      EXPECT_THROW(graph.run(pool.get()), std::runtime_error);
      EXPECT_EQ(ran, kTrigger);
      EXPECT_EQ(ids_with(graph, TaskStatus::kDone), ids_in(0, kTrigger));
      EXPECT_EQ(ids_with(graph, TaskStatus::kFailed),
                ids_in(kTrigger, kTrigger + 1));
      EXPECT_EQ(ids_with(graph, TaskStatus::kCancelled),
                ids_in(kTrigger + 1, kChain));
    }
  }
}

TEST(TaskGraph, ExceptionPropagatesFromPoolRun) {
  ThreadPool pool(4);
  TaskGraph graph;
  std::atomic<int> ran{0};
  const TaskId boom = graph.add(
      "boom", [] { throw std::runtime_error("route failed"); });
  for (int i = 0; i < 8; ++i)
    graph.add("dep" + std::to_string(i), [&ran] { ++ran; }, {boom});
  EXPECT_THROW(graph.run(&pool), std::runtime_error);
  // Everything downstream of the failure was skipped.
  EXPECT_EQ(ran.load(), 0);
}

TEST(TaskGraph, RecordsPerTaskTiming) {
  TaskGraph graph;
  const TaskId slow = graph.add("slow", [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  const TaskId fast = graph.add("fast", [] {}, {slow});
  graph.run(nullptr);
  EXPECT_GE(graph.report(slow).seconds, 0.004);
  // `fast` started after `slow` finished.
  EXPECT_GE(graph.report(fast).start_seconds,
            graph.report(slow).start_seconds + graph.report(slow).seconds -
                1e-9);
  EXPECT_GE(graph.makespan_seconds(), graph.report(slow).seconds);
  EXPECT_GE(graph.busy_seconds(), graph.report(slow).seconds);
  EXPECT_EQ(graph.report(slow).name, "slow");
}

TEST(TaskGraph, RunTwiceThrows) {
  TaskGraph graph;
  graph.add("t", [] {});
  graph.run(nullptr);
  EXPECT_THROW(graph.run(nullptr), std::logic_error);
}

TEST(TaskGraph, StealingActuallyHappensUnderImbalance) {
  // One long chain submitted by a single producer plus many small tasks:
  // with 4 workers some tasks must migrate. This is a smoke test that the
  // deques + steal path work; counts are nondeterministic by design.
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 256; ++i)
    group.run([&count] {
      volatile int x = 0;
      for (int j = 0; j < 1000; ++j) x = x + j;
      ++count;
    });
  group.wait();
  EXPECT_EQ(count.load(), 256);
  // group.wait() returns once every task body has signalled the group,
  // but a worker bumps `executed` only after the body returns; wait_idle()
  // returns after the last worker has done so.
  pool.wait_idle();
  EXPECT_EQ(pool.stats().executed, 256u);
}

TEST(ThreadPool, FanOutFromWorkerDequeRunsEachChildExactlyOnce) {
  // One root task fans 100k children into its own worker's deque, then
  // drains them from the back while the other workers (and the waiting
  // test thread) steal from the front. Every child must run exactly once.
  constexpr int kChildren = 100'000;
  for (const int width : {2, 4, 8}) {
    SCOPED_TRACE("pool width " + std::to_string(width));
    ThreadPool pool(width);
    std::vector<std::atomic<int>> runs(kChildren);
    std::atomic<int> root_worker{-2};
    pool.submit([&] {
      root_worker = pool.current_worker();
      if (root_worker < 0) return;
      for (int i = 0; i < kChildren; ++i)
        pool.submit([&runs, i] {
          runs[static_cast<std::size_t>(i)].fetch_add(
              1, std::memory_order_relaxed);
        });
      // Hold the owner back until a thief has taken something, so the
      // owner's pops below race live steals.
      while (pool.stats().stolen == 0) std::this_thread::yield();
      while (pool.run_one()) {
      }
    });
    // Only a worker may pick the root up: wait_idle() would let this
    // thread run it from the injection queue.
    while (root_worker.load() == -2) std::this_thread::yield();
    pool.wait_idle();
    ASSERT_GE(root_worker.load(), 0);
    int wrong = 0;
    for (const std::atomic<int>& r : runs)
      if (r.load(std::memory_order_relaxed) != 1) ++wrong;
    EXPECT_EQ(wrong, 0);
    EXPECT_EQ(pool.stats().executed, kChildren + 1u);
    EXPECT_GT(pool.stats().stolen, 0u);
  }
}

TEST(ThreadPool, StatsExposeStealFailuresAndParkTransitions) {
  ThreadPool pool(4);
  {
    // Burst of work, then a quiet period: workers must park, and their
    // empty-probe sweeps must register as steal failures.
    TaskGroup group(&pool);
    for (int i = 0; i < 64; ++i)
      group.run([] {
        volatile int x = 0;
        for (int j = 0; j < 500; ++j) x = x + j;
      });
    group.wait();
  }
  pool.wait_idle();
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.executed, 64u);
  // Workers that raced for the last tasks probed empty deques.
  EXPECT_GT(stats.steal_failures, 0u);
  // Unparks never exceed parks (a park must precede its unpark).
  EXPECT_LE(stats.unparks, stats.parks + 4);
}

TEST(Topology, ParsesRangesAndSingletons) {
  EXPECT_EQ(Topology::parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(Topology::parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(Topology::parse_cpulist("7-7"), (std::vector<int>{7}));
  EXPECT_TRUE(Topology::parse_cpulist("").empty());
}

TEST(Topology, SkipsMalformedChunks) {
  EXPECT_TRUE(Topology::parse_cpulist("5-").empty());
  EXPECT_TRUE(Topology::parse_cpulist("-3").empty());
  EXPECT_TRUE(Topology::parse_cpulist("a").empty());
  EXPECT_TRUE(Topology::parse_cpulist("3-1").empty());
  EXPECT_EQ(Topology::parse_cpulist("a,1,5-,2-3,-3"),
            (std::vector<int>{1, 2, 3}));
}

TEST(Topology, RangeEndingAtIntMaxDoesNotOverflow) {
  const int max = std::numeric_limits<int>::max();
  EXPECT_EQ(Topology::parse_cpulist("2147483647-2147483647"),
            (std::vector<int>{max}));
  const std::vector<int> top = Topology::parse_cpulist("2147483645-2147483647");
  EXPECT_EQ(top, (std::vector<int>{max - 2, max - 1, max}));
}

}  // namespace
}  // namespace presp::exec
