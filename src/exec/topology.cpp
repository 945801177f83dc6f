#include "exec/topology.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace presp::exec {

std::vector<int> Topology::parse_cpulist(const std::string& text) {
  std::vector<int> cpus;
  std::stringstream stream(text);
  std::string chunk;
  while (std::getline(stream, chunk, ',')) {
    const auto dash = chunk.find('-');
    try {
      if (dash == std::string::npos) {
        cpus.push_back(std::stoi(chunk));
      } else {
        const int lo = std::stoi(chunk.substr(0, dash));
        const int hi = std::stoi(chunk.substr(dash + 1));
        // 64-bit counter: `hi` may be INT_MAX, where ++c on an int wraps.
        for (long long c = lo; c <= hi && c - lo < 4096; ++c)
          cpus.push_back(static_cast<int>(c));
      }
    } catch (const std::exception&) {
      // Skip malformed chunks; detection falls back to one node below.
    }
  }
  return cpus;
}

Topology Topology::detect() {
  Topology topo;
  topo.cpus = std::max(1u, std::thread::hardware_concurrency());
  topo.node_of_cpu.assign(static_cast<std::size_t>(topo.cpus), 0);
  topo.nodes = 1;
#if defined(__linux__)
  int found_nodes = 0;
  for (int node = 0; node < 64; ++node) {
    std::ifstream list("/sys/devices/system/node/node" +
                       std::to_string(node) + "/cpulist");
    if (!list) break;
    std::string text;
    std::getline(list, text);
    for (const int cpu : parse_cpulist(text))
      if (cpu >= 0 && cpu < topo.cpus)
        topo.node_of_cpu[static_cast<std::size_t>(cpu)] = node;
    ++found_nodes;
  }
  if (found_nodes > 1) topo.nodes = found_nodes;
#endif
  return topo;
}

int Topology::node_of_worker(int worker) const {
  if (worker < 0 || cpus <= 0 || node_of_cpu.empty()) return 0;
  return node_of_cpu[static_cast<std::size_t>(worker % cpus)];
}

std::vector<int> steal_order(const Topology& topo, int worker,
                             int num_workers) {
  std::vector<int> order;
  if (num_workers <= 1) return order;
  order.reserve(static_cast<std::size_t>(num_workers - 1));
  const int home = topo.node_of_worker(worker);
  // Ring walk starting after the worker; same-node victims first keeps
  // stolen task data on the local memory controller.
  std::vector<int> remote;
  for (int i = 1; i < num_workers; ++i) {
    const int victim = (worker + i) % num_workers;
    if (topo.node_of_worker(victim) == home)
      order.push_back(victim);
    else
      remote.push_back(victim);
  }
  order.insert(order.end(), remote.begin(), remote.end());
  return order;
}

bool pin_worker(const Topology& topo, int worker, int num_workers) {
#if defined(__linux__)
  if (worker < 0 || topo.cpus < num_workers || topo.cpus <= 1) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(worker % topo.cpus), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)topo;
  (void)worker;
  (void)num_workers;
  return false;
#endif
}

}  // namespace presp::exec
