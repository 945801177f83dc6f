// Shared cycle detection for the static analyses.
//
// Clients: the noc.deadlock rule (channel dependencies between links)
// and the runtime manager's declared semaphore nesting
// (kManagerLockNesting, checked in runtime_test). This header is the one
// cycle search they share: an iterative three-colour DFS over a small
// adjacency-list digraph that returns the first cycle found as an
// explicit node sequence, so every caller can render "a -> b -> ... -> a"
// without re-deriving it from colouring state.
//
// Header-only and dependency-light (no lint types) so low-level
// libraries can use it without linking the rule engine.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace presp::lint {

/// Finds one cycle in the digraph `adjacency` (adjacency[i] lists the
/// successors of node i; successors outside [0, n) are ignored). Returns
/// the cycle as a closed node walk [a, b, ..., a] — at least two entries,
/// first == last; a self-loop yields [a, a]. Returns {} when acyclic.
/// Deterministic: nodes are explored in ascending index order and each
/// successor list in declaration order, so the same graph always reports
/// the same cycle.
inline std::vector<int> find_cycle(
    const std::vector<std::vector<int>>& adjacency) {
  const int n = static_cast<int>(adjacency.size());
  // 0 = white (unvisited), 1 = grey (on the DFS stack), 2 = black (done).
  std::vector<int> colour(static_cast<std::size_t>(n), 0);
  std::vector<int> stack;  // grey path from the DFS root
  for (int start = 0; start < n; ++start) {
    if (colour[static_cast<std::size_t>(start)] != 0) continue;
    std::vector<std::pair<int, bool>> work{{start, false}};
    while (!work.empty()) {
      const auto [node, done] = work.back();
      work.pop_back();
      if (done) {
        colour[static_cast<std::size_t>(node)] = 2;
        if (!stack.empty() && stack.back() == node) stack.pop_back();
        continue;
      }
      if (colour[static_cast<std::size_t>(node)] == 2) continue;
      if (colour[static_cast<std::size_t>(node)] == 1) continue;
      colour[static_cast<std::size_t>(node)] = 1;
      stack.push_back(node);
      work.push_back({node, true});
      for (const int next : adjacency[static_cast<std::size_t>(node)]) {
        if (next < 0 || next >= n) continue;
        if (colour[static_cast<std::size_t>(next)] == 1) {
          // Back edge: the cycle is the grey-stack suffix from `next`.
          std::vector<int> cycle;
          bool in_cycle = false;
          for (const int g : stack) {
            if (g == next) in_cycle = true;
            if (in_cycle) cycle.push_back(g);
          }
          cycle.push_back(next);
          return cycle;
        }
        if (colour[static_cast<std::size_t>(next)] == 0)
          work.push_back({next, false});
      }
    }
    stack.clear();
  }
  return {};
}

}  // namespace presp::lint
