#include "graph/topological.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace mimdmap {

std::optional<std::vector<NodeId>> topological_order(const TaskGraph& g) {
  const NodeId n = g.node_count();
  std::vector<NodeId> indeg(idx(n), 0);
  for (NodeId v = 0; v < n; ++v) indeg[idx(v)] = g.in_degree(v);

  // Min-heap on node id keeps the order deterministic across platforms.
  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> ready;
  for (NodeId v = 0; v < n; ++v) {
    if (indeg[idx(v)] == 0) ready.push(v);
  }

  std::vector<NodeId> order;
  order.reserve(idx(n));
  while (!ready.empty()) {
    const NodeId v = ready.top();
    ready.pop();
    order.push_back(v);
    for (const auto& [succ, w] : g.successors(v)) {
      if (--indeg[idx(succ)] == 0) ready.push(succ);
    }
  }
  if (order.size() != idx(n)) return std::nullopt;
  return order;
}

bool is_dag(const TaskGraph& g) {
  // Kahn's algorithm without the order: any ready node will do, so a
  // stack replaces topological_order's min-heap.
  const NodeId n = g.node_count();
  std::vector<NodeId> indeg(idx(n), 0);
  std::vector<NodeId> ready;
  for (NodeId v = 0; v < n; ++v) {
    indeg[idx(v)] = g.in_degree(v);
    if (indeg[idx(v)] == 0) ready.push_back(v);
  }
  NodeId removed = 0;
  while (!ready.empty()) {
    const NodeId v = ready.back();
    ready.pop_back();
    ++removed;
    for (const auto& [succ, w] : g.successors(v)) {
      if (--indeg[idx(succ)] == 0) ready.push_back(succ);
    }
  }
  return removed == n;
}

std::vector<NodeId> topological_levels(const TaskGraph& g) {
  const auto order = topological_order(g);
  if (!order) throw std::invalid_argument("topological_levels: graph has a cycle");
  std::vector<NodeId> level(idx(g.node_count()), 0);
  for (const NodeId v : *order) {
    for (const auto& [pred, w] : g.predecessors(v)) {
      level[idx(v)] = std::max(level[idx(v)], level[idx(pred)] + 1);
    }
  }
  return level;
}

Weight critical_path_length(const TaskGraph& g) {
  const auto order = topological_order(g);
  if (!order) throw std::invalid_argument("critical_path_length: graph has a cycle");
  Weight best = 0;
  std::vector<Weight> finish(idx(g.node_count()), 0);
  for (const NodeId v : *order) {
    Weight start = 0;
    for (const auto& [pred, w] : g.predecessors(v)) {
      start = std::max(start, finish[idx(pred)] + w);
    }
    finish[idx(v)] = start + g.node_weight(v);
    best = std::max(best, finish[idx(v)]);
  }
  return best;
}

}  // namespace mimdmap
