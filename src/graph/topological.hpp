// Topological utilities over TaskGraph: Kahn's algorithm, acyclicity check,
// and topological level assignment.
//
// The ideal graph (paper section 4.1) is "the topologically sorted form of
// the clustered problem graph"; these helpers provide the traversal order
// every scheduling routine relies on. Levels additionally drive the
// Lee-Aggarwal phase decomposition (paper section 2.2, ref [2]).
#pragma once

#include <optional>
#include <vector>

#include "graph/task_graph.hpp"
#include "graph/types.hpp"

namespace mimdmap {

/// Topological order of all nodes (Kahn's algorithm; ties broken by node
/// id so the order is deterministic). Returns std::nullopt on a cycle.
[[nodiscard]] std::optional<std::vector<NodeId>> topological_order(const TaskGraph& g);

/// True iff the graph is acyclic. O(V + E), with no heap: cheaper than
/// asking topological_order.
[[nodiscard]] bool is_dag(const TaskGraph& g);

/// Topological level of each node: sources have level 0, every other node
/// is 1 + max level of its predecessors. Throws std::invalid_argument on a
/// cycle.
[[nodiscard]] std::vector<NodeId> topological_levels(const TaskGraph& g);

/// Length (sum of node weights + edge weights) of the heaviest path in the
/// DAG — the classic critical-path lower bound, used by tests to
/// cross-check the ideal-graph lower bound when every task sits in its own
/// cluster. Throws std::invalid_argument on a cycle.
[[nodiscard]] Weight critical_path_length(const TaskGraph& g);

}  // namespace mimdmap
