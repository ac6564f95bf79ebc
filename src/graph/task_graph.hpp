// TaskGraph: the paper's *problem graph* Gp = {Vp, Ep} (section 2.1, Fig. 2).
//
// A weighted directed acyclic graph. Each node is a task whose weight is its
// execution time in time units; each directed edge (u, v) carries the
// communication time required between the end of task u and the start of
// task v when they run on distinct processors.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/matrix.hpp"
#include "graph/types.hpp"

namespace mimdmap {

/// One directed, weighted edge of a TaskGraph.
struct TaskEdge {
  NodeId from = 0;
  NodeId to = 0;
  Weight weight = 0;

  friend bool operator==(const TaskEdge&, const TaskEdge&) = default;
};

/// Weighted task DAG; the paper's problem graph and (with intra-cluster
/// edges removed) the backbone of the clustered problem graph.
///
/// Invariants enforced:
///  * node weights are strictly positive (a task takes at least one unit),
///  * edge weights are strictly positive (an edge models a real message),
///  * no self loops, no duplicate edges,
///  * the graph is acyclic (checked lazily by `validate()` / topological
///    utilities, since edges may be added in any order).
class TaskGraph {
 public:
  TaskGraph() = default;

  /// Creates `n` tasks, all with weight 1.
  explicit TaskGraph(NodeId n);

  /// Tasks with the given execution times and the given edges, in order:
  /// the graph add_node and add_edge calls would build, and the exception
  /// they would throw for the first bad weight or edge, in O(V + E). Every
  /// adjacency list is sized once, and duplicates are found with a
  /// per-source stamp instead of add_edge's scan of the out-list.
  TaskGraph(std::vector<Weight> weights, std::vector<TaskEdge> edges);

  [[nodiscard]] NodeId node_count() const noexcept { return node_id(weights_.size()); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }

  /// Appends a task with the given execution time; returns its id.
  NodeId add_node(Weight exec_time);

  /// Sets the execution time of an existing task.
  void set_node_weight(NodeId v, Weight exec_time);
  [[nodiscard]] Weight node_weight(NodeId v) const { return weights_.at(idx(v)); }
  [[nodiscard]] const std::vector<Weight>& node_weights() const noexcept { return weights_; }

  /// Adds edge (from, to) with the given communication time.
  /// Throws std::invalid_argument on self loops, duplicates, or w <= 0.
  void add_edge(NodeId from, NodeId to, Weight w);

  [[nodiscard]] bool has_edge(NodeId from, NodeId to) const;
  /// Communication weight of (from, to); 0 when the edge does not exist —
  /// mirroring the paper's prob_edge[i][j] matrix convention (Fig. 18).
  [[nodiscard]] Weight edge_weight(NodeId from, NodeId to) const;

  /// Successors of v with edge weights.
  [[nodiscard]] const std::vector<std::pair<NodeId, Weight>>& successors(NodeId v) const {
    return out_.at(idx(v));
  }
  /// Predecessors of v with edge weights. The paper repeatedly scans
  /// prob_edge columns to find predecessors (algorithm I of section 4.1);
  /// the adjacency list makes that O(indegree).
  [[nodiscard]] const std::vector<std::pair<NodeId, Weight>>& predecessors(NodeId v) const {
    return in_.at(idx(v));
  }

  /// All edges in insertion order.
  [[nodiscard]] const std::vector<TaskEdge>& edges() const noexcept { return edges_; }

  [[nodiscard]] NodeId in_degree(NodeId v) const { return node_id(in_.at(idx(v)).size()); }
  [[nodiscard]] NodeId out_degree(NodeId v) const { return node_id(out_.at(idx(v)).size()); }
  /// Undirected degree (used by the paper's Fig. 7/8 discussion).
  [[nodiscard]] NodeId degree(NodeId v) const { return in_degree(v) + out_degree(v); }

  /// Dense np x np weight matrix — the paper's prob_edge[np][np] (Fig. 18).
  [[nodiscard]] Matrix<Weight> edge_matrix() const;

  /// Sum of all node weights (serial execution time; a trivial upper bound
  /// interface used by tests).
  [[nodiscard]] Weight total_work() const;

  /// Sum of all edge weights.
  [[nodiscard]] Weight total_traffic() const;

  /// Throws std::invalid_argument if the graph contains a cycle.
  void validate() const;

  friend bool operator==(const TaskGraph&, const TaskGraph&) = default;

 private:
  void check_node(NodeId v) const;
  /// add_edge's checks short of the duplicate test.
  void check_edge(NodeId from, NodeId to, Weight w) const;

  std::vector<Weight> weights_;
  std::vector<std::vector<std::pair<NodeId, Weight>>> out_;
  std::vector<std::vector<std::pair<NodeId, Weight>>> in_;
  std::vector<TaskEdge> edges_;
};

}  // namespace mimdmap
