#include "core/ideal_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/topological.hpp"

namespace mimdmap {

IdealSchedule compute_ideal_schedule(const MappingInstance& instance) {
  // Same recurrence as the matrix overload below, but the clustered weight
  // comes straight off the adjacency lists (0 intra-cluster, edge weight
  // otherwise) so huge instances never materialize the dense clus_edge.
  const TaskGraph& problem = instance.problem();
  const Clustering& clustering = instance.clustering();

  const NodeId np = problem.node_count();
  IdealSchedule s;
  s.start.assign(idx(np), 0);
  s.end.assign(idx(np), 0);

  for (const NodeId v : instance.topo_order()) {
    Weight start = 0;
    for (const auto& [pred, w] : problem.predecessors(v)) {
      const Weight cw = clustering.same_cluster(pred, v) ? 0 : w;
      start = std::max(start, s.end[idx(pred)] + cw);
    }
    s.start[idx(v)] = start;
    s.end[idx(v)] = start + problem.node_weight(v);
    s.lower_bound = std::max(s.lower_bound, s.end[idx(v)]);
  }
  for (NodeId v = 0; v < np; ++v) {
    if (s.end[idx(v)] == s.lower_bound) s.latest_tasks.push_back(v);
  }
  return s;
}

IdealSchedule compute_ideal_schedule(const TaskGraph& problem, const Matrix<Weight>& clus_edge) {
  const auto order = topological_order(problem);
  if (!order) throw std::invalid_argument("compute_ideal_schedule: problem graph has a cycle");

  const NodeId np = problem.node_count();
  IdealSchedule s;
  s.start.assign(idx(np), 0);
  s.end.assign(idx(np), 0);

  for (const NodeId v : *order) {
    Weight start = 0;
    // Predecessors from the *problem* graph; communication weight from the
    // clustered matrix (0 for intra-cluster precedences).
    for (const auto& [pred, w] : problem.predecessors(v)) {
      start = std::max(start, s.end[idx(pred)] + clus_edge(idx(pred), idx(v)));
    }
    s.start[idx(v)] = start;
    s.end[idx(v)] = start + problem.node_weight(v);
    s.lower_bound = std::max(s.lower_bound, s.end[idx(v)]);
  }
  for (NodeId v = 0; v < np; ++v) {
    if (s.end[idx(v)] == s.lower_bound) s.latest_tasks.push_back(v);
  }
  return s;
}

Matrix<Weight> ideal_edge_matrix(const TaskGraph& problem, const Matrix<Weight>& clus_edge,
                                 const IdealSchedule& schedule) {
  auto m = Matrix<Weight>::square(idx(problem.node_count()), 0);
  for (const TaskEdge& e : problem.edges()) {
    if (clus_edge(idx(e.from), idx(e.to)) > 0) {
      m(idx(e.from), idx(e.to)) = schedule.start[idx(e.to)] - schedule.end[idx(e.from)];
    }
  }
  return m;
}

}  // namespace mimdmap
