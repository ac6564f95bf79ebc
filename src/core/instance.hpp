// MappingInstance: one complete mapping problem.
//
// Bundles the paper's inputs — problem graph Gp, clustering (defining the
// clustered problem graph Gc and abstract graph Ga), and system graph Gs —
// together with the derived tables the algorithms consume: the ns x ns
// distance matrix shortest[ns][ns] (Fig. 21-b) eagerly, and the paper's
// dense clus_edge[np][np] (Fig. 19-a) lazily — hot paths derive clustered
// weights from the adjacency lists, so np-scale memory stays O(V + E).
//
// Construction validates the paper's structural preconditions (and keeps
// the topological order the acyclicity check produces, which every
// schedule walk reuses):
//  * the problem graph is a DAG with positive weights,
//  * the clustering covers exactly the problem's tasks,
//  * na == ns ("the second step only deals with graphs having the same
//    number of nodes", section 1),
//  * the system graph is connected.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "cluster/abstract_graph.hpp"
#include "cluster/clustering.hpp"
#include "graph/matrix.hpp"
#include "graph/system_graph.hpp"
#include "graph/task_graph.hpp"
#include "graph/topology_cache.hpp"

namespace mimdmap {

class MappingInstance {
 public:
  MappingInstance(TaskGraph problem, Clustering clustering, SystemGraph system,
                  DistanceModel distance_model = DistanceModel::kHops);

  /// As above against pre-built shared topology tables (TopologyCache):
  /// the instance reads its distance matrix from the tables instead of
  /// recomputing it, and engines built on the instance adopt the shared
  /// routing. The tables must have been built from a system graph
  /// structurally identical to `system` (same node count, links and
  /// weights — TopologyCache keys guarantee this).
  MappingInstance(TaskGraph problem, Clustering clustering, SystemGraph system,
                  std::shared_ptr<const TopologyTables> tables);

  [[nodiscard]] const TaskGraph& problem() const noexcept { return problem_; }
  [[nodiscard]] const Clustering& clustering() const noexcept { return clustering_; }
  [[nodiscard]] const SystemGraph& system() const noexcept { return system_; }
  [[nodiscard]] const AbstractGraph& abstract() const noexcept { return abstract_; }

  /// Topological order of the problem graph: Kahn's algorithm, ties by
  /// node id — exactly topological_order(problem()), computed once at
  /// construction. The evaluation engine and the ideal schedule walk it.
  [[nodiscard]] const std::vector<NodeId>& topo_order() const noexcept { return topo_order_; }

  /// Clustered-problem-graph edge matrix (paper's clus_edge). Dense
  /// np x np, built lazily on first call (thread-safe) — every hot path
  /// reads clustered weights straight off the problem adjacency lists
  /// (clustered weight = 0 intra-cluster, edge weight otherwise), so huge
  /// instances never materialize the np^2 cells. The matrix remains for
  /// the paper-faithful oracles and small-instance diagnostics.
  [[nodiscard]] const Matrix<Weight>& clus_edge() const;

  /// All-pairs distances in the system graph (paper's shortest matrix).
  /// Hop counts under DistanceModel::kHops, weighted path costs under
  /// kWeightedLinks.
  [[nodiscard]] const Matrix<Weight>& hops() const noexcept {
    return tables_ ? tables_->hops : hops_;
  }

  [[nodiscard]] DistanceModel distance_model() const noexcept { return distance_model_; }

  /// The shared topology tables this instance was built against, or null
  /// when it computed its own matrices. Engines adopt the shared routing
  /// from here (EvalEngine::adopt_topology).
  [[nodiscard]] const std::shared_ptr<const TopologyTables>& shared_tables() const noexcept {
    return tables_;
  }

  [[nodiscard]] NodeId num_tasks() const noexcept { return problem_.node_count(); }
  [[nodiscard]] NodeId num_processors() const noexcept { return system_.node_count(); }

  /// Clustered communication weight between two tasks (0 when they share a
  /// cluster or are not connected). O(out-degree of `from`); search loops
  /// should resolve weights from adjacency iteration instead.
  [[nodiscard]] Weight clustered_weight(NodeId from, NodeId to) const {
    return clustering_.same_cluster(from, to) ? 0 : problem_.edge_weight(from, to);
  }

  /// Process-wide count of currently-alive MappingInstance objects, and
  /// its high-water mark since the last reset. The derived matrices make
  /// instances the dominant memory of a batch, so these let tests pin the
  /// peak footprint of deferred-build batches (MapJob::build) to the
  /// runner concurrency instead of the batch size.
  [[nodiscard]] static int live_count() noexcept;
  [[nodiscard]] static int peak_live_count() noexcept;
  /// Resets the high-water mark to the current live count.
  static void reset_peak_live_count() noexcept;

 private:
  /// Shared construction tail: validation + derived matrices (the distance
  /// matrix only when no shared tables were given).
  void init_derived();

  /// Bumps the live/peak counters across every construction path.
  struct LiveCounter {
    LiveCounter() noexcept;
    LiveCounter(const LiveCounter&) noexcept;
    LiveCounter(LiveCounter&&) noexcept;
    LiveCounter& operator=(const LiveCounter&) noexcept = default;
    LiveCounter& operator=(LiveCounter&&) noexcept = default;
    ~LiveCounter();
  };
  LiveCounter live_counter_;
  TaskGraph problem_;
  Clustering clustering_;
  SystemGraph system_;
  AbstractGraph abstract_;
  std::vector<NodeId> topo_order_;
  // Lazy clus_edge storage. The mutex lives behind a shared_ptr so the
  // instance stays copyable/movable; copies share the lock but carry their
  // own (possibly already-built) matrix.
  mutable std::shared_ptr<std::mutex> clus_edge_mutex_ = std::make_shared<std::mutex>();
  mutable bool clus_edge_built_ = false;
  mutable Matrix<Weight> clus_edge_;
  Matrix<Weight> hops_;  // unused when tables_ provides the matrix
  std::shared_ptr<const TopologyTables> tables_;
  DistanceModel distance_model_ = DistanceModel::kHops;
};

}  // namespace mimdmap
