#include "core/initial_assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/strategies.hpp"
#include "core/evaluation.hpp"
#include "paper_example.hpp"
#include "topology/factory.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"

namespace mimdmap {
namespace {

using testing::make_running_example;

// ---- reference: the construction before anchors were kept up to date ------
//
// Each step rescans every unplaced cluster and, for each, every placed one
// (critical_anchor) or its abstract neighbours (traffic_anchor): O(ns^3).
// The production builder keeps each cluster's best anchor as clusters are
// placed and draws candidates from heaps; this copy is the oracle that
// shows the assignments and pins did not change.

class ReferenceBuilder {
 public:
  ReferenceBuilder(const MappingInstance& instance, const CriticalInfo& critical)
      : instance_(instance),
        critical_(critical),
        n_(instance.num_processors()),
        assignment_(Assignment::partial(n_)),
        visited_abs_(idx(n_), false),
        visited_sys_(idx(n_), false),
        pinned_(idx(n_), false) {}

  InitialAssignmentResult run() {
    seed();
    grow_critical();
    grow_remainder();
    return InitialAssignmentResult{assignment_, pinned_};
  }

 private:
  // ---- ranking helpers (ties always break toward the smaller id) ----

  /// Unvisited system node with maximum degree.
  NodeId best_free_processor() const {
    NodeId best = Assignment::kUnassigned;
    for (NodeId p = 0; p < n_; ++p) {
      if (visited_sys_[idx(p)]) continue;
      if (best == Assignment::kUnassigned ||
          instance_.system().degree(p) > instance_.system().degree(best)) {
        best = p;
      }
    }
    return best;
  }

  /// Unvisited system node adjacent to `anchor_proc` with maximum degree;
  /// kUnassigned when every neighbour is taken.
  NodeId best_free_neighbor(NodeId anchor_proc) const {
    NodeId best = Assignment::kUnassigned;
    for (const auto& [p, w] : instance_.system().neighbors(anchor_proc)) {
      if (visited_sys_[idx(p)]) continue;
      if (best == Assignment::kUnassigned ||
          instance_.system().degree(p) > instance_.system().degree(best) ||
          (instance_.system().degree(p) == instance_.system().degree(best) && p < best)) {
        best = p;
      }
    }
    return best;
  }

  /// Unvisited system node closest to `anchor_proc` (paper step 2c/3c);
  /// ties by larger degree, then smaller id.
  NodeId closest_free_processor(NodeId anchor_proc) const {
    const auto& hops = instance_.hops();
    NodeId best = Assignment::kUnassigned;
    for (NodeId p = 0; p < n_; ++p) {
      if (visited_sys_[idx(p)]) continue;
      if (best == Assignment::kUnassigned) {
        best = p;
        continue;
      }
      const Weight dp = hops(idx(anchor_proc), idx(p));
      const Weight db = hops(idx(anchor_proc), idx(best));
      if (dp < db || (dp == db && instance_.system().degree(p) > instance_.system().degree(best))) {
        best = p;
      }
    }
    return best;
  }

  /// Places `cluster` anchored at placed cluster `anchor` (steps 2b/2c and
  /// 3b/3c): adjacent free processor if possible (returns true → caller may
  /// pin), else the closest free processor (returns false).
  bool place_anchored(NodeId cluster, NodeId anchor) {
    const NodeId anchor_proc = assignment_.host_of(anchor);
    NodeId p = best_free_neighbor(anchor_proc);
    const bool adjacent = p != Assignment::kUnassigned;
    if (!adjacent) p = closest_free_processor(anchor_proc);
    place(cluster, p);
    return adjacent;
  }

  void place(NodeId cluster, NodeId processor) {
    assignment_.place(cluster, processor);
    visited_abs_[idx(cluster)] = true;
    visited_sys_[idx(processor)] = true;
  }

  // ---- the three steps ----

  void seed() {
    if (n_ == 0) return;
    // Step 1a: system node of maximum degree.
    const NodeId vs = best_free_processor();
    // Step 1b: abstract node of maximum critical degree.
    NodeId va = 0;
    for (NodeId a = 1; a < n_; ++a) {
      if (critical_.critical_degree[idx(a)] > critical_.critical_degree[idx(va)]) va = a;
    }
    // Step 1c. The paper marks the seed as a critical abstract node
    // unconditionally; definition 5 requires a critical edge, so the mark
    // is only meaningful when one exists.
    place(va, vs);
    if (critical_.critical_degree[idx(va)] > 0) pinned_[idx(va)] = true;
  }

  /// Step 2: place every abstract node that has critical abstract edges.
  void grow_critical() {
    while (true) {
      // Candidate pool: unvisited nodes with a positive critical degree.
      bool any_left = false;
      NodeId best = Assignment::kUnassigned;   // max critical degree w/ anchor
      NodeId best_anchor = Assignment::kUnassigned;
      NodeId orphan = Assignment::kUnassigned;  // max critical degree w/o anchor
      for (NodeId a = 0; a < n_; ++a) {
        if (visited_abs_[idx(a)] || critical_.critical_degree[idx(a)] <= 0) continue;
        any_left = true;
        const NodeId anchor = critical_anchor(a);
        if (anchor != Assignment::kUnassigned) {
          if (best == Assignment::kUnassigned ||
              critical_.critical_degree[idx(a)] > critical_.critical_degree[idx(best)]) {
            best = a;
            best_anchor = anchor;
          }
        } else if (orphan == Assignment::kUnassigned ||
                   critical_.critical_degree[idx(a)] > critical_.critical_degree[idx(orphan)]) {
          orphan = a;
        }
      }
      if (!any_left) return;

      if (best != Assignment::kUnassigned) {
        // Steps 2a/2b/2c.
        const bool adjacent = place_anchored(best, best_anchor);
        if (adjacent) pinned_[idx(best)] = true;
      } else {
        // Fallback (disconnected critical subgraph): seed a new region.
        place(orphan, best_free_processor());
        pinned_[idx(orphan)] = true;
      }
    }
  }

  /// Placed cluster connected to `a` through a critical abstract edge;
  /// prefers the heaviest such edge. kUnassigned when none exists.
  NodeId critical_anchor(NodeId a) const {
    NodeId anchor = Assignment::kUnassigned;
    Weight best_w = 0;
    for (NodeId b = 0; b < n_; ++b) {
      if (!visited_abs_[idx(b)]) continue;
      const Weight w = critical_.c_abs_edge(idx(a), idx(b));
      if (w > best_w) {
        best_w = w;
        anchor = b;
      }
    }
    return anchor;
  }

  /// Step 3: place the remaining abstract nodes by communication intensity.
  void grow_remainder() {
    const AbstractGraph& abs = instance_.abstract();
    while (true) {
      bool any_left = false;
      NodeId best = Assignment::kUnassigned;
      NodeId best_anchor = Assignment::kUnassigned;
      NodeId orphan = Assignment::kUnassigned;
      for (NodeId a = 0; a < n_; ++a) {
        if (visited_abs_[idx(a)]) continue;
        any_left = true;
        const NodeId anchor = traffic_anchor(a);
        if (anchor != Assignment::kUnassigned) {
          if (best == Assignment::kUnassigned || abs.mca(a) > abs.mca(best)) {
            best = a;
            best_anchor = anchor;
          }
        } else if (orphan == Assignment::kUnassigned || abs.mca(a) > abs.mca(orphan)) {
          orphan = a;
        }
      }
      if (!any_left) return;

      if (best != Assignment::kUnassigned) {
        place_anchored(best, best_anchor);  // steps 3a/3b/3c; never pins
      } else {
        // Fallback (abstract graph disconnected): new region.
        place(orphan, best_free_processor());
      }
    }
  }

  /// Placed cluster connected to `a` through the heaviest abstract edge.
  NodeId traffic_anchor(NodeId a) const {
    const AbstractGraph& abs = instance_.abstract();
    NodeId anchor = Assignment::kUnassigned;
    Weight best_w = 0;
    for (const NodeId b : abs.neighbors(a)) {
      if (!visited_abs_[idx(b)]) continue;
      const Weight w = abs.edge_traffic(a, b);
      if (w > best_w || (w == best_w && anchor != Assignment::kUnassigned && b < anchor)) {
        best_w = w;
        anchor = b;
      }
    }
    return anchor;
  }

  const MappingInstance& instance_;
  const CriticalInfo& critical_;
  NodeId n_;
  Assignment assignment_;
  std::vector<bool> visited_abs_;
  std::vector<bool> visited_sys_;
  std::vector<bool> pinned_;
};

InitialAssignmentResult reference_initial_assignment(const MappingInstance& instance,
                                                     const CriticalInfo& critical) {
  return ReferenceBuilder(instance, critical).run();
}


InitialAssignmentResult run_initial(const MappingInstance& inst,
                                    const CriticalOptions& opts = {}) {
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  const CriticalInfo critical = find_critical(inst, ideal, opts);
  return initial_assignment(inst, critical);
}

TEST(InitialAssignmentTest, RunningExamplePlacement) {
  // Hand-traced walk (see tests/paper_example.hpp): cluster 0 seeds
  // processor 0, the critical partner cluster 2 lands adjacent on
  // processor 1, then clusters 1 and 3 fill in by communication intensity.
  const auto ex = make_running_example();
  const MappingInstance inst = ex.instance();
  const InitialAssignmentResult r = run_initial(inst);
  ASSERT_TRUE(r.assignment.complete());
  EXPECT_EQ(r.assignment.host_of(0), 0);
  EXPECT_EQ(r.assignment.host_of(2), 1);
  EXPECT_EQ(r.assignment.host_of(1), 3);
  EXPECT_EQ(r.assignment.host_of(3), 2);
}

TEST(InitialAssignmentTest, RunningExamplePinsTheCriticalPair) {
  const auto ex = make_running_example();
  const MappingInstance inst = ex.instance();
  const InitialAssignmentResult r = run_initial(inst);
  EXPECT_EQ(r.pinned, (std::vector<bool>{true, false, true, false}));
}

TEST(InitialAssignmentTest, RunningExampleReachesLowerBoundLikeFig24) {
  // The paper's Fig. 24: the initial assignment is already optimal.
  const auto ex = make_running_example();
  const MappingInstance inst = ex.instance();
  const InitialAssignmentResult r = run_initial(inst);
  EXPECT_EQ(total_time(inst, r.assignment), compute_ideal_schedule(inst).lower_bound);
}

TEST(InitialAssignmentTest, CriticalEdgeLandsOnSingleSystemEdge) {
  const auto ex = make_running_example();
  const MappingInstance inst = ex.instance();
  const InitialAssignmentResult r = run_initial(inst);
  // Clusters 0 and 2 share the only critical abstract edge; their hosts
  // must be adjacent.
  EXPECT_EQ(inst.hops()(idx(r.assignment.host_of(0)), idx(r.assignment.host_of(2))), 1);
}

TEST(InitialAssignmentTest, SeedGoesToMaxDegreeProcessor) {
  // Star topology: the hub has degree n-1 and must host the seed cluster.
  LayeredDagParams p;
  p.num_tasks = 30;
  const TaskGraph g = make_layered_dag(p, 3);
  const Clustering c = random_clustering(g, 6, 4);
  const MappingInstance inst(g, c, make_star(6));
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  const CriticalInfo critical = find_critical(inst, ideal);
  // Seed cluster = max critical degree (smallest id on ties).
  NodeId seed = 0;
  for (NodeId a = 1; a < 6; ++a) {
    if (critical.critical_degree[idx(a)] > critical.critical_degree[idx(seed)]) seed = a;
  }
  const InitialAssignmentResult r = initial_assignment(inst, critical);
  EXPECT_EQ(r.assignment.host_of(seed), 0);  // hub
}

TEST(InitialAssignmentTest, NoCriticalEdgesPinsNothing) {
  // Two independent equal chains in separate clusters: slack everywhere is
  // impossible — instead build slack by unequal chains so no clustered edge
  // is tight... Simplest guaranteed case: no inter-cluster edges at all.
  TaskGraph g(4);
  g.add_edge(0, 1, 5);  // intra cluster 0
  g.add_edge(2, 3, 5);  // intra cluster 1
  const MappingInstance inst(g, Clustering({0, 0, 1, 1}, 2), make_chain(2));
  const InitialAssignmentResult r = run_initial(inst);
  EXPECT_TRUE(r.assignment.complete());
  EXPECT_EQ(r.pinned, (std::vector<bool>{false, false}));
}

TEST(InitialAssignmentTest, DisconnectedAbstractGraphStillCompletes) {
  // Four clusters, no inter-cluster communication at all.
  TaskGraph g(4);
  const MappingInstance inst(g, Clustering({0, 1, 2, 3}, 4), make_ring(4));
  const InitialAssignmentResult r = run_initial(inst);
  EXPECT_TRUE(r.assignment.complete());
}

TEST(InitialAssignmentTest, DisconnectedCriticalSubgraphSeedsNewRegion) {
  // Two independent tight chains in four clusters: the critical subgraph
  // has two components {0,1} and {2,3}.
  TaskGraph g(4);
  g.set_node_weight(0, 1);
  g.set_node_weight(1, 1);
  g.set_node_weight(2, 1);
  g.set_node_weight(3, 1);
  g.add_edge(0, 1, 5);  // clusters 0 -> 1, tight
  g.add_edge(2, 3, 5);  // clusters 2 -> 3, tight
  const MappingInstance inst(g, Clustering({0, 1, 2, 3}, 4), make_ring(4));
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  const CriticalInfo critical = find_critical(inst, ideal);
  EXPECT_TRUE(critical.abstract_edge_critical(0, 1));
  EXPECT_TRUE(critical.abstract_edge_critical(2, 3));
  const InitialAssignmentResult r = initial_assignment(inst, critical);
  EXPECT_TRUE(r.assignment.complete());
  // Both tight pairs must sit on adjacent processors (ring-4 allows it).
  EXPECT_EQ(inst.hops()(idx(r.assignment.host_of(0)), idx(r.assignment.host_of(1))), 1);
  EXPECT_EQ(inst.hops()(idx(r.assignment.host_of(2)), idx(r.assignment.host_of(3))), 1);
}

TEST(InitialAssignmentTest, SingleProcessorInstance) {
  TaskGraph g(3);
  g.add_edge(0, 1, 1);
  const MappingInstance inst(g, Clustering({0, 0, 0}, 1), make_complete(1));
  const InitialAssignmentResult r = run_initial(inst);
  EXPECT_TRUE(r.assignment.complete());
  EXPECT_EQ(r.assignment.host_of(0), 0);
}

struct SweepParam {
  NodeId np;
  NodeId ns;
  const char* topology_kind;
  std::uint64_t seed;

  friend void PrintTo(const SweepParam& p, std::ostream* os) {
    *os << p.topology_kind << "_np" << p.np << "_ns" << p.ns << "_seed" << p.seed;
  }
};

class InitialAssignmentSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(InitialAssignmentSweep, AlwaysProducesCompleteBijection) {
  const auto param = GetParam();
  SystemGraph sys = [&]() -> SystemGraph {
    const std::string kind = param.topology_kind;
    if (kind == "ring") return make_ring(param.ns);
    if (kind == "star") return make_star(param.ns);
    if (kind == "random") return make_random_connected(param.ns, 0.25, param.seed);
    return make_complete(param.ns);
  }();
  LayeredDagParams p;
  p.num_tasks = param.np;
  const TaskGraph g = make_layered_dag(p, param.seed);
  const Clustering c = random_clustering(g, param.ns, param.seed + 1000);
  const MappingInstance inst(g, c, sys);
  const InitialAssignmentResult r = run_initial(inst);
  ASSERT_TRUE(r.assignment.complete());
  // Bijection check: every processor hosts exactly one cluster.
  std::vector<bool> used(idx(param.ns), false);
  for (NodeId cl = 0; cl < param.ns; ++cl) {
    const NodeId host = r.assignment.host_of(cl);
    ASSERT_GE(host, 0);
    ASSERT_LT(host, param.ns);
    EXPECT_FALSE(used[idx(host)]);
    used[idx(host)] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, InitialAssignmentSweep,
    ::testing::Values(SweepParam{30, 4, "ring", 1}, SweepParam{40, 6, "star", 2},
                      SweepParam{60, 8, "random", 3}, SweepParam{80, 10, "random", 4},
                      SweepParam{50, 7, "ring", 5}, SweepParam{100, 12, "random", 6},
                      SweepParam{35, 5, "complete", 7}, SweepParam{90, 9, "star", 8}));

TEST(InitialAssignmentTest, MatchesReferenceOnEveryMachineStrategyAndMode) {
  // ns from 1 to 256 across the factory's families, every clustering
  // strategy, both critical modes, and a critical-blind run (only step 3
  // acts): assignments and pins must equal the rescanning construction's.
  const std::vector<std::string> machines = {
      "complete-1",  "chain-2",        "ring-3",        "star-5",        "mesh-2x3",
      "hypercube-3", "tree-2x3",       "ring-12",       "random-12-25-3", "bipartite-3x5",
      "torus-4x4",   "hypercube-4",    "debruijn-4",    "ccc-3",         "chordal-20-3",
      "star-24",     "hypercube-5",    "mesh-6x6",      "random-40-10-7", "torus-8x8",
      "mesh3d-4x4x4", "hypercube-6",   "complete-48",   "hypercube-7",   "torus-16x16",
      "random-256-2-5"};
  int cases = 0;
  std::uint64_t seed = 90;
  for (const std::string& spec : machines) {
    const SystemGraph machine = make_topology(spec);
    const NodeId ns = machine.node_count();
    LayeredDagParams p;
    p.num_tasks = std::max<NodeId>(30, 3 * ns);
    const TaskGraph g = make_layered_dag(p, ++seed);
    for (const std::string& strategy : clustering_strategies()) {
      const MappingInstance inst(g, make_clustering(strategy, g, ns, seed), machine);
      const IdealSchedule ideal = compute_ideal_schedule(inst);
      for (const bool exact : {false, true}) {
        const CriticalInfo critical =
            find_critical(inst, ideal, {.propagate_through_intra_cluster = exact});
        const InitialAssignmentResult got = initial_assignment(inst, critical);
        const InitialAssignmentResult want = reference_initial_assignment(inst, critical);
        ASSERT_EQ(got.assignment.host_of_vector(), want.assignment.host_of_vector())
            << spec << " " << strategy << " exact=" << exact;
        ASSERT_EQ(got.pinned, want.pinned) << spec << " " << strategy << " exact=" << exact;
        ++cases;
      }
      CriticalInfo blind;
      blind.c_abs_edge = Matrix<Weight>::square(idx(ns), 0);
      blind.critical_degree.assign(idx(ns), 0);
      ASSERT_EQ(initial_assignment(inst, blind).assignment.host_of_vector(),
                reference_initial_assignment(inst, blind).assignment.host_of_vector())
          << spec << " " << strategy << " critical-blind";
      ++cases;
    }
  }
  EXPECT_EQ(cases, static_cast<int>(machines.size() * clustering_strategies().size()) * 3);
}

}  // namespace
}  // namespace mimdmap
