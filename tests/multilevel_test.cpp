// Multilevel coarsen–map–refine suite (DESIGN.md section 18).
//
// Two invariance families anchor the subsystem:
//  * hierarchy invariants — every coarse level preserves cluster
//    membership, per-cluster work and per-cluster-pair inter-cluster
//    traffic exactly, stays a DAG, and the parent maps compose into a
//    consistent projection;
//  * the trivial-hierarchy contract — coarsen_target >= np reproduces the
//    flat paper pipeline bit-for-bit, so multilevel is a pure superset.
#include "cluster/coarsen.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>

#include "cluster/strategies.hpp"
#include "core/cancellation.hpp"
#include "core/mapper.hpp"
#include "graph/topological.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"

namespace mimdmap {
namespace {

TaskGraph layered(NodeId np, std::uint64_t seed) {
  LayeredDagParams p;
  p.num_tasks = np;
  p.num_layers = std::max<NodeId>(4, np / 12);
  return make_layered_dag(p, seed);
}

/// Per-cluster node-weight sums and per-(cluster,cluster)-pair edge-weight
/// sums over inter-cluster edges — the two quantities coarsening must
/// conserve exactly (they determine the abstract graph and every
/// assignment's communication placement).
struct ClusterAggregates {
  std::map<NodeId, Weight> work;
  std::map<std::pair<NodeId, NodeId>, Weight> traffic;
};

ClusterAggregates aggregate(const TaskGraph& g, const Clustering& c) {
  ClusterAggregates agg;
  for (NodeId v = 0; v < g.node_count(); ++v) agg.work[c.cluster_of(v)] += g.node_weight(v);
  for (const TaskEdge& e : g.edges()) {
    const NodeId cf = c.cluster_of(e.from);
    const NodeId ct = c.cluster_of(e.to);
    if (cf != ct) agg.traffic[{cf, ct}] += e.weight;
  }
  return agg;
}

TEST(CoarsenTest, HierarchyInvariants) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TaskGraph g = layered(node_id(300 + 40 * (seed % 4)), seed);
    const Clustering c = random_clustering(g, 8, seed + 5);
    CoarsenOptions opts;
    opts.target = 32;
    const CoarseningHierarchy h = coarsen_hierarchy(g, c, opts);
    ASSERT_FALSE(h.trivial()) << "seed=" << seed;

    const ClusterAggregates want = aggregate(g, c);
    const TaskGraph* fine = &g;
    const Clustering* fine_clustering = &c;
    for (std::size_t k = 0; k < h.levels.size(); ++k) {
      const CoarseLevel& level = h.levels[k];
      // Strictly smaller, same cluster universe, still a DAG.
      EXPECT_LT(level.graph.node_count(), fine->node_count()) << "seed=" << seed << " k=" << k;
      EXPECT_EQ(level.clustering.num_clusters(), c.num_clusters());
      EXPECT_NO_THROW(level.graph.validate()) << "seed=" << seed << " k=" << k;

      // The parent map covers the finer level and respects its clusters.
      ASSERT_EQ(level.parent.size(), idx(fine->node_count()));
      for (NodeId v = 0; v < fine->node_count(); ++v) {
        const NodeId parent = level.parent[idx(v)];
        ASSERT_LT(idx(parent), idx(level.graph.node_count()));
        EXPECT_EQ(level.clustering.cluster_of(parent), fine_clustering->cluster_of(v))
            << "seed=" << seed << " k=" << k << " v=" << v;
      }

      // Exact conservation of per-cluster work and inter-cluster traffic.
      const ClusterAggregates got = aggregate(level.graph, level.clustering);
      EXPECT_EQ(got.work, want.work) << "seed=" << seed << " k=" << k;
      EXPECT_EQ(got.traffic, want.traffic) << "seed=" << seed << " k=" << k;

      fine = &level.graph;
      fine_clustering = &level.clustering;
    }
  }
}

TEST(CoarsenTest, LevelInstancesCarryTheirOwnTopologicalOrder) {
  // map_multilevel builds a MappingInstance per coarse level, with and
  // without shared topology tables; each level's engine and ideal
  // schedule walk that instance's order.
  const SystemGraph sys = make_hypercube(3);
  const auto tables = std::make_shared<const TopologyTables>(sys, DistanceModel::kHops);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const TaskGraph g = layered(node_id(300 + 60 * seed), seed + 20);
    const Clustering c = random_clustering(g, 8, seed);
    CoarsenOptions opts;
    opts.target = 32;
    const CoarseningHierarchy h = coarsen_hierarchy(g, c, opts);
    ASSERT_FALSE(h.trivial()) << "seed=" << seed;
    for (std::size_t k = 0; k < h.levels.size(); ++k) {
      const CoarseLevel& level = h.levels[k];
      const std::vector<NodeId> want = *topological_order(level.graph);
      const MappingInstance own(level.graph, level.clustering, sys, DistanceModel::kHops);
      EXPECT_EQ(own.topo_order(), want) << "seed=" << seed << " k=" << k;
      const MappingInstance shared(level.graph, level.clustering, sys, tables);
      EXPECT_EQ(shared.topo_order(), want) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(CoarsenTest, ProjectionComposesParentMaps) {
  for (std::uint64_t seed = 2; seed <= 6; ++seed) {
    const TaskGraph g = layered(260, seed * 7);
    const Clustering c = random_clustering(g, 8, seed);
    CoarsenOptions opts;
    opts.target = 40;
    const CoarseningHierarchy h = coarsen_hierarchy(g, c, opts);
    ASSERT_FALSE(h.trivial());

    const std::vector<NodeId> projected = h.project_to_coarsest();
    ASSERT_EQ(projected.size(), idx(g.node_count()));
    for (NodeId v = 0; v < g.node_count(); ++v) {
      NodeId p = v;
      for (const CoarseLevel& level : h.levels) p = level.parent[idx(p)];
      EXPECT_EQ(projected[idx(v)], p) << "seed=" << seed << " v=" << v;
      // Original tasks land in their own cluster at the coarsest level.
      EXPECT_EQ(h.coarsest().clustering.cluster_of(projected[idx(v)]), c.cluster_of(v));
    }
  }
}

TEST(CoarsenTest, DeterministicAndTargetRespecting) {
  const TaskGraph g = layered(300, 77);
  const Clustering c = random_clustering(g, 8, 9);
  CoarsenOptions opts;
  opts.target = 48;
  const CoarseningHierarchy a = coarsen_hierarchy(g, c, opts);
  const CoarseningHierarchy b = coarsen_hierarchy(g, c, opts);
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t k = 0; k < a.levels.size(); ++k) {
    EXPECT_EQ(a.levels[k].graph, b.levels[k].graph);
    EXPECT_EQ(a.levels[k].parent, b.levels[k].parent);
  }
  // Coarsening never overshoots: each pass stops merging at the target.
  EXPECT_GE(a.coarsest().graph.node_count(), 48);
}

TEST(CoarsenTest, TrivialWhenTargetAboveSize) {
  const TaskGraph g = layered(120, 3);
  const Clustering c = random_clustering(g, 8, 4);
  CoarsenOptions opts;
  opts.target = 120;
  EXPECT_TRUE(coarsen_hierarchy(g, c, opts).trivial());
}

MappingInstance big_instance(NodeId np, NodeId ns, const SystemGraph& sys, std::uint64_t seed) {
  TaskGraph g = layered(np, seed);
  Clustering c = random_clustering(g, ns, seed + 1);
  return MappingInstance(std::move(g), std::move(c), sys);
}

TEST(MultilevelTest, TrivialHierarchyReproducesFlatPipelineBitForBit) {
  // The acceptance anchor: coarsen_target >= np must take the flat path
  // exactly — same assignment, schedule, trial counts and delta counters.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const MappingInstance inst = big_instance(90, 8, make_hypercube(3), seed);
    MapperOptions flat;
    flat.refine.seed = 1000 + seed;
    MapperOptions ml = flat;
    ml.multilevel.enabled = true;
    ml.multilevel.coarsen_target = inst.num_tasks();

    const MappingReport a = map_instance(inst, flat);
    const MappingReport b = map_instance(inst, ml);
    EXPECT_EQ(a.assignment, b.assignment) << "seed=" << seed;
    EXPECT_EQ(a.initial_assignment, b.initial_assignment);
    EXPECT_EQ(a.total_time(), b.total_time());
    EXPECT_EQ(a.initial_total, b.initial_total);
    EXPECT_EQ(a.refinement_trials, b.refinement_trials);
    EXPECT_EQ(a.improvements, b.improvements);
    EXPECT_EQ(a.delta.trials, b.delta.trials);
    EXPECT_EQ(a.lower_bound, b.lower_bound);
    EXPECT_TRUE(b.levels.empty());
  }
}

TEST(MultilevelTest, EndToEndValidAndDeterministic) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const MappingInstance inst = big_instance(500, 8, make_hypercube(3), seed * 13);
    MapperOptions opts;
    opts.multilevel.enabled = true;
    opts.multilevel.coarsen_target = 64;
    opts.refine.seed = seed;

    const MappingReport r = map_instance(inst, opts);
    EXPECT_TRUE(r.assignment.complete());
    EXPECT_GE(r.total_time(), r.lower_bound);
    EXPECT_EQ(r.total_time(), total_time(inst, r.assignment)) << "seed=" << seed;
    EXPECT_EQ(r.status, MapStatus::kOk);

    // Stage trace: coarsest first, finishing at level 0 with the full np.
    ASSERT_GE(r.levels.size(), 2u);
    EXPECT_EQ(r.levels.back().level, 0);
    EXPECT_EQ(r.levels.back().np, inst.num_tasks());
    for (std::size_t i = 1; i < r.levels.size(); ++i) {
      EXPECT_GT(r.levels[i - 1].level, r.levels[i].level);
      EXPECT_LE(r.levels[i - 1].np, r.levels[i].np);
    }

    const MappingReport again = map_instance(inst, opts);
    EXPECT_EQ(r.assignment, again.assignment);
    EXPECT_EQ(r.total_time(), again.total_time());
    EXPECT_EQ(r.refinement_trials, again.refinement_trials);
  }
}

TEST(MultilevelTest, LevelTrialBudgetIsHonored) {
  const MappingInstance inst = big_instance(400, 8, make_mesh(2, 4), 5);
  MapperOptions opts;
  opts.multilevel.enabled = true;
  opts.multilevel.coarsen_target = 50;
  opts.multilevel.level_trials = 3;
  const MappingReport r = map_instance(inst, opts);
  ASSERT_FALSE(r.levels.empty());
  // Every uncoarsen level (not the coarsest, which runs the flat budget)
  // spends at most the per-level budget.
  for (std::size_t i = 1; i < r.levels.size(); ++i) {
    EXPECT_LE(r.levels[i].trials, 3) << "level " << r.levels[i].level;
  }
}

TEST(MultilevelTest, PreTrippedCancelShipsDegradedValidAssignment) {
  const MappingInstance inst = big_instance(400, 8, make_hypercube(3), 11);
  CancelSource source;
  source.request_cancel();
  MapperOptions opts;
  opts.multilevel.enabled = true;
  opts.multilevel.coarsen_target = 64;
  opts.refine.cancel = source.token();
  const MappingReport r = map_instance(inst, opts);
  EXPECT_NE(r.status, MapStatus::kOk);
  EXPECT_TRUE(r.assignment.complete());
  EXPECT_EQ(r.total_time(), total_time(inst, r.assignment));
  EXPECT_GE(r.total_time(), r.lower_bound);
}

}  // namespace
}  // namespace mimdmap