#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "cluster/strategies.hpp"
#include "core/eval_engine.hpp"
#include "core/evaluation.hpp"
#include "core/ideal_graph.hpp"
#include "graph/topological.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"
#include "workload/structured.hpp"

namespace mimdmap {
namespace {

TaskGraph two_task_graph() {
  TaskGraph g(2);
  g.add_edge(0, 1, 3);
  return g;
}

TEST(InstanceTest, ValidConstruction) {
  const MappingInstance inst(two_task_graph(), Clustering({0, 1}, 2), make_chain(2));
  EXPECT_EQ(inst.num_tasks(), 2);
  EXPECT_EQ(inst.num_processors(), 2);
  EXPECT_EQ(inst.clustered_weight(0, 1), 3);
  EXPECT_EQ(inst.hops()(0, 1), 1);
  EXPECT_EQ(inst.distance_model(), DistanceModel::kHops);
}

TEST(InstanceTest, RejectsCyclicProblem) {
  TaskGraph g(2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  EXPECT_THROW(MappingInstance(g, Clustering({0, 1}, 2), make_chain(2)),
               std::invalid_argument);
  try {
    const MappingInstance inst(g, Clustering({0, 1}, 2), make_chain(2));
    FAIL() << "a cyclic problem graph was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cycle detected"), std::string::npos) << e.what();
  }
}

TEST(InstanceTest, TopoOrderIsTheProblemsTopologicalOrder) {
  // The instance keeps the order its acyclicity check computed, and every
  // schedule walk reads it, so it must be exactly topological_order().
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    LayeredDagParams p;
    p.num_tasks = node_id(50 + 70 * seed);
    const TaskGraph g = make_layered_dag(p, seed);
    const MappingInstance inst(g, random_clustering(g, 8, seed), make_hypercube(3));
    EXPECT_EQ(inst.topo_order(), *topological_order(g)) << "seed=" << seed;
  }
  const StructuredWeights sw{{1, 9}, {1, 9}, 3};
  for (const TaskGraph& g : {make_fork_join(6, 3, sw), make_diamond(5, 5, sw)}) {
    const MappingInstance own(g, block_clustering(g, 4), make_mesh(2, 2));
    EXPECT_EQ(own.topo_order(), *topological_order(g));
    // The shared-tables constructor runs the same validation tail.
    const auto tables =
        std::make_shared<const TopologyTables>(make_mesh(2, 2), DistanceModel::kHops);
    const MappingInstance shared(g, block_clustering(g, 4), make_mesh(2, 2), tables);
    EXPECT_EQ(shared.topo_order(), *topological_order(g));
  }
}

TEST(InstanceTest, TopoOrderSurvivesCopyAndMove) {
  LayeredDagParams p;
  p.num_tasks = 200;
  const TaskGraph g = make_layered_dag(p, 17);
  const std::vector<NodeId> want = *topological_order(g);
  MappingInstance original(g, random_clustering(g, 8, 2), make_hypercube(3));

  const MappingInstance copy(original);
  EXPECT_EQ(copy.topo_order(), want);
  MappingInstance copy_assigned(two_task_graph(), Clustering({0, 1}, 2), make_chain(2));
  copy_assigned = copy;
  EXPECT_EQ(copy_assigned.topo_order(), want);

  MappingInstance moved(std::move(original));
  EXPECT_EQ(moved.topo_order(), want);
  MappingInstance move_assigned(two_task_graph(), Clustering({0, 1}, 2), make_chain(2));
  move_assigned = std::move(moved);
  EXPECT_EQ(move_assigned.topo_order(), want);

  // An engine built on the moved-to instance walks that order: its totals
  // still match the oracle, which sorts on its own.
  const EvalEngine engine(move_assigned);
  const Assignment a = Assignment::identity(8);
  EXPECT_EQ(engine.evaluate(a).total_time, evaluate_reference(move_assigned, a).total_time);
}

TEST(InstanceTest, RejectsDisconnectedSystem) {
  SystemGraph disconnected(2);
  EXPECT_THROW(MappingInstance(two_task_graph(), Clustering({0, 1}, 2), disconnected),
               std::invalid_argument);
}

TEST(InstanceTest, RejectsClusteringSizeMismatch) {
  EXPECT_THROW(MappingInstance(two_task_graph(), Clustering({0, 1, 0}, 2), make_chain(2)),
               std::invalid_argument);
}

TEST(InstanceTest, RejectsClusterCountNotEqualProcessorCount) {
  // The paper's precondition na == ns (section 1).
  EXPECT_THROW(MappingInstance(two_task_graph(), Clustering({0, 1}, 2), make_ring(3)),
               std::invalid_argument);
}

TEST(InstanceTest, IntraClusterWeightIsZero) {
  TaskGraph g(3);
  g.add_edge(0, 1, 7);
  g.add_edge(1, 2, 4);
  const MappingInstance inst(g, Clustering({0, 0, 1}, 2), make_chain(2));
  EXPECT_EQ(inst.clustered_weight(0, 1), 0);
  EXPECT_EQ(inst.clustered_weight(1, 2), 4);
}

TEST(InstanceTest, WeightedLinkDistanceModel) {
  SystemGraph sys(3, "weighted");
  sys.add_link(0, 1, 5);
  sys.add_link(1, 2, 5);
  sys.add_link(0, 2, 30);

  TaskGraph g(3);
  g.add_edge(0, 2, 2);

  const MappingInstance hops(g, Clustering({0, 1, 2}, 3), sys, DistanceModel::kHops);
  // Hop model: direct link = 1 hop.
  EXPECT_EQ(hops.hops()(0, 2), 1);

  const MappingInstance weighted(g, Clustering({0, 1, 2}, 3), sys,
                                 DistanceModel::kWeightedLinks);
  // Weighted model: 5 + 5 through node 1 beats the direct 30.
  EXPECT_EQ(weighted.hops()(0, 2), 10);
  EXPECT_EQ(weighted.distance_model(), DistanceModel::kWeightedLinks);

  // The evaluation inherits the distances: message of weight 2 costs 2 vs 20.
  EXPECT_EQ(total_time(hops, Assignment::identity(3)), 1 + 2 * 1 + 1);
  EXPECT_EQ(total_time(weighted, Assignment::identity(3)), 1 + 2 * 10 + 1);
}

TEST(InstanceTest, WeightedModelEqualsHopsOnUnitLinks) {
  TaskGraph g(4);
  g.add_edge(0, 3, 2);
  g.add_edge(1, 2, 1);
  const Clustering c({0, 1, 2, 3}, 4);
  const MappingInstance a(g, c, make_ring(4), DistanceModel::kHops);
  const MappingInstance b(g, c, make_ring(4), DistanceModel::kWeightedLinks);
  EXPECT_EQ(a.hops(), b.hops());
  EXPECT_EQ(compute_ideal_schedule(a).lower_bound, compute_ideal_schedule(b).lower_bound);
}

}  // namespace
}  // namespace mimdmap
