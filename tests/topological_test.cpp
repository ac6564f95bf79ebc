#include "graph/topological.hpp"

#include <gtest/gtest.h>

#include "workload/rng.hpp"

namespace mimdmap {
namespace {

TaskGraph diamond() {
  // 0 -> {1, 2} -> 3
  TaskGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 3, 1);
  g.add_edge(2, 3, 1);
  return g;
}

TEST(TopologicalTest, OrderRespectsEdges) {
  const TaskGraph g = diamond();
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  std::vector<NodeId> position(4);
  for (std::size_t i = 0; i < order->size(); ++i) position[idx((*order)[i])] = node_id(i);
  for (const TaskEdge& e : g.edges()) {
    EXPECT_LT(position[idx(e.from)], position[idx(e.to)]);
  }
}

TEST(TopologicalTest, OrderIsDeterministicSmallestIdFirst) {
  TaskGraph g(4);  // no edges: pure tie-break
  const auto order = topological_order(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_EQ(*order, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(TopologicalTest, CycleReturnsNullopt) {
  TaskGraph g(2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  EXPECT_FALSE(topological_order(g).has_value());
  EXPECT_FALSE(is_dag(g));
}

TEST(TopologicalTest, IsDagAgreesWithTopologicalOrder) {
  // is_dag counts Kahn removals without the min-heap; random graphs with
  // both orientations of edges give it cycles and DAGs alike.
  Rng rng(17);
  int dags = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<NodeId>(rng.uniform(1, 12));
    TaskGraph g(n);
    const std::int64_t m = rng.uniform(0, n);
    for (std::int64_t i = 0; i < m; ++i) {
      const auto a = static_cast<NodeId>(rng.uniform(0, n - 1));
      const auto b = static_cast<NodeId>(rng.uniform(0, n - 1));
      if (a != b && !g.has_edge(a, b)) g.add_edge(a, b, 1);
    }
    EXPECT_EQ(is_dag(g), topological_order(g).has_value());
    dags += is_dag(g) ? 1 : 0;
  }
  EXPECT_GT(dags, 30);
  EXPECT_LT(dags, 270);
}

TEST(TopologicalTest, EmptyGraphIsDag) {
  TaskGraph g(0);
  EXPECT_TRUE(is_dag(g));
  EXPECT_TRUE(topological_order(g)->empty());
}

TEST(TopologicalTest, Levels) {
  const TaskGraph g = diamond();
  const auto levels = topological_levels(g);
  EXPECT_EQ(levels, (std::vector<NodeId>{0, 1, 1, 2}));
}

TEST(TopologicalTest, LevelsThrowOnCycle) {
  TaskGraph g(2);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 0, 1);
  EXPECT_THROW(topological_levels(g), std::invalid_argument);
}

TEST(TopologicalTest, CriticalPathChain) {
  TaskGraph g(3);
  g.set_node_weight(0, 2);
  g.set_node_weight(1, 3);
  g.set_node_weight(2, 4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 6);
  // 2 + 5 + 3 + 6 + 4
  EXPECT_EQ(critical_path_length(g), 20);
}

TEST(TopologicalTest, CriticalPathPicksHeavierBranch) {
  TaskGraph g = diamond();
  g.set_node_weight(1, 10);  // 0 ->(1) 1(10) ->(1) 3
  // paths: 1+1+10+1+1 = 14 vs 1+1+1+1+1 = 5
  EXPECT_EQ(critical_path_length(g), 14);
}

TEST(TopologicalTest, CriticalPathOfIsolatedNodes) {
  TaskGraph g(3);
  g.set_node_weight(1, 7);
  EXPECT_EQ(critical_path_length(g), 7);
}

}  // namespace
}  // namespace mimdmap
