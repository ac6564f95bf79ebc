#include "graph/task_graph.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "graph/topological.hpp"

namespace mimdmap {
namespace {

TEST(TaskGraphTest, ConstructWithNodeCount) {
  TaskGraph g(4);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(g.node_weight(v), 1);
}

TEST(TaskGraphTest, NegativeNodeCountThrows) {
  EXPECT_THROW(TaskGraph(-1), std::invalid_argument);
}

TEST(TaskGraphTest, AddNodeReturnsConsecutiveIds) {
  TaskGraph g;
  EXPECT_EQ(g.add_node(3), 0);
  EXPECT_EQ(g.add_node(5), 1);
  EXPECT_EQ(g.node_weight(0), 3);
  EXPECT_EQ(g.node_weight(1), 5);
}

TEST(TaskGraphTest, NonPositiveNodeWeightThrows) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_node(0), std::invalid_argument);
  EXPECT_THROW(g.add_node(-2), std::invalid_argument);
  EXPECT_THROW(g.set_node_weight(0, 0), std::invalid_argument);
}

TEST(TaskGraphTest, SetNodeWeight) {
  TaskGraph g(2);
  g.set_node_weight(1, 9);
  EXPECT_EQ(g.node_weight(1), 9);
  EXPECT_THROW(g.set_node_weight(2, 1), std::out_of_range);
}

TEST(TaskGraphTest, AddEdgeAndQuery) {
  TaskGraph g(3);
  g.add_edge(0, 1, 4);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_weight(0, 1), 4);
  EXPECT_EQ(g.edge_weight(1, 0), 0);  // paper convention: 0 == no edge
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(TaskGraphTest, SelfLoopThrows) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_edge(1, 1, 1), std::invalid_argument);
}

TEST(TaskGraphTest, DuplicateEdgeThrows) {
  TaskGraph g(2);
  g.add_edge(0, 1, 1);
  EXPECT_THROW(g.add_edge(0, 1, 2), std::invalid_argument);
}

TEST(TaskGraphTest, NonPositiveEdgeWeightThrows) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_edge(0, 1, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -3), std::invalid_argument);
}

TEST(TaskGraphTest, OutOfRangeNodeThrows) {
  TaskGraph g(2);
  EXPECT_THROW(g.add_edge(0, 2, 1), std::out_of_range);
  EXPECT_THROW(g.node_weight(5), std::out_of_range);
  EXPECT_THROW((void)g.has_edge(-1, 0), std::out_of_range);
}

TEST(TaskGraphTest, AdjacencyLists) {
  TaskGraph g(4);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(2, 3, 3);
  ASSERT_EQ(g.predecessors(2).size(), 2u);
  EXPECT_EQ(g.predecessors(2)[0].first, 0);
  EXPECT_EQ(g.predecessors(2)[1].first, 1);
  ASSERT_EQ(g.successors(2).size(), 1u);
  EXPECT_EQ(g.successors(2)[0].first, 3);
  EXPECT_EQ(g.successors(2)[0].second, 3);
}

TEST(TaskGraphTest, Degrees) {
  TaskGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(0, 2, 1);
  g.add_edge(1, 2, 1);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(0), 0);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.in_degree(2), 2);
  EXPECT_EQ(g.degree(2), 2);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(TaskGraphTest, EdgeMatrixMatchesPaperConvention) {
  TaskGraph g(3);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 7);
  const auto m = g.edge_matrix();
  EXPECT_EQ(m(0, 1), 5);
  EXPECT_EQ(m(1, 2), 7);
  EXPECT_EQ(m(1, 0), 0);
  EXPECT_EQ(m(0, 0), 0);
}

TEST(TaskGraphTest, TotalWorkAndTraffic) {
  TaskGraph g(3);
  g.set_node_weight(0, 2);
  g.set_node_weight(1, 3);
  g.set_node_weight(2, 4);
  g.add_edge(0, 1, 10);
  g.add_edge(1, 2, 20);
  EXPECT_EQ(g.total_work(), 9);
  EXPECT_EQ(g.total_traffic(), 30);
}

TEST(TaskGraphTest, ValidateAcceptsDag) {
  TaskGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  EXPECT_NO_THROW(g.validate());
}

TEST(TaskGraphTest, ValidateRejectsCycle) {
  TaskGraph g(3);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 0, 1);
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(TaskGraphTest, EqualityComparison) {
  TaskGraph a(2);
  TaskGraph b(2);
  EXPECT_EQ(a, b);
  a.add_edge(0, 1, 1);
  EXPECT_FALSE(a == b);
  b.add_edge(0, 1, 1);
  EXPECT_EQ(a, b);
}

TEST(TaskGraphTest, BulkBuildMatchesIncrementalBuild) {
  const std::vector<Weight> weights = {2, 3, 4, 5};
  const std::vector<TaskEdge> edges = {{2, 3, 1}, {0, 2, 7}, {0, 1, 4}, {1, 3, 2}, {0, 3, 9}};
  TaskGraph incremental(4);
  for (NodeId v = 0; v < 4; ++v) incremental.set_node_weight(v, weights[idx(v)]);
  for (const TaskEdge& e : edges) incremental.add_edge(e.from, e.to, e.weight);
  const TaskGraph bulk(weights, edges);
  EXPECT_EQ(bulk, incremental);  // adjacency lists in the same order too
  EXPECT_EQ(bulk.edges(), edges);
}

TEST(TaskGraphTest, BulkBuildThrowsForFirstBadEdgeInOrder) {
  // What add_edge would throw, for the edge it would reject first.
  const auto error_of = [](std::vector<Weight> weights, std::vector<TaskEdge> edges) {
    try {
      (void)TaskGraph(std::move(weights), std::move(edges));
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("none");
  };
  EXPECT_EQ(error_of({1, 1, 1}, {{0, 1, 1}, {1, 2, 1}, {0, 1, 3}, {2, 5, 1}}),
            "TaskGraph: duplicate edge (0,1)");
  EXPECT_EQ(error_of({1, 1, 1}, {{1, 2, 1}, {2, 5, 1}, {1, 2, 3}}),
            "TaskGraph: node id 5 out of range");
  EXPECT_EQ(error_of({1, 1, 1}, {{1, 2, 1}, {0, 1, 0}, {1, 2, 3}}),
            "TaskGraph: edge weight must be positive");
  EXPECT_EQ(error_of({1, 1}, {{1, 1, 1}}), "TaskGraph: self loop");
  EXPECT_EQ(error_of({1, -1}, {{0, 9, 1}}), "TaskGraph: task weight must be positive");
  // The earliest duplicate in input order, not the first source's.
  EXPECT_EQ(error_of({1, 1, 1}, {{0, 1, 1}, {1, 2, 1}, {1, 2, 2}, {0, 1, 2}}),
            "TaskGraph: duplicate edge (1,2)");
  EXPECT_EQ(error_of({1, 1, 1}, {{0, 2, 1}, {0, 1, 1}, {0, 2, 2}}),
            "TaskGraph: duplicate edge (0,2)");
  EXPECT_THROW((void)TaskGraph(std::vector<Weight>{1, 1}, {{0, -1, 1}}), std::out_of_range);
}

}  // namespace
}  // namespace mimdmap
