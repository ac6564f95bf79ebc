#include "graph/graph_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "topology/topology.hpp"

namespace mimdmap {
namespace {

TaskGraph sample_task_graph() {
  TaskGraph g(3);
  g.set_node_weight(0, 2);
  g.set_node_weight(1, 3);
  g.set_node_weight(2, 4);
  g.add_edge(0, 1, 5);
  g.add_edge(1, 2, 6);
  return g;
}

TEST(GraphIoTest, TaskGraphTextRoundTrip) {
  const TaskGraph g = sample_task_graph();
  const TaskGraph parsed = task_graph_from_text(to_text(g));
  EXPECT_EQ(g, parsed);
}

TEST(GraphIoTest, SystemGraphTextRoundTrip) {
  const SystemGraph g = make_mesh(2, 3);
  const SystemGraph parsed = system_graph_from_text(to_text(g));
  EXPECT_EQ(g, parsed);
}

TEST(GraphIoTest, TextFormatIgnoresCommentsAndBlankLines) {
  const std::string text =
      "# a comment\n"
      "taskgraph 2\n"
      "\n"
      "node 0 1\n"
      "  # indented comment\n"
      "node 1 2\n"
      "edge 0 1 3\n";
  const TaskGraph g = task_graph_from_text(text);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.edge_weight(0, 1), 3);
}

TEST(GraphIoTest, ParseRejectsBadHeader) {
  EXPECT_THROW(task_graph_from_text("wrong 3\n"), std::invalid_argument);
  EXPECT_THROW(system_graph_from_text("taskgraph 3\n"), std::invalid_argument);
  EXPECT_THROW(task_graph_from_text(""), std::invalid_argument);
}

TEST(GraphIoTest, ParseRejectsNonConsecutiveNodeIds) {
  EXPECT_THROW(task_graph_from_text("taskgraph 2\nnode 0 1\nnode 2 1\n"),
               std::invalid_argument);
}

TEST(GraphIoTest, ParseRejectsMalformedEdge) {
  EXPECT_THROW(task_graph_from_text("taskgraph 1\nnode 0 1\nedge 0\n"),
               std::invalid_argument);
}

TEST(GraphIoTest, ParseRejectsCyclicGraph) {
  const std::string text =
      "taskgraph 2\nnode 0 1\nnode 1 1\nedge 0 1 1\nedge 1 0 1\n";
  EXPECT_THROW(task_graph_from_text(text), std::invalid_argument);
}

TEST(GraphIoTest, SystemGraphNamePersists) {
  SystemGraph g(2, "mytopo");
  g.add_link(0, 1);
  const SystemGraph parsed = system_graph_from_text(to_text(g));
  EXPECT_EQ(parsed.name(), "mytopo");
}

TEST(GraphIoTest, SystemGraphDefaultNameWhenOmitted) {
  const SystemGraph parsed = system_graph_from_text("systemgraph 2\nlink 0 1 1\n");
  EXPECT_EQ(parsed.name(), "custom");
}

TEST(GraphIoTest, DotOutputMentionsNodesAndEdges) {
  const std::string dot = to_dot(sample_task_graph());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("t0 -> t1"), std::string::npos);
  EXPECT_NE(dot.find("label=\"5\""), std::string::npos);
}

TEST(GraphIoTest, DotOutputForSystemGraph) {
  const std::string dot = to_dot(make_ring(3));
  EXPECT_NE(dot.find("graph \"ring-3\""), std::string::npos);
  EXPECT_NE(dot.find("p0 -- p1"), std::string::npos);
}

/// The message of the exception `parse` throws; fails the test if none.
template <class Parse>
std::string error_of(const Parse& parse) {
  try {
    parse();
  } catch (const std::exception& e) {
    return e.what();
  }
  ADD_FAILURE() << "no exception";
  return "";
}

TEST(GraphIoTest, FieldsFollowStreamExtraction) {
  // An integer ends at its first non-digit, so the next field may start
  // right after it; a leading '+' is accepted and trailing fields ignored.
  const TaskGraph g =
      task_graph_from_text("taskgraph 2 x\r\nnode 0 +3\r\nnode 1 4 9\nedge 0 1+5\r\n");
  EXPECT_EQ(g.node_weight(0), 3);
  EXPECT_EQ(g.edge_weight(0, 1), 5);
  EXPECT_EQ(error_of([] { (void)task_graph_from_text("taskgraph 1\nnode 0 +-1\n"); }),
            "graph_io: line 2: expected 'node <id> <weight>'");
  EXPECT_EQ(error_of([] {
              (void)task_graph_from_text("taskgraph 1\nnode 0 9223372036854775808\n");
            }),
            "graph_io: line 2: expected 'node <id> <weight>'");
  EXPECT_EQ(error_of([] { (void)task_graph_from_text("taskgraph 2147483648\n"); }),
            "graph_io: line 1: expected 'taskgraph <np>'");
  // '\v' and '\f' do not make a line blank, but fields skip them.
  EXPECT_EQ(error_of([] { (void)task_graph_from_text("taskgraph 0\n\v\n"); }),
            "graph_io: line 2: expected 'edge <from> <to> <weight>'");
  EXPECT_EQ(task_graph_from_text("\ftaskgraph\v1\nnode 0 1\n").node_count(), 1);
}

TEST(GraphIoTest, FirstOffendingLineWins) {
  // A graph error on an earlier line beats a format error on a later one.
  EXPECT_EQ(error_of([] { (void)task_graph_from_text("taskgraph 2\nnode 0 0\nnode 5 1\n"); }),
            "TaskGraph: task weight must be positive");
  EXPECT_EQ(error_of([] {
              (void)task_graph_from_text(
                  "taskgraph 3\nnode 0 1\nnode 1 1\nnode 2 1\n"
                  "edge 0 1 1\nedge 0 1 2\nedge 0 9 1\nedge\n");
            }),
            "TaskGraph: duplicate edge (0,1)");
  EXPECT_EQ(error_of([] {
              (void)task_graph_from_text(
                  "taskgraph 3\nnode 0 1\nnode 1 1\nnode 2 1\n"
                  "edge 0 1 1\nedge 0 9 1\nedge 0 1 2\n");
            }),
            "TaskGraph: node id 9 out of range");
  EXPECT_EQ(error_of([] {
              (void)task_graph_from_text("taskgraph 2\nnode 0 1\nnode 1 1\nedge 1 1 1\nedge\n");
            }),
            "TaskGraph: self loop");
}

TEST(GraphIoTest, HeaderCountIsNotSizedBeforeItsLines) {
  // Allocating the promised two billion tasks up front would take 8-16 GB.
  EXPECT_EQ(error_of([] { (void)task_graph_from_text("taskgraph 2000000000\nnode 0 1\n"); }),
            "graph_io: line 2: unexpected EOF in node list");
}

TEST(GraphIoTest, FanOutStarParsesAndKeepsDuplicateCheck) {
  // add_edge scans the source's out-list for duplicates, so building this
  // star edge by edge is quadratic in its fan-out.
  constexpr NodeId kLeaves = 50000;
  std::string text = "taskgraph " + std::to_string(kLeaves + 1) + "\n";
  for (NodeId v = 0; v <= kLeaves; ++v) text += "node " + std::to_string(v) + " 1\n";
  for (NodeId v = 1; v <= kLeaves; ++v) text += "edge 0 " + std::to_string(v) + " 1\n";
  const TaskGraph star = task_graph_from_text(text);
  EXPECT_EQ(star.out_degree(0), kLeaves);
  EXPECT_EQ(star.predecessors(kLeaves).front(), (std::pair<NodeId, Weight>{0, 1}));
  text += "edge 0 31337 2\n";
  EXPECT_EQ(error_of([&] { (void)task_graph_from_text(text); }),
            "TaskGraph: duplicate edge (0,31337)");
}

TEST(GraphIoTest, StreamReadersMatchTextParsers) {
  const TaskGraph g = sample_task_graph();
  std::istringstream task_text(to_text(g));
  EXPECT_EQ(read_task_graph(task_text), g);
  const SystemGraph machine = make_mesh(2, 3);
  std::istringstream system_text(to_text(machine));
  EXPECT_EQ(read_system_graph(system_text), machine);
}

}  // namespace
}  // namespace mimdmap
