// The text parsers as they were before the one-pass scanner: std::getline
// plus one std::istringstream per line, and an incremental TaskGraph build
// (add_edge's out-list scan, the min-heap acyclicity check). Kept as the
// oracle of the parser differential fuzz in fuzz_parser_test.cpp, which
// requires the production parsers to give the same graph, or the same
// exception type and message, on every input.
//
// These allocate whatever the header asks for before reading a line, so
// callers must not feed them headers with large counts.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/clustering.hpp"
#include "graph/system_graph.hpp"
#include "graph/task_graph.hpp"
#include "graph/topological.hpp"

namespace mimdmap::reference {

[[noreturn]] inline void fail(const char* format, std::size_t line, const std::string& what) {
  throw std::invalid_argument(std::string(format) + ": line " + std::to_string(line) + ": " +
                              what);
}

inline bool next_line(std::istream& is, std::string& out, std::size_t& line_no) {
  while (std::getline(is, out)) {
    ++line_no;
    const auto first = out.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (out[first] == '#') continue;
    return true;
  }
  return false;
}

inline TaskGraph task_graph_from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no)) fail("graph_io", line_no, "empty input");
  std::istringstream header(line);
  std::string tag;
  NodeId n = 0;
  if (!(header >> tag >> n) || tag != "taskgraph" || n < 0) {
    fail("graph_io", line_no, "expected 'taskgraph <np>'");
  }
  TaskGraph g(n);
  NodeId nodes_seen = 0;
  while (nodes_seen < n) {
    if (!next_line(is, line, line_no)) fail("graph_io", line_no, "unexpected EOF in node list");
    std::istringstream ls(line);
    NodeId id = 0;
    Weight w = 0;
    if (!(ls >> tag >> id >> w) || tag != "node") {
      fail("graph_io", line_no, "expected 'node <id> <weight>'");
    }
    if (id != nodes_seen) fail("graph_io", line_no, "node ids must be consecutive from 0");
    g.set_node_weight(id, w);
    ++nodes_seen;
  }
  while (next_line(is, line, line_no)) {
    std::istringstream ls(line);
    NodeId from = 0;
    NodeId to = 0;
    Weight w = 0;
    if (!(ls >> tag >> from >> to >> w) || tag != "edge") {
      fail("graph_io", line_no, "expected 'edge <from> <to> <weight>'");
    }
    g.add_edge(from, to, w);
  }
  if (!topological_order(g)) throw std::invalid_argument("TaskGraph: cycle detected");
  return g;
}

inline SystemGraph system_graph_from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no)) fail("graph_io", line_no, "empty input");
  std::istringstream header(line);
  std::string tag;
  std::string name;
  NodeId n = 0;
  if (!(header >> tag >> n) || tag != "systemgraph" || n < 0) {
    fail("graph_io", line_no, "expected 'systemgraph <ns> [name]'");
  }
  if (!(header >> name)) name = "custom";
  SystemGraph g(n, name);
  while (next_line(is, line, line_no)) {
    std::istringstream ls(line);
    NodeId a = 0;
    NodeId b = 0;
    Weight w = 0;
    if (!(ls >> tag >> a >> b >> w) || tag != "link") {
      fail("graph_io", line_no, "expected 'link <a> <b> <weight>'");
    }
    g.add_link(a, b, w);
  }
  return g;
}

inline Clustering clustering_from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t line_no = 0;
  if (!next_line(is, line, line_no)) fail("cluster_io", line_no, "empty input");
  std::istringstream header(line);
  std::string tag;
  NodeId np = 0;
  NodeId na = 0;
  if (!(header >> tag >> np >> na) || tag != "clustering" || np < 0 || na < 0) {
    fail("cluster_io", line_no, "expected 'clustering <np> <na>'");
  }
  std::vector<NodeId> cluster_of(idx(np), -1);
  for (NodeId expected = 0; expected < np; ++expected) {
    if (!next_line(is, line, line_no)) fail("cluster_io", line_no, "unexpected EOF in task list");
    std::istringstream ls(line);
    NodeId id = 0;
    NodeId cluster = 0;
    if (!(ls >> tag >> id >> cluster) || tag != "task") {
      fail("cluster_io", line_no, "expected 'task <id> <cluster>'");
    }
    if (id != expected) fail("cluster_io", line_no, "task ids must be consecutive from 0");
    cluster_of[idx(id)] = cluster;
  }
  return Clustering(std::move(cluster_of), na);
}

}  // namespace mimdmap::reference
