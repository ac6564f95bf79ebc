#include "graph/graph_io.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/text_scan.hpp"

namespace mimdmap {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("graph_io: line " + std::to_string(line) + ": " + what);
}

/// A format error at `line`, reported only after TaskGraph has checked the
/// weights and edges read before it: an error TaskGraph raises for an
/// earlier line comes first in the input, so it is the one thrown.
[[noreturn]] void fail_after(std::vector<Weight>& weights, std::vector<TaskEdge>& edges,
                             std::size_t line, const std::string& what) {
  (void)TaskGraph(std::move(weights), std::move(edges));
  fail(line, what);
}

}  // namespace

std::string to_dot(const TaskGraph& g) {
  std::ostringstream os;
  os << "digraph taskgraph {\n  rankdir=TB;\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  t" << v << " [label=\"" << v << " (" << g.node_weight(v) << ")\"];\n";
  }
  for (const TaskEdge& e : g.edges()) {
    os << "  t" << e.from << " -> t" << e.to << " [label=\"" << e.weight << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string to_dot(const SystemGraph& g) {
  std::ostringstream os;
  os << "graph \"" << g.name() << "\" {\n  node [shape=box];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "  p" << v << " [label=\"P" << v << "\"];\n";
  }
  for (const SystemLink& l : g.links()) {
    os << "  p" << l.a << " -- p" << l.b;
    if (l.weight != 1) os << " [label=\"" << l.weight << "\"]";
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

void write_text(std::ostream& os, const TaskGraph& g) {
  os << "taskgraph " << g.node_count() << "\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    os << "node " << v << " " << g.node_weight(v) << "\n";
  }
  for (const TaskEdge& e : g.edges()) {
    os << "edge " << e.from << " " << e.to << " " << e.weight << "\n";
  }
}

void write_text(std::ostream& os, const SystemGraph& g) {
  os << "systemgraph " << g.node_count() << " " << g.name() << "\n";
  for (const SystemLink& l : g.links()) {
    os << "link " << l.a << " " << l.b << " " << l.weight << "\n";
  }
}

std::string to_text(const TaskGraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

std::string to_text(const SystemGraph& g) {
  std::ostringstream os;
  write_text(os, g);
  return os.str();
}

TaskGraph task_graph_from_text(std::string_view text) {
  detail::TextScanner in(text);
  if (!in.next_line()) fail(in.line_no(), "empty input");
  std::string_view tag;
  NodeId n = 0;
  if (!(in.word(tag) && in.integer(n)) || tag != "taskgraph" || n < 0) {
    fail(in.line_no(), "expected 'taskgraph <np>'");
  }
  std::vector<Weight> weights;
  std::vector<TaskEdge> edges;
  while (node_id(weights.size()) < n) {
    if (!in.next_line()) fail_after(weights, edges, in.line_no(), "unexpected EOF in node list");
    NodeId id = 0;
    Weight w = 0;
    if (!(in.word(tag) && in.integer(id) && in.integer(w)) || tag != "node") {
      fail_after(weights, edges, in.line_no(), "expected 'node <id> <weight>'");
    }
    if (id != node_id(weights.size())) {
      fail_after(weights, edges, in.line_no(), "node ids must be consecutive from 0");
    }
    weights.push_back(w);
  }
  while (in.next_line()) {
    TaskEdge e;
    if (!(in.word(tag) && in.integer(e.from) && in.integer(e.to) && in.integer(e.weight)) ||
        tag != "edge") {
      fail_after(weights, edges, in.line_no(), "expected 'edge <from> <to> <weight>'");
    }
    edges.push_back(e);
  }
  TaskGraph g(std::move(weights), std::move(edges));
  g.validate();
  return g;
}

SystemGraph system_graph_from_text(std::string_view text) {
  detail::TextScanner in(text);
  if (!in.next_line()) fail(in.line_no(), "empty input");
  std::string_view tag;
  NodeId n = 0;
  if (!(in.word(tag) && in.integer(n)) || tag != "systemgraph" || n < 0) {
    fail(in.line_no(), "expected 'systemgraph <ns> [name]'");
  }
  std::string_view name;
  SystemGraph g(n, in.word(name) ? std::string(name) : std::string("custom"));
  while (in.next_line()) {
    NodeId a = 0;
    NodeId b = 0;
    Weight w = 0;
    if (!(in.word(tag) && in.integer(a) && in.integer(b) && in.integer(w)) || tag != "link") {
      fail(in.line_no(), "expected 'link <a> <b> <weight>'");
    }
    g.add_link(a, b, w);
  }
  return g;
}

TaskGraph read_task_graph(std::istream& is) { return task_graph_from_text(detail::read_all(is)); }

SystemGraph read_system_graph(std::istream& is) {
  return system_graph_from_text(detail::read_all(is));
}

}  // namespace mimdmap
