// Serialization of task and system graphs.
//
// Two formats:
//  * DOT (Graphviz) export for visual inspection of problem graphs, system
//    graphs, and assignments;
//  * a line-based text format with full round-trip support, so experiment
//    inputs can be checked into a repository and replayed:
//
//      taskgraph <np>
//      node <id> <weight>          (np lines)
//      edge <from> <to> <weight>   (one per edge)
//
//      systemgraph <ns> <name>
//      link <a> <b> <weight>       (one per link)
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "graph/system_graph.hpp"
#include "graph/task_graph.hpp"

namespace mimdmap {

/// DOT digraph of a task DAG; node labels are "id (weight)", edge labels
/// are communication weights.
[[nodiscard]] std::string to_dot(const TaskGraph& g);

/// DOT graph of a system topology.
[[nodiscard]] std::string to_dot(const SystemGraph& g);

void write_text(std::ostream& os, const TaskGraph& g);
void write_text(std::ostream& os, const SystemGraph& g);

[[nodiscard]] std::string to_text(const TaskGraph& g);
[[nodiscard]] std::string to_text(const SystemGraph& g);

/// Parses the text format in one pass over the buffer (graph/text_scan.hpp
/// gives the accepted language). Malformed lines throw
/// std::invalid_argument with a line number; a bad weight, endpoint,
/// self loop or duplicate throws what TaskGraph::add_edge or
/// SystemGraph::add_link would. Either way the exception names the first
/// offending line. The stream overloads read the whole stream first.
[[nodiscard]] TaskGraph task_graph_from_text(std::string_view text);
[[nodiscard]] SystemGraph system_graph_from_text(std::string_view text);

[[nodiscard]] TaskGraph read_task_graph(std::istream& is);
[[nodiscard]] SystemGraph read_system_graph(std::istream& is);

}  // namespace mimdmap
