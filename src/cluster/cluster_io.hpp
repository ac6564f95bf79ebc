// Text serialization of clusterings (and, in core, assignments reuse the
// same style): lets experiments be stored, diffed and replayed alongside
// the graph files from graph/graph_io.hpp.
//
//   clustering <np> <na>
//   task <id> <cluster>     (np lines, ids consecutive from 0)
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "cluster/clustering.hpp"

namespace mimdmap {

void write_text(std::ostream& os, const Clustering& clustering);
[[nodiscard]] std::string to_text(const Clustering& clustering);

/// Parses the text format in one pass over the buffer, under the rules of
/// graph/text_scan.hpp; throws std::invalid_argument with a line number on
/// malformed input. The task list is stored as its lines are read, never
/// sized from the header. The stream overload reads the whole stream first.
[[nodiscard]] Clustering clustering_from_text(std::string_view text);
[[nodiscard]] Clustering read_clustering(std::istream& is);

}  // namespace mimdmap
