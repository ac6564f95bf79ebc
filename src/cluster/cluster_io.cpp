#include "cluster/cluster_io.hpp"

#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "graph/text_scan.hpp"

namespace mimdmap {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  throw std::invalid_argument("cluster_io: line " + std::to_string(line) + ": " + what);
}

}  // namespace

void write_text(std::ostream& os, const Clustering& clustering) {
  os << "clustering " << clustering.num_tasks() << " " << clustering.num_clusters() << "\n";
  for (NodeId t = 0; t < clustering.num_tasks(); ++t) {
    os << "task " << t << " " << clustering.cluster_of(t) << "\n";
  }
}

std::string to_text(const Clustering& clustering) {
  std::ostringstream os;
  write_text(os, clustering);
  return os.str();
}

Clustering clustering_from_text(std::string_view text) {
  detail::TextScanner in(text);
  if (!in.next_line()) fail(in.line_no(), "empty input");
  std::string_view tag;
  NodeId np = 0;
  NodeId na = 0;
  if (!(in.word(tag) && in.integer(np) && in.integer(na)) || tag != "clustering" || np < 0 ||
      na < 0) {
    fail(in.line_no(), "expected 'clustering <np> <na>'");
  }
  std::vector<NodeId> cluster_of;
  while (node_id(cluster_of.size()) < np) {
    if (!in.next_line()) fail(in.line_no(), "unexpected EOF in task list");
    NodeId id = 0;
    NodeId cluster = 0;
    if (!(in.word(tag) && in.integer(id) && in.integer(cluster)) || tag != "task") {
      fail(in.line_no(), "expected 'task <id> <cluster>'");
    }
    if (id != node_id(cluster_of.size())) fail(in.line_no(), "task ids must be consecutive from 0");
    cluster_of.push_back(cluster);
  }
  return Clustering(std::move(cluster_of), na);  // validates cluster ranges
}

Clustering read_clustering(std::istream& is) { return clustering_from_text(detail::read_all(is)); }

}  // namespace mimdmap
