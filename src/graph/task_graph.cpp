#include "graph/task_graph.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "graph/topological.hpp"

namespace mimdmap {
namespace {

std::invalid_argument duplicate_edge(NodeId from, NodeId to) {
  return std::invalid_argument("TaskGraph: duplicate edge (" + std::to_string(from) + "," +
                               std::to_string(to) + ")");
}

/// Throws for the first of edges[0, count) that repeats an earlier one;
/// the caller knows there is one.
[[noreturn]] void throw_first_duplicate(const std::vector<TaskEdge>& edges, std::size_t count) {
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < count; ++i) {
    const TaskEdge& e = edges[i];
    const std::uint64_t key = (std::uint64_t{static_cast<std::uint32_t>(e.from)} << 32) |
                              static_cast<std::uint32_t>(e.to);
    if (!seen.insert(key).second) throw duplicate_edge(e.from, e.to);
  }
  throw std::logic_error("TaskGraph: duplicate edge expected but not found");
}

}  // namespace

TaskGraph::TaskGraph(NodeId n) {
  if (n < 0) throw std::invalid_argument("TaskGraph: negative node count");
  weights_.assign(idx(n), Weight{1});
  out_.resize(idx(n));
  in_.resize(idx(n));
}

TaskGraph::TaskGraph(std::vector<Weight> weights, std::vector<TaskEdge> edges)
    : weights_(std::move(weights)), edges_(std::move(edges)) {
  for (const Weight w : weights_) {
    if (w <= 0) throw std::invalid_argument("TaskGraph: task weight must be positive");
  }
  const NodeId n = node_count();
  // The edges before the first one add_edge would reject whatever came
  // before it; only a duplicate among them can be reported earlier.
  std::size_t valid = 0;
  for (; valid < edges_.size(); ++valid) {
    const TaskEdge& e = edges_[valid];
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n || e.from == e.to || e.weight <= 0) {
      break;
    }
  }

  std::vector<std::size_t> count(idx(n), 0);
  for (std::size_t i = 0; i < valid; ++i) ++count[idx(edges_[i].from)];
  out_.resize(idx(n));
  for (std::size_t v = 0; v < idx(n); ++v) out_[v].reserve(count[v]);
  std::fill(count.begin(), count.end(), 0);
  for (std::size_t i = 0; i < valid; ++i) ++count[idx(edges_[i].to)];
  in_.resize(idx(n));
  for (std::size_t v = 0; v < idx(n); ++v) in_[v].reserve(count[v]);
  for (std::size_t i = 0; i < valid; ++i) {
    const TaskEdge& e = edges_[i];
    out_[idx(e.from)].emplace_back(e.to, e.weight);
    in_[idx(e.to)].emplace_back(e.from, e.weight);
  }

  // stamp[to] == v + 1 once v's out-list has reached `to`.
  std::vector<std::size_t>& stamp = count;
  std::fill(stamp.begin(), stamp.end(), 0);
  for (std::size_t v = 0; v < idx(n); ++v) {
    for (const auto& [to, w] : out_[v]) {
      if (stamp[idx(to)] == v + 1) throw_first_duplicate(edges_, valid);
      stamp[idx(to)] = v + 1;
    }
  }
  if (valid < edges_.size()) {
    const TaskEdge& bad = edges_[valid];
    check_edge(bad.from, bad.to, bad.weight);  // throws
  }
}

NodeId TaskGraph::add_node(Weight exec_time) {
  if (exec_time <= 0) throw std::invalid_argument("TaskGraph: task weight must be positive");
  weights_.push_back(exec_time);
  out_.emplace_back();
  in_.emplace_back();
  return node_id(weights_.size() - 1);
}

void TaskGraph::set_node_weight(NodeId v, Weight exec_time) {
  check_node(v);
  if (exec_time <= 0) throw std::invalid_argument("TaskGraph: task weight must be positive");
  weights_[idx(v)] = exec_time;
}

void TaskGraph::add_edge(NodeId from, NodeId to, Weight w) {
  check_edge(from, to, w);
  if (has_edge(from, to)) throw duplicate_edge(from, to);
  out_[idx(from)].emplace_back(to, w);
  in_[idx(to)].emplace_back(from, w);
  edges_.push_back(TaskEdge{from, to, w});
}

bool TaskGraph::has_edge(NodeId from, NodeId to) const {
  check_node(from);
  check_node(to);
  for (const auto& [succ, w] : out_[idx(from)]) {
    if (succ == to) return true;
  }
  return false;
}

Weight TaskGraph::edge_weight(NodeId from, NodeId to) const {
  check_node(from);
  check_node(to);
  for (const auto& [succ, w] : out_[idx(from)]) {
    if (succ == to) return w;
  }
  return 0;
}

Matrix<Weight> TaskGraph::edge_matrix() const {
  auto m = Matrix<Weight>::square(idx(node_count()), 0);
  for (const TaskEdge& e : edges_) m(idx(e.from), idx(e.to)) = e.weight;
  return m;
}

Weight TaskGraph::total_work() const {
  Weight sum = 0;
  for (Weight w : weights_) sum += w;
  return sum;
}

Weight TaskGraph::total_traffic() const {
  Weight sum = 0;
  for (const TaskEdge& e : edges_) sum += e.weight;
  return sum;
}

void TaskGraph::validate() const {
  if (!is_dag(*this)) throw std::invalid_argument("TaskGraph: cycle detected");
}

void TaskGraph::check_node(NodeId v) const {
  if (v < 0 || idx(v) >= weights_.size()) {
    throw std::out_of_range("TaskGraph: node id " + std::to_string(v) + " out of range");
  }
}

void TaskGraph::check_edge(NodeId from, NodeId to, Weight w) const {
  check_node(from);
  check_node(to);
  if (from == to) throw std::invalid_argument("TaskGraph: self loop");
  if (w <= 0) throw std::invalid_argument("TaskGraph: edge weight must be positive");
}

}  // namespace mimdmap
