#include "core/instance.hpp"

#include <atomic>
#include <stdexcept>

#include "graph/shortest_paths.hpp"
#include "graph/topological.hpp"

namespace mimdmap {
namespace {

std::atomic<int> g_live_instances{0};
std::atomic<int> g_peak_live_instances{0};

void count_instance_up() noexcept {
  const int now = g_live_instances.fetch_add(1, std::memory_order_relaxed) + 1;
  int peak = g_peak_live_instances.load(std::memory_order_relaxed);
  while (peak < now &&
         !g_peak_live_instances.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

}  // namespace

MappingInstance::LiveCounter::LiveCounter() noexcept { count_instance_up(); }
MappingInstance::LiveCounter::LiveCounter(const LiveCounter&) noexcept { count_instance_up(); }
MappingInstance::LiveCounter::LiveCounter(LiveCounter&&) noexcept { count_instance_up(); }
MappingInstance::LiveCounter::~LiveCounter() {
  g_live_instances.fetch_sub(1, std::memory_order_relaxed);
}

int MappingInstance::live_count() noexcept {
  return g_live_instances.load(std::memory_order_relaxed);
}

int MappingInstance::peak_live_count() noexcept {
  return g_peak_live_instances.load(std::memory_order_relaxed);
}

void MappingInstance::reset_peak_live_count() noexcept {
  g_peak_live_instances.store(g_live_instances.load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
}

const Matrix<Weight>& MappingInstance::clus_edge() const {
  const std::lock_guard<std::mutex> lock(*clus_edge_mutex_);
  if (!clus_edge_built_) {
    clus_edge_ = clustered_edge_matrix(problem_, clustering_);
    clus_edge_built_ = true;
  }
  return clus_edge_;
}

MappingInstance::MappingInstance(TaskGraph problem, Clustering clustering, SystemGraph system,
                                 DistanceModel distance_model)
    : problem_(std::move(problem)),
      clustering_(std::move(clustering)),
      system_(std::move(system)),
      distance_model_(distance_model) {
  init_derived();
}

MappingInstance::MappingInstance(TaskGraph problem, Clustering clustering, SystemGraph system,
                                 std::shared_ptr<const TopologyTables> tables)
    : problem_(std::move(problem)),
      clustering_(std::move(clustering)),
      system_(std::move(system)),
      tables_(std::move(tables)) {
  if (tables_ == nullptr) {
    throw std::invalid_argument("MappingInstance: shared topology tables are null");
  }
  if (tables_->ns != system_.node_count()) {
    throw std::invalid_argument(
        "MappingInstance: shared topology tables were built for a different machine size");
  }
  distance_model_ = tables_->model;
  init_derived();
}

void MappingInstance::init_derived() {
  // The acyclicity check TaskGraph::validate() runs, keeping the order.
  auto order = topological_order(problem_);
  if (!order) throw std::invalid_argument("TaskGraph: cycle detected");
  topo_order_ = std::move(*order);
  system_.validate();
  if (clustering_.num_tasks() != problem_.node_count()) {
    throw std::invalid_argument("MappingInstance: clustering covers wrong task count");
  }
  if (clustering_.num_clusters() != system_.node_count()) {
    throw std::invalid_argument(
        "MappingInstance: cluster count must equal processor count (na == ns)");
  }
  abstract_ = AbstractGraph(problem_, clustering_);
  if (tables_ == nullptr) {
    hops_ = distance_model_ == DistanceModel::kHops ? all_pairs_hops(system_)
                                                    : floyd_warshall(system_);
  }
}

}  // namespace mimdmap
