#include "graph/topology_cache.hpp"

#include "graph/shortest_paths.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
// Dependency-free chaos-testing crosscut (service/fault_injection.hpp):
// the cache fill is a shared-state failure point MapService must isolate,
// so the harness plants its allocation-failure hook here.
#include "service/fault_injection.hpp"

namespace mimdmap {

void flatten_routes(const RoutingTable& routing, std::vector<std::uint32_t>& route_offset,
                    std::vector<std::int32_t>& route_links) {
  const NodeId ns = routing.node_count();
  route_offset.assign(idx(ns) * idx(ns) + 1, 0);
  route_links.clear();
  for (NodeId a = 0; a < ns; ++a) {
    for (NodeId b = 0; b < ns; ++b) {
      route_offset[idx(a) * idx(ns) + idx(b)] = static_cast<std::uint32_t>(route_links.size());
      const std::vector<NodeId> path = routing.route(a, b);
      for (std::size_t k = 0; k + 1 < path.size(); ++k) {
        route_links.push_back(routing.link_index(path[k], path[k + 1]));
      }
    }
  }
  route_offset.back() = static_cast<std::uint32_t>(route_links.size());
}

TopologyTables::TopologyTables(const SystemGraph& system, DistanceModel distance_model)
    : model(distance_model),
      ns(system.node_count()),
      hops(distance_model == DistanceModel::kHops ? all_pairs_hops(system)
                                                  : floyd_warshall(system)),
      routing(system) {
  flatten_routes(routing, route_offset, route_links);
}

std::string topology_fingerprint(const SystemGraph& system, DistanceModel model) {
  std::string key;
  key.reserve(16 + system.link_count() * 12);
  key += model == DistanceModel::kHops ? 'h' : 'w';
  key += std::to_string(system.node_count());
  for (const SystemLink& link : system.links()) {
    key += ';';
    key += std::to_string(link.a);
    key += ',';
    key += std::to_string(link.b);
    key += ',';
    key += std::to_string(link.weight);
  }
  return key;
}

namespace {

// Registered at start-up, so `op=metrics` shows the series (as zeros)
// before the first job acquires a topology.
obs::Counter& hit_counter = obs::registry().counter("mimdmap_topo_cache_hits_total");
obs::Counter& miss_counter = obs::registry().counter("mimdmap_topo_cache_misses_total");

}  // namespace

std::shared_ptr<const TopologyTables> TopologyCache::acquire(const SystemGraph& system,
                                                             DistanceModel model, bool* hit) {
  const obs::Span span("topo_acquire", "cache", "nodes",
                       static_cast<std::int64_t>(system.node_count()));
  const std::string key = topology_fingerprint(system, model);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    hit_counter.inc();
    if (hit != nullptr) *hit = true;
    return it->second;
  }
  ++misses_;
  miss_counter.inc();
  if (hit != nullptr) *hit = false;
  // Built under the lock: concurrent first requests for one topology would
  // otherwise race to duplicate the most expensive part of the job, and
  // the tables are small enough that serializing the build is the lesser
  // evil.
  fault_point_topo_alloc();
  auto tables = std::make_shared<const TopologyTables>(system, model);
  entries_.emplace(key, tables);
  return tables;
}

std::int64_t TopologyCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::int64_t TopologyCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

std::size_t TopologyCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace mimdmap
