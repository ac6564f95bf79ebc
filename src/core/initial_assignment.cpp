#include "core/initial_assignment.hpp"

#include <algorithm>
#include <vector>

namespace mimdmap {
namespace {

/// Unplaced clusters ranked by a fixed key: larger key first, ties toward
/// the smaller id. A binary heap, so each push and pop is O(log ns).
class RankedClusters {
 public:
  explicit RankedClusters(const std::vector<Weight>& key) : below_{&key} {}

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  void push(NodeId a) {
    heap_.push_back(a);
    std::push_heap(heap_.begin(), heap_.end(), below_);
  }

  NodeId pop() {
    std::pop_heap(heap_.begin(), heap_.end(), below_);
    const NodeId a = heap_.back();
    heap_.pop_back();
    return a;
  }

  /// `ids` in rank order.
  void sort(std::vector<NodeId>& ids) const {
    std::sort(ids.begin(), ids.end(), [this](NodeId x, NodeId y) { return below_(y, x); });
  }

 private:
  struct Below {
    const std::vector<Weight>* key;
    /// True when x ranks below y.
    bool operator()(NodeId x, NodeId y) const {
      const Weight kx = (*key)[idx(x)];
      const Weight ky = (*key)[idx(y)];
      return kx < ky || (kx == ky && x > y);
    }
  };

  Below below_;
  std::vector<NodeId> heap_;
};

/// The heaviest edge from an unplaced cluster to a placed one, ties toward
/// the smaller placed id. Kept up to date as clusters are placed, as in
/// Prim's algorithm, instead of rescanning every placed cluster.
struct Anchor {
  NodeId cluster = Assignment::kUnassigned;
  Weight weight = 0;

  /// Offers placed cluster `b` over an edge of weight `w`; true when it
  /// gives the first anchor.
  bool offer(NodeId b, Weight w) {
    if (w <= 0) return false;
    const bool first = cluster == Assignment::kUnassigned;
    if (w > weight || (w == weight && b < cluster)) {
      cluster = b;
      weight = w;
    }
    return first;
  }
};

/// Bundles the bookkeeping shared by the three steps.
class Builder {
 public:
  Builder(const MappingInstance& instance, const CriticalInfo& critical)
      : instance_(instance),
        critical_(critical),
        n_(instance.num_processors()),
        assignment_(Assignment::partial(n_)),
        visited_abs_(idx(n_), false),
        visited_sys_(idx(n_), false),
        pinned_(idx(n_), false),
        critical_anchor_(idx(n_)),
        traffic_anchor_(idx(n_)),
        critical_ready_(critical.critical_degree),
        traffic_ready_(instance.abstract().mca_vector()) {}

  InitialAssignmentResult run() {
    seed();
    grow_critical();
    grow_remainder();
    return InitialAssignmentResult{assignment_, pinned_};
  }

 private:
  // ---- ranking helpers (ties always break toward the smaller id) ----

  /// Unvisited system node with maximum degree.
  NodeId best_free_processor() const {
    NodeId best = Assignment::kUnassigned;
    for (NodeId p = 0; p < n_; ++p) {
      if (visited_sys_[idx(p)]) continue;
      if (best == Assignment::kUnassigned ||
          instance_.system().degree(p) > instance_.system().degree(best)) {
        best = p;
      }
    }
    return best;
  }

  /// Unvisited system node adjacent to `anchor_proc` with maximum degree;
  /// kUnassigned when every neighbour is taken.
  NodeId best_free_neighbor(NodeId anchor_proc) const {
    NodeId best = Assignment::kUnassigned;
    for (const auto& [p, w] : instance_.system().neighbors(anchor_proc)) {
      if (visited_sys_[idx(p)]) continue;
      if (best == Assignment::kUnassigned ||
          instance_.system().degree(p) > instance_.system().degree(best) ||
          (instance_.system().degree(p) == instance_.system().degree(best) && p < best)) {
        best = p;
      }
    }
    return best;
  }

  /// Unvisited system node closest to `anchor_proc` (paper step 2c/3c);
  /// ties by larger degree, then smaller id.
  NodeId closest_free_processor(NodeId anchor_proc) const {
    const auto& hops = instance_.hops();
    NodeId best = Assignment::kUnassigned;
    for (NodeId p = 0; p < n_; ++p) {
      if (visited_sys_[idx(p)]) continue;
      if (best == Assignment::kUnassigned) {
        best = p;
        continue;
      }
      const Weight dp = hops(idx(anchor_proc), idx(p));
      const Weight db = hops(idx(anchor_proc), idx(best));
      if (dp < db || (dp == db && instance_.system().degree(p) > instance_.system().degree(best))) {
        best = p;
      }
    }
    return best;
  }

  /// Places `cluster` anchored at placed cluster `anchor` (steps 2b/2c and
  /// 3b/3c): adjacent free processor if possible (returns true → caller may
  /// pin), else the closest free processor (returns false).
  bool place_anchored(NodeId cluster, NodeId anchor) {
    const NodeId anchor_proc = assignment_.host_of(anchor);
    NodeId p = best_free_neighbor(anchor_proc);
    const bool adjacent = p != Assignment::kUnassigned;
    if (!adjacent) p = closest_free_processor(anchor_proc);
    place(cluster, p);
    return adjacent;
  }

  /// Places `cluster` and offers it as an anchor to its unplaced abstract
  /// neighbours, in O(degree). Critical abstract edges are abstract edges
  /// (a critical edge is a clustered edge of positive weight), so the
  /// neighbour list covers both kinds of anchor. Steps 2 and 3 draw from
  /// disjoint pools, positive critical degree or not, so each cluster
  /// needs only its own step's anchor. It joins that step's heap with its
  /// first anchor and stays unplaced until popped.
  void place(NodeId cluster, NodeId processor) {
    assignment_.place(cluster, processor);
    visited_abs_[idx(cluster)] = true;
    visited_sys_[idx(processor)] = true;
    const AbstractGraph& abs = instance_.abstract();
    const auto critical_row = critical_.c_abs_edge.row(idx(cluster));  // symmetric
    for (const NodeId a : abs.neighbors(cluster)) {
      if (visited_abs_[idx(a)]) continue;
      if (critical_.critical_degree[idx(a)] > 0) {
        if (critical_anchor_[idx(a)].offer(cluster, critical_row[idx(a)])) critical_ready_.push(a);
      } else if (traffic_anchor_[idx(a)].offer(cluster, abs.edge_traffic(a, cluster))) {
        traffic_ready_.push(a);
      }
    }
  }

  // ---- the three steps ----

  void seed() {
    if (n_ == 0) return;
    // Step 1a: system node of maximum degree.
    const NodeId vs = best_free_processor();
    // Step 1b: abstract node of maximum critical degree.
    NodeId va = 0;
    for (NodeId a = 1; a < n_; ++a) {
      if (critical_.critical_degree[idx(a)] > critical_.critical_degree[idx(va)]) va = a;
    }
    // Step 1c. The paper marks the seed as a critical abstract node
    // unconditionally; definition 5 requires a critical edge, so the mark
    // is only meaningful when one exists.
    place(va, vs);
    if (critical_.critical_degree[idx(va)] > 0) pinned_[idx(va)] = true;
  }

  /// Step 2: place every abstract node that has critical abstract edges.
  void grow_critical() {
    std::vector<NodeId> pool;
    for (NodeId a = 0; a < n_; ++a) {
      if (critical_.critical_degree[idx(a)] > 0) pool.push_back(a);
    }
    grow(critical_ready_, critical_anchor_, std::move(pool), /*pin=*/true);
  }

  /// Step 3: place the remaining abstract nodes by communication intensity.
  void grow_remainder() {
    std::vector<NodeId> pool(idx(n_));
    for (NodeId a = 0; a < n_; ++a) pool[idx(a)] = a;
    grow(traffic_ready_, traffic_anchor_, std::move(pool), /*pin=*/false);
  }

  /// Places every cluster of `pool`: the best-ranked one with an anchor
  /// next to its anchor (steps 2a-2c / 3a-3c, pinned in step 2 when it
  /// lands adjacent). When none has an anchor (disconnected critical
  /// subgraph or abstract graph), the best-ranked one seeds a new region.
  void grow(RankedClusters& ready, const std::vector<Anchor>& anchors, std::vector<NodeId> pool,
            bool pin) {
    ready.sort(pool);
    std::size_t next = 0;
    while (true) {
      if (!ready.empty()) {
        const NodeId best = ready.pop();
        const bool adjacent = place_anchored(best, anchors[idx(best)].cluster);
        if (pin && adjacent) pinned_[idx(best)] = true;
        continue;
      }
      while (next < pool.size() && visited_abs_[idx(pool[next])]) ++next;
      if (next == pool.size()) return;
      const NodeId orphan = pool[next];
      place(orphan, best_free_processor());
      if (pin) pinned_[idx(orphan)] = true;
    }
  }

  const MappingInstance& instance_;
  const CriticalInfo& critical_;
  NodeId n_;
  Assignment assignment_;
  std::vector<bool> visited_abs_;
  std::vector<bool> visited_sys_;
  std::vector<bool> pinned_;
  std::vector<Anchor> critical_anchor_;  // over critical abstract edges
  std::vector<Anchor> traffic_anchor_;   // over abstract edges
  RankedClusters critical_ready_;        // step 2 pool with an anchor, by critical degree
  RankedClusters traffic_ready_;         // step 3 pool with an anchor, by mca
};

}  // namespace

InitialAssignmentResult initial_assignment(const MappingInstance& instance,
                                           const CriticalInfo& critical) {
  return Builder(instance, critical).run();
}

}  // namespace mimdmap
