#include "core/eval_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mimdmap {

namespace {

// How much of its schedule each SoA wave walks: the live lanes summed over
// the positions visited (W * np for a dense wave), and the lanes a cutoff
// certified before their last task. Registered at start-up, so
// `op=metrics` shows the series (as zeros) before the first wave runs.
obs::Counter& soa_lane_tasks = obs::registry().counter("mimdmap_eval_soa_lane_tasks_total");
obs::Counter& soa_cutoff_exits = obs::registry().counter("mimdmap_eval_soa_cutoff_exits_total");

}  // namespace

EvalEngine::EvalEngine(const MappingInstance& instance, std::shared_ptr<ThreadPool> pool)
    : instance_(instance), pool_(pool ? std::move(pool) : ThreadPool::shared()) {
  if (instance.shared_tables()) adopt_topology(instance.shared_tables());
  const TaskGraph& problem = instance.problem();
  cluster_of_ = instance.clustering().cluster_map();
  node_weight_ = problem.node_weights();

  const NodeId np = problem.node_count();
  std::size_t total_arcs = 0;
  for (NodeId v = 0; v < np; ++v) total_arcs += problem.predecessors(v).size();
  pred_arcs_.reserve(total_arcs);
  pred_offset_.assign(idx(np) + 1, 0);
  for (NodeId v = 0; v < np; ++v) {
    pred_offset_[idx(v)] = static_cast<std::uint32_t>(pred_arcs_.size());
    // Same edge-insertion order as TaskGraph::predecessors(v) — the legacy
    // evaluation's iteration order, which link_contention results depend on.
    // Clustered weight straight off the adjacency (0 intra-cluster) keeps
    // construction free of the dense np x np clus_edge matrix.
    for (const auto& [pred, edge_w] : problem.predecessors(v)) {
      const NodeId pc = cluster_of_[idx(pred)];
      pred_arcs_.push_back({pred, pc, pc == cluster_of_[idx(v)] ? 0 : edge_w});
    }
  }
  pred_offset_[idx(np)] = static_cast<std::uint32_t>(pred_arcs_.size());
}

const EvalEngine::DeltaTables& EvalEngine::delta_tables() const {
  std::call_once(delta_once_, [&] { build_delta_tables(); });
  return delta_tables_;
}

void EvalEngine::build_delta_tables() const {
  const TaskGraph& problem = instance_.problem();
  const std::vector<NodeId>& topo = instance_.topo_order();
  const NodeId np = problem.node_count();
  DeltaTables& t = delta_tables_;

  t.topo_pos.assign(idx(np), 0);
  for (std::size_t pos = 0; pos < topo.size(); ++pos) {
    t.topo_pos[idx(topo[pos])] = static_cast<std::uint32_t>(pos);
  }

  // Successor CSR mirroring the predecessor CSR — the delta evaluator's
  // dirty-set propagation walks it forward, and seeds per arc off the
  // pre-resolved successor cluster.
  t.succ_arcs.reserve(pred_arcs_.size());
  t.succ_offset.assign(idx(np) + 1, 0);
  for (NodeId v = 0; v < np; ++v) {
    t.succ_offset[idx(v)] = static_cast<std::uint32_t>(t.succ_arcs.size());
    for (const auto& [succ, edge_w] : problem.successors(v)) {
      const NodeId sc = cluster_of_[idx(succ)];
      t.succ_arcs.push_back({succ, sc, sc == cluster_of_[idx(v)] ? 0 : edge_w});
    }
  }
  t.succ_offset[idx(np)] = static_cast<std::uint32_t>(t.succ_arcs.size());

  // Ancestor-cluster bitmasks (one forward pass over the predecessor CSR).
  // With more than 64 clusters the masks degrade to all-ones, which only
  // disables the certificate that reads them, never falsifies it.
  t.reach_clusters.assign(idx(np), ~std::uint64_t{0});
  if (idx(instance_.num_processors()) <= 64) {
    for (const NodeId v : topo) {
      std::uint64_t mask = std::uint64_t{1} << idx(cluster_of_[idx(v)]);
      for (std::uint32_t a = pred_offset_[idx(v)]; a < pred_offset_[idx(v) + 1]; ++a) {
        mask |= t.reach_clusters[idx(pred_arcs_[a].pred)];
      }
      t.reach_clusters[idx(v)] = mask;
    }
  }

  // Downstream node-weight potential (one reverse pass over the successor
  // CSR): tail0[v] = max over successors of (weight(succ) + tail0[succ]).
  t.tail0.assign(idx(np), 0);
  for (std::size_t i = topo.size(); i-- > 0;) {
    const NodeId v = topo[i];
    Weight tail = 0;
    for (std::uint32_t s = t.succ_offset[idx(v)]; s < t.succ_offset[idx(v) + 1]; ++s) {
      const NodeId succ = t.succ_arcs[s].succ;
      tail = std::max(tail, node_weight_[idx(succ)] + t.tail0[idx(succ)]);
    }
    t.tail0[idx(v)] = tail;
  }

  // Per-cluster inter-cluster arc lists plus earliest member position —
  // the delta evaluator's seed scan touches exactly these arcs instead of
  // walking every member's adjacency.
  const NodeId nc = instance_.num_processors();
  t.cluster_min_pos.assign(idx(nc), static_cast<std::uint32_t>(idx(np)));
  for (NodeId v = 0; v < np; ++v) {
    std::uint32_t& mp = t.cluster_min_pos[idx(cluster_of_[idx(v)])];
    mp = std::min(mp, t.topo_pos[idx(v)]);
  }
  std::vector<std::vector<ClusterArc>> by_cluster(idx(nc));
  for (const TaskEdge& e : problem.edges()) {
    const NodeId cu = cluster_of_[idx(e.from)];
    const NodeId cv = cluster_of_[idx(e.to)];
    if (cu == cv) continue;
    const Weight cw = e.weight;  // inter-cluster: clustered weight == edge weight
    by_cluster[idx(cv)].push_back({e.to, t.topo_pos[idx(e.to)], cu, true, e.from, cw});
    by_cluster[idx(cu)].push_back({e.to, t.topo_pos[idx(e.to)], cv, false, e.from, cw});
  }
  // Within each cluster, group the arcs by (other_cluster, incoming) so
  // the delta engines can select whole groups off their per-cluster-pair
  // distance-change masks (one branch per pair instead of per arc).
  const std::size_t groups_per_cluster = 2 * idx(nc);
  t.cluster_pair_offset.assign(idx(nc) * groups_per_cluster + 1, 0);
  t.cluster_pair_min_pos.assign(idx(nc) * groups_per_cluster,
                                static_cast<std::uint32_t>(idx(np)));
  t.cluster_arc_offset.assign(idx(nc) + 1, 0);
  for (NodeId c = 0; c < nc; ++c) {
    t.cluster_arc_offset[idx(c)] = static_cast<std::uint32_t>(t.cluster_arcs.size());
    std::vector<ClusterArc>& list = by_cluster[idx(c)];
    std::stable_sort(list.begin(), list.end(),
                     [](const ClusterArc& a, const ClusterArc& b) {
                       if (a.other_cluster != b.other_cluster) {
                         return a.other_cluster < b.other_cluster;
                       }
                       return a.incoming < b.incoming;
                     });
    for (const ClusterArc& arc : list) {
      const std::size_t g = idx(c) * groups_per_cluster + idx(arc.other_cluster) * 2 +
                            (arc.incoming ? 1 : 0);
      t.cluster_pair_min_pos[g] = std::min(t.cluster_pair_min_pos[g], arc.head_pos);
    }
    // Group offsets: count per group, then prefix-sum over this cluster's
    // contiguous span (arcs are appended in sorted order right after).
    const std::uint32_t base = static_cast<std::uint32_t>(t.cluster_arcs.size());
    std::size_t cursor = 0;
    for (std::size_t g = 0; g < groups_per_cluster; ++g) {
      t.cluster_pair_offset[idx(c) * groups_per_cluster + g] =
          base + static_cast<std::uint32_t>(cursor);
      while (cursor < list.size()) {
        const ClusterArc& arc = list[cursor];
        const std::size_t ag = idx(arc.other_cluster) * 2 + (arc.incoming ? 1 : 0);
        if (ag != g) break;
        ++cursor;
      }
    }
    t.cluster_arcs.insert(t.cluster_arcs.end(), list.begin(), list.end());
  }
  t.cluster_arc_offset[idx(nc)] = static_cast<std::uint32_t>(t.cluster_arcs.size());
  t.cluster_pair_offset.back() = static_cast<std::uint32_t>(t.cluster_arcs.size());
}

std::span<const Weight> EvalEngine::ideal_tail() const {
  std::call_once(tail_once_, [&] {
    // One reverse pass over the predecessor CSR: in reverse topological
    // order every successor of v has already pushed its path into
    // tail[v], so tail[v] is final when v pushes to its predecessors.
    // pred_arcs_ carry the clustered weight (0 intra-cluster), i.e. one
    // hop per inter-cluster message — the ideal graph's cost.
    const std::vector<NodeId>& topo = instance_.topo_order();
    ideal_tail_.assign(topo.size(), 0);
    for (std::size_t i = topo.size(); i-- > 0;) {
      const NodeId v = topo[i];
      const Weight through_v = node_weight_[idx(v)] + ideal_tail_[idx(v)];
      for (std::uint32_t a = pred_offset_[idx(v)]; a < pred_offset_[idx(v) + 1]; ++a) {
        Weight& tail = ideal_tail_[idx(pred_arcs_[a].pred)];
        tail = std::max(tail, pred_arcs_[a].weight + through_v);
      }
    }
  });
  return ideal_tail_;
}

EvalEngine::~EvalEngine() = default;

void EvalEngine::adopt_topology(std::shared_ptr<const TopologyTables> tables) const {
  if (tables == nullptr || routing_ptr_ != nullptr) return;  // already built/adopted
  if (tables->ns != instance_.num_processors()) {
    throw std::invalid_argument(
        "adopt_topology: tables were built for a different machine size");
  }
  shared_tables_ = std::move(tables);
}

void EvalEngine::ensure_routing() const {
  std::call_once(routing_once_, [&] {
    if (shared_tables_) {
      // Shared tables (TopologyCache): byte-identical to a private build,
      // so adopters and self-builders issue identical claim sequences.
      routing_ptr_ = &shared_tables_->routing;
      route_offset_ptr_ = shared_tables_->route_offset.data();
      route_links_ptr_ = shared_tables_->route_links.data();
      return;
    }
    routing_ = std::make_unique<RoutingTable>(instance_.system());
    flatten_routes(*routing_, route_offset_, route_links_);
    routing_ptr_ = routing_.get();
    route_offset_ptr_ = route_offset_.data();
    route_links_ptr_ = route_links_.data();
  });
}

void EvalEngine::ensure_workspace(EvalWorkspace& ws, bool link_contention) const {
  const std::size_t np = idx(instance_.num_tasks());
  const std::size_t ns = idx(instance_.num_processors());
  if (ws.start.size() < np) ws.start.resize(np);
  if (ws.end.size() < np) ws.end.resize(np);
  if (ws.proc_free.size() < ns) ws.proc_free.resize(ns);
  if (link_contention && ws.link_free.size() < link_count()) {
    ws.link_free.resize(link_count());
  }
}

Weight EvalEngine::run_schedule(std::span<const NodeId> host_of, const EvalOptions& options,
                                EvalWorkspace& ws) const {
  const bool contention = options.link_contention;
  const bool serialize = options.serialize_within_processor;
  if (contention) ensure_routing();
  ensure_workspace(ws, contention);
  if (serialize) std::fill(ws.proc_free.begin(), ws.proc_free.end(), Weight{0});
  if (contention) std::fill(ws.link_free.begin(), ws.link_free.end(), Weight{0});

  const Matrix<Weight>& hops = instance_.hops();
  Weight* const start = ws.start.data();
  Weight* const end = ws.end.data();
  Weight* const proc_free = ws.proc_free.data();
  Weight* const link_free = ws.link_free.data();
  const PredArc* const arcs = pred_arcs_.data();

  Weight total = 0;
  for (const NodeId v : instance_.topo_order()) {
    const NodeId pv = host_of[idx(cluster_of_[idx(v)])];
    Weight st = 0;
    const std::uint32_t lo = pred_offset_[idx(v)];
    const std::uint32_t hi = pred_offset_[idx(v) + 1];
    for (std::uint32_t a = lo; a < hi; ++a) {
      const PredArc& arc = arcs[a];
      Weight arrival = end[idx(arc.pred)];
      if (arc.weight > 0) {
        const NodeId pp = host_of[idx(arc.pred_cluster)];
        if (contention) {
          // Store-and-forward along the pre-flattened route; each hop holds
          // its link exclusively for the message's full weight.
          for (const std::int32_t li : route_links(pp, pv)) {
            const Weight depart = std::max(arrival, link_free[static_cast<std::size_t>(li)]);
            arrival = depart + arc.weight;
            link_free[static_cast<std::size_t>(li)] = arrival;
          }
        } else {
          arrival += arc.weight * hops(idx(pp), idx(pv));
        }
      }
      st = std::max(st, arrival);
    }
    if (serialize) st = std::max(st, proc_free[idx(pv)]);
    start[idx(v)] = st;
    const Weight en = st + node_weight_[idx(v)];
    end[idx(v)] = en;
    if (serialize) proc_free[idx(pv)] = en;
    total = std::max(total, en);
  }
  return total;
}

Weight EvalEngine::trial_total_time(std::span<const NodeId> host_of, const EvalOptions& options,
                                    EvalWorkspace& ws) const {
  return run_schedule(host_of, options, ws);
}

Weight EvalEngine::run_schedule_verdict(std::span<const NodeId> host_of,
                                        const EvalOptions& options, EvalWorkspace& ws,
                                        Weight cutoff, const Weight* potential,
                                        bool* certified, std::size_t* scheduled,
                                        std::size_t start_pos) const {
  const bool contention = options.link_contention;
  const bool serialize = options.serialize_within_processor;
  if (contention) ensure_routing();
  ensure_workspace(ws, contention);
  if (start_pos == 0) {
    if (serialize) std::fill(ws.proc_free.begin(), ws.proc_free.end(), Weight{0});
    if (contention) std::fill(ws.link_free.begin(), ws.link_free.end(), Weight{0});
  }

  const Matrix<Weight>& hops = instance_.hops();
  Weight* const start = ws.start.data();
  Weight* const end = ws.end.data();
  Weight* const proc_free = ws.proc_free.data();
  Weight* const link_free = ws.link_free.data();
  const PredArc* const arcs = pred_arcs_.data();

  Weight total = 0;
  std::size_t done = 0;
  const std::vector<NodeId>& topo = instance_.topo_order();
  const std::size_t np = topo.size();
  for (std::size_t pos = start_pos; pos < np; ++pos) {
    const NodeId v = topo[pos];
    ++done;
    const NodeId pv = host_of[idx(cluster_of_[idx(v)])];
    Weight st = 0;
    const std::uint32_t lo = pred_offset_[idx(v)];
    const std::uint32_t hi = pred_offset_[idx(v) + 1];
    for (std::uint32_t a = lo; a < hi; ++a) {
      const PredArc& arc = arcs[a];
      Weight arrival = end[idx(arc.pred)];
      if (arc.weight > 0) {
        const NodeId pp = host_of[idx(arc.pred_cluster)];
        if (contention) {
          for (const std::int32_t li : route_links(pp, pv)) {
            const Weight depart = std::max(arrival, link_free[static_cast<std::size_t>(li)]);
            arrival = depart + arc.weight;
            link_free[static_cast<std::size_t>(li)] = arrival;
          }
        } else {
          arrival += arc.weight * hops(idx(pp), idx(pv));
        }
      }
      st = std::max(st, arrival);
    }
    if (serialize) st = std::max(st, proc_free[idx(pv)]);
    start[idx(v)] = st;
    const Weight en = st + node_weight_[idx(v)];
    end[idx(v)] = en;
    if (en + potential[idx(v)] >= cutoff) {
      // en is exact and the potential schedule-independent for this
      // trial, so the makespan is at least en + potential >= cutoff —
      // certified without the schedule tail.
      *certified = true;
      if (scheduled != nullptr) *scheduled += done;
      return en + potential[idx(v)];
    }
    if (serialize) proc_free[idx(pv)] = en;
    total = std::max(total, en);
  }
  *certified = false;
  if (scheduled != nullptr) *scheduled += done;
  // A suffix launch computes the max over the suffix only; the caller
  // folds in the untouched prefix's committed max.
  return total;
}

// The SoA batch kernel body. Every per-candidate value lives at
// [entity * W + lane], so the lane loops below read and write contiguous
// W-wide rows; with kCutoff == false the lane index is the loop counter
// itself and the loops vectorize. With kCutoff == true lanes are fetched
// through the live-lane list: a lane whose end plus the task's potential
// (null: 0) reaches the shared cutoff is swapped out and costs nothing
// from that task on (its state rows go stale, but no other lane ever reads
// them). Per-lane arithmetic is exactly the scalar kernel's — arcs in CSR
// order, hops in route order — so live lanes finish bit-identical to
// trial_total_time.
template <bool kSerialize, bool kContention, bool kCutoff>
void EvalEngine::soa_schedule(std::span<const std::vector<NodeId>> hosts, SoaWorkspace& ws,
                              std::span<Weight> totals, Weight cutoff,
                              const Weight* potential) const {
  const std::size_t W = hosts.size();
  const std::size_t np = idx(instance_.num_tasks());
  const std::size_t ns = idx(instance_.num_processors());

  if (ws.end.size() < np * W) ws.end.resize(np * W);
  if (ws.host.size() < ns * W) ws.host.resize(ns * W);
  for (std::size_t c = 0; c < ns; ++c) {
    NodeId* const row = ws.host.data() + c * W;
    for (std::size_t l = 0; l < W; ++l) row[l] = hosts[l][c];
  }
  if constexpr (kSerialize) ws.proc_free.assign(ns * W, Weight{0});
  if constexpr (kContention) ws.link_free.assign(link_count() * W, Weight{0});
  ws.total.assign(W, Weight{0});
  std::size_t nlive = W;
  std::uint32_t* lanes = nullptr;
  if constexpr (kCutoff) {
    ws.live.resize(W);
    lanes = ws.live.data();
    for (std::size_t l = 0; l < W; ++l) lanes[l] = static_cast<std::uint32_t>(l);
  }

  const Matrix<Weight>& hops = instance_.hops();
  Weight* const end = ws.end.data();
  const NodeId* const host = ws.host.data();
  Weight* const proc_free = ws.proc_free.data();
  Weight* const link_free = ws.link_free.data();
  Weight* const total = ws.total.data();
  const PredArc* const arcs = pred_arcs_.data();
  std::uint64_t lane_tasks = 0;  // added to soa_lane_tasks once per wave

  for (const NodeId v : instance_.topo_order()) {
    lane_tasks += nlive;
    const NodeId* const hv = host + idx(cluster_of_[idx(v)]) * W;
    Weight* const endv = end + idx(v) * W;  // start-time accumulator, then end
    for (std::size_t k = 0; k < nlive; ++k) {
      endv[kCutoff ? lanes[k] : k] = 0;
    }
    const std::uint32_t lo = pred_offset_[idx(v)];
    const std::uint32_t hi = pred_offset_[idx(v) + 1];
    for (std::uint32_t a = lo; a < hi; ++a) {
      const PredArc& arc = arcs[a];
      const Weight* const endp = end + idx(arc.pred) * W;
      if (arc.weight <= 0) {
        // Intra-cluster precedence: a pure max over two contiguous rows.
        for (std::size_t k = 0; k < nlive; ++k) {
          const std::size_t l = kCutoff ? lanes[k] : k;
          endv[l] = std::max(endv[l], endp[l]);
        }
        continue;
      }
      const NodeId* const hp = host + idx(arc.pred_cluster) * W;
      if constexpr (kContention) {
        for (std::size_t k = 0; k < nlive; ++k) {
          const std::size_t l = kCutoff ? lanes[k] : k;
          Weight arrival = endp[l];
          for (const std::int32_t li : route_links(hp[l], hv[l])) {
            Weight& free = link_free[static_cast<std::size_t>(li) * W + l];
            arrival = std::max(arrival, free) + arc.weight;
            free = arrival;
          }
          endv[l] = std::max(endv[l], arrival);
        }
      } else {
        for (std::size_t k = 0; k < nlive; ++k) {
          const std::size_t l = kCutoff ? lanes[k] : k;
          endv[l] = std::max(endv[l], endp[l] + arc.weight * hops(idx(hp[l]), idx(hv[l])));
        }
      }
    }
    const Weight nw = node_weight_[idx(v)];
    if constexpr (kSerialize) {
      for (std::size_t k = 0; k < nlive; ++k) {
        const std::size_t l = kCutoff ? lanes[k] : k;
        Weight& free = proc_free[idx(hv[l]) * W + l];
        const Weight en = std::max(endv[l], free) + nw;
        endv[l] = en;
        free = en;
        total[l] = std::max(total[l], en);
      }
    } else {
      for (std::size_t k = 0; k < nlive; ++k) {
        const std::size_t l = kCutoff ? lanes[k] : k;
        const Weight en = endv[l] + nw;
        endv[l] = en;
        total[l] = std::max(total[l], en);
      }
    }
    if constexpr (kCutoff) {
      // end(v) is final and the potential lower-bounds what every
      // candidate still needs after v, so a lane whose sum reaches the
      // cutoff is certified ">= incumbent" and drops out of every later
      // loop. Without a potential this is the first task whose end — and
      // so the running makespan — reaches the cutoff.
      const Weight pot = potential != nullptr ? potential[idx(v)] : 0;
      const Weight exit_at = cutoff - pot;
      for (std::size_t k = 0; k < nlive;) {
        const std::uint32_t l = lanes[k];
        if (endv[l] >= exit_at) {
          totals[l] = endv[l] + pot;
          lanes[k] = lanes[--nlive];
        } else {
          ++k;
        }
      }
      if (nlive == 0) break;
    }
  }
  for (std::size_t k = 0; k < nlive; ++k) {
    const std::size_t l = kCutoff ? lanes[k] : k;
    totals[l] = total[l];
  }
  soa_lane_tasks.add(lane_tasks);
  if constexpr (kCutoff) soa_cutoff_exits.add(W - nlive);
}

void EvalEngine::evaluate_batch_soa(std::span<const std::vector<NodeId>> hosts,
                                    const EvalOptions& options, SoaWorkspace& ws,
                                    std::span<Weight> totals, Weight cutoff,
                                    std::span<const Weight> potential) const {
  if (totals.size() < hosts.size()) {
    throw std::invalid_argument("evaluate_batch_soa: totals span too small");
  }
  const std::size_t ns = idx(instance_.num_processors());
  for (const std::vector<NodeId>& host : hosts) {
    if (host.size() != ns) {
      throw std::invalid_argument("evaluate_batch_soa: candidate host map has the wrong size");
    }
  }
  if (!potential.empty() && potential.size() != idx(instance_.num_tasks())) {
    throw std::invalid_argument("evaluate_batch_soa: potential must have one entry per task");
  }
  if (hosts.empty()) return;
  if (options.link_contention) ensure_routing();
  const Weight* const pot = potential.empty() ? nullptr : potential.data();
  const int mode = (options.serialize_within_processor ? 1 : 0) |
                   (options.link_contention ? 2 : 0) | (cutoff != kNoCutoff ? 4 : 0);
  switch (mode) {
    case 0: return soa_schedule<false, false, false>(hosts, ws, totals, cutoff, pot);
    case 1: return soa_schedule<true, false, false>(hosts, ws, totals, cutoff, pot);
    case 2: return soa_schedule<false, true, false>(hosts, ws, totals, cutoff, pot);
    case 3: return soa_schedule<true, true, false>(hosts, ws, totals, cutoff, pot);
    case 4: return soa_schedule<false, false, true>(hosts, ws, totals, cutoff, pot);
    case 5: return soa_schedule<true, false, true>(hosts, ws, totals, cutoff, pot);
    case 6: return soa_schedule<false, true, true>(hosts, ws, totals, cutoff, pot);
    default: return soa_schedule<true, true, true>(hosts, ws, totals, cutoff, pot);
  }
}

int EvalEngine::resolve_batch_width(int requested, const EvalOptions& options) const {
  // Hard cap on any resolved width: wave state is W * per-lane bytes, so an
  // absurd request (CLI typo, wild env var) must degrade to a big wave, not
  // a multi-terabyte allocation.
  constexpr int kMaxWidth = 4096;
  if (requested > 0) return std::min(requested, kMaxWidth);
  if (requested < 0) return 1;
  // MIMDMAP_EVAL_WIDTH=<N> forces the width; "auto" (the CI matrix's other
  // leg) or empty/unset defers to the footprint tuner below. Anything else
  // is ignored rather than trusted.
  if (const char* env = std::getenv("MIMDMAP_EVAL_WIDTH");
      env != nullptr && *env != '\0' && std::string_view(env) != "auto") {
    char* tail = nullptr;
    const long v = std::strtol(env, &tail, 10);
    if (tail != nullptr && *tail == '\0' && v > 0) {
      return static_cast<int>(std::min<long>(v, kMaxWidth));
    }
  }
  // Auto: fit one wave's per-lane state into a conservative cache budget
  // (small enough to leave L2 room for the CSR arcs and hops matrix the
  // walk streams alongside it). Per lane the wave keeps np end times, the
  // transposed host map, and the mode tables.
  std::size_t per_lane = idx(instance_.num_tasks()) * sizeof(Weight) +
                         idx(instance_.num_processors()) * sizeof(NodeId);
  if (options.serialize_within_processor) {
    per_lane += idx(instance_.num_processors()) * sizeof(Weight);
  }
  if (options.link_contention) {
    ensure_routing();
    per_lane += link_count() * sizeof(Weight);
  }
  constexpr std::size_t kCacheBudget = 256 * 1024;
  const std::size_t w = kCacheBudget / std::max<std::size_t>(1, per_lane);
  // Floor of 8: once a few lanes outgrow the budget, cache residency is
  // lost at any width, but one CSR stream per wave still serves every lane
  // and only a wave carries the incumbent cutoff (the scalar width-1 path
  // schedules every trial to the end). Width never changes results.
  return static_cast<int>(std::clamp<std::size_t>(w, 8, 32));
}

ScheduleResult EvalEngine::workspace_to_result(const EvalWorkspace& ws, Weight total) const {
  const std::size_t np = idx(instance_.num_tasks());
  ScheduleResult r;
  r.start.assign(ws.start.begin(), ws.start.begin() + static_cast<std::ptrdiff_t>(np));
  r.end.assign(ws.end.begin(), ws.end.begin() + static_cast<std::ptrdiff_t>(np));
  r.total_time = total;
  for (std::size_t v = 0; v < np; ++v) {
    if (r.end[v] == total) r.latest_tasks.push_back(node_id(v));
  }
  return r;
}

ScheduleResult EvalEngine::evaluate(const Assignment& assignment,
                                    const EvalOptions& options) const {
  if (assignment.size() != instance_.num_processors() || !assignment.complete()) {
    throw std::invalid_argument("evaluate: assignment is not a complete mapping of all clusters");
  }
  return evaluate(std::span<const NodeId>(assignment.host_of_vector()), options, caller_ws_);
}

ScheduleResult EvalEngine::evaluate(std::span<const NodeId> host_of, const EvalOptions& options,
                                    EvalWorkspace& ws) const {
  const Weight total = run_schedule(host_of, options, ws);
  return workspace_to_result(ws, total);
}

void EvalEngine::for_each_parallel(
    std::size_t count, int num_threads,
    const std::function<void(std::size_t, EvalWorkspace&)>& fn) const {
  // Clamp to the batch size and to the pool's lane budget: lanes beyond
  // count would spawn (or wake) workers with nothing to do, and lanes
  // beyond the budget only add scheduler churn.
  num_threads = std::min(num_threads, pool_->lane_limit());
  if (count < static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    num_threads = std::min(num_threads, static_cast<int>(count));
  }
  if (num_threads < 2 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) fn(i, caller_ws_);
    return;
  }
  // Lane workspaces are (re)sized before the chunk is posted, so workers
  // only ever see stable storage.
  const std::size_t lanes = static_cast<std::size_t>(num_threads);
  if (lane_ws_.size() < lanes - 1) lane_ws_.resize(lanes - 1);
  pool_->run_chunk(count, static_cast<int>(lanes), [&](std::size_t i, int lane) {
    fn(i, lane == 0 ? caller_ws_ : lane_ws_[static_cast<std::size_t>(lane - 1)]);
  });
}

int EvalEngine::pool_thread_count() const noexcept { return pool_->thread_count(); }

int EvalEngine::resolve_num_threads(int requested, const EvalOptions& options) const {
  if (requested != 0) return requested;
  const int lanes = pool_->lane_limit();
  if (lanes < 2) return 1;

  const std::lock_guard<std::mutex> lock(calib_mutex_);
  const int mode = (options.serialize_within_processor ? 1 : 0) |
                   (options.link_contention ? 2 : 0);
  if (auto_threads_[mode] > 0) return auto_threads_[mode];

  using clock = std::chrono::steady_clock;
  if (options.link_contention) ensure_routing();

  // Per-trial cost: a handful of warm-up trials on the caller workspace
  // (identity host map — representative, and always a valid cluster ->
  // processor map), minimum over a few timed batches.
  std::vector<NodeId> host(idx(instance_.num_processors()));
  std::iota(host.begin(), host.end(), NodeId{0});
  for (int i = 0; i < 2; ++i) (void)trial_total_time(host, options, caller_ws_);
  double trial_ns = std::numeric_limits<double>::max();
  for (int rep = 0; rep < 4; ++rep) {
    const auto t0 = clock::now();
    for (int i = 0; i < 4; ++i) (void)trial_total_time(host, options, caller_ws_);
    const auto dt = std::chrono::duration<double, std::nano>(clock::now() - t0).count();
    trial_ns = std::min(trial_ns, dt / 4.0);
  }

  // Chunk-sync overhead of one pool dispatch: measured once per *pool*
  // (process-wide cache), so batch submission of many small instances
  // doesn't re-pay the measurement per engine.
  const double sync_overhead_ns = pool_->chunk_sync_overhead_ns();

  // A refinement chunk hands 4 * lanes trials to the pool, so the extra
  // lanes save roughly 4 * (lanes - 1) trials of wall clock per dispatch;
  // below that the sync overhead eats the gain and sequential wins
  // (DESIGN.md 9.4).
  const bool parallel_pays = trial_ns * 4.0 * static_cast<double>(lanes - 1) > sync_overhead_ns;
  auto_threads_[mode] = parallel_pays ? lanes : 1;
  return auto_threads_[mode];
}

void EvalEngine::batch_total_times(std::span<const std::vector<NodeId>> hosts,
                                   const EvalOptions& options, int num_threads,
                                   std::span<Weight> totals) const {
  batch_total_times(hosts, options, num_threads, /*width=*/0, totals, kNoCutoff);
}

void EvalEngine::batch_total_times(std::span<const std::vector<NodeId>> hosts,
                                   const EvalOptions& options, int num_threads, int width,
                                   std::span<Weight> totals, Weight cutoff,
                                   std::span<const Weight> potential,
                                   const CancelToken& cancel) const {
  if (totals.size() < hosts.size()) {
    throw std::invalid_argument("batch_total_times: totals span too small");
  }
  // All validation happens here, on the calling thread: waves dispatched to
  // pool workers must not throw (ThreadPool contract), so a bad candidate
  // has to be rejected before anything is posted.
  const std::size_t ns = idx(instance_.num_processors());
  for (const std::vector<NodeId>& host : hosts) {
    if (host.size() != ns) {
      throw std::invalid_argument("batch_total_times: candidate host map has the wrong size");
    }
  }
  if (!potential.empty() && potential.size() != idx(instance_.num_tasks())) {
    throw std::invalid_argument("batch_total_times: potential must have one entry per task");
  }
  num_threads = resolve_num_threads(num_threads, options);
  // Contention tables are built once up front so pooled lanes never race on
  // first use (call_once would serialise them anyway; this keeps the lanes'
  // first trials warm).
  if (options.link_contention) ensure_routing();
  width = resolve_batch_width(width, options);
  if (width <= 1) {
    // Scalar fallback path (width 1 / MIMDMAP_EVAL_WIDTH=1): one trial per
    // work item on the streaming kernel, exact totals even past the cutoff
    // (cutoff and potential are not read).
    // A tripped cancel token turns the remaining trials into kNoCutoff
    // sentinels ("cannot beat any incumbent") instead of scheduling them.
    for_each_parallel(hosts.size(), num_threads, [&](std::size_t i, EvalWorkspace& ws) {
      totals[i] =
          cancel.signalled() ? kNoCutoff : trial_total_time(hosts[i], options, ws);
    });
    return;
  }
  // SoA waves: each work item scores one wave of up to `width` candidates
  // in a single topo walk (the tail wave is ragged). Waves are disjoint
  // index ranges, so any lane assignment writes the same totals.
  const auto wave = static_cast<std::size_t>(width);
  const std::size_t waves = (hosts.size() + wave - 1) / wave;
  const auto run_wave = [&](std::size_t w, SoaWorkspace& ws) {
    const std::size_t begin = w * wave;
    const std::size_t count = std::min(wave, hosts.size() - begin);
    const obs::Span span("soa_wave", "eval", "width", static_cast<std::int64_t>(count));
    if (cancel.signalled()) {
      // Cancellation latency bound: a signal lands within one wave — waves
      // that have not started yet report the reject sentinel instead of
      // evaluating.
      std::fill_n(totals.begin() + static_cast<std::ptrdiff_t>(begin), count, kNoCutoff);
      return;
    }
    evaluate_batch_soa(hosts.subspan(begin, count), options, ws,
                       totals.subspan(begin, count), cutoff, potential);
  };
  int lanes = std::min(num_threads, pool_->lane_limit());
  if (waves < static_cast<std::size_t>(std::numeric_limits<int>::max())) {
    lanes = std::min(lanes, static_cast<int>(waves));
  }
  if (lanes < 2 || waves < 2) {
    for (std::size_t w = 0; w < waves; ++w) run_wave(w, caller_soa_);
    return;
  }
  if (lane_soa_.size() < static_cast<std::size_t>(lanes) - 1) {
    lane_soa_.resize(static_cast<std::size_t>(lanes) - 1);
  }
  pool_->run_chunk(waves, lanes, [&](std::size_t w, int lane) {
    run_wave(w, lane == 0 ? caller_soa_ : lane_soa_[static_cast<std::size_t>(lane - 1)]);
  });
}

DeltaEval EvalEngine::begin_delta(const Assignment& committed, const EvalOptions& options,
                                  const DeltaOptions& delta_options) const {
  if (committed.size() != instance_.num_processors() || !committed.complete()) {
    throw std::invalid_argument("begin_delta: assignment is not a complete mapping");
  }
  return begin_delta(std::span<const NodeId>(committed.host_of_vector()), options,
                     delta_options);
}

DeltaEval EvalEngine::begin_delta(std::span<const NodeId> host_of, const EvalOptions& options,
                                  const DeltaOptions& delta_options) const {
  return DeltaEval(*this, host_of, options, delta_options);
}

}  // namespace mimdmap
