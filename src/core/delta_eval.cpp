// DeltaEval: incremental suffix rescheduling for local-move search loops.
//
// See the class comment in core/eval_engine.hpp for the design. The
// invariants this file maintains:
//
//  * start_/end_/committed_total_ are always bit-identical to what
//    evaluate_reference() produces for the committed host map — commits
//    fold in trial values computed with the exact full-kernel arithmetic,
//    or (after a fallback) copy the full kernel's own output;
//  * during a trial, host_ temporarily holds the *trial* hosts (restored
//    before try_* returns); committed hosts of the <= 2 moved clusters are
//    recoverable through committed_host_during_trial();
//  * every epoch-stamped scratch array is invalidated wholesale by bumping
//    epoch_, and the plain-mode dirty bitmask is self-cleaning (all-zero
//    between trials), so steady-state trials never touch the allocator;
//  * the per-mode dirty analysis is conservative, never tight: a task is
//    recomputed when (a) it is seeded (an inter-cluster arc of its own
//    changed cost or route) or a predecessor's end time changed, (b) in
//    serialize mode its processor carries a dirty flag, or (c) in
//    contention mode an earlier claim on one of its committed links
//    diverged. Clean tasks keep their committed values verbatim.
//
// Two engine generations share this file (DeltaOptions::version /
// MIMDMAP_DELTA_MODE). Version 1 is the PR 2 suffix rescheduler, retained
// verbatim as the oracle fallback. Version 2 (default; DESIGN.md 13) adds:
//
//  * δ-shift markers (plain + serialize): a recomputed task whose end
//    moved pushes each successor's *trial arrival* into a per-task marker
//    accumulator at mark time. A popped task that was never seeded and
//    whose marker max reaches its committed start (or that heard from
//    every predecessor) is exactly the "suffix shifted by δ" case of
//    DESIGN.md 10.3 — its new start IS the marker max, closed in O(1)
//    with no in-arc rescan. Max-merge points where the shifted frontier
//    meets a possibly-dominant clean frontier (marker max below the
//    committed start) are materialized exactly by the ordinary rescan, so
//    ties are handled bit-exactly.
//  * verdict trials: with a cutoff, every end time finalized by the scan
//    is a lower bound on the trial total, so the trial stops the moment
//    one reaches the cutoff ("cannot beat the incumbent" — certified, not
//    heuristic). Verdict trials never fall back mid-scan.
//  * link-bucketed claims (contention): committed claims are bucketed per
//    link; when a claim diverges (or evaporates on a re-routed arc) the
//    link records its live busy-until time and marks exactly its later
//    committed claimants dirty. Clean positions then cost O(1) — no
//    per-claim link checks, no claim replay — and dirty tasks read clean
//    links' committed state straight out of the buckets, which also
//    removes v1's O(prefix) claim replay before the scan anchor.
#include <algorithm>
#include <bit>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "core/eval_engine.hpp"

namespace mimdmap {

namespace {

/// DeltaOptions::version == 0 resolves through MIMDMAP_DELTA_MODE
/// ("v1"/"1" keeps the PR 2 engine as oracle, "v2"/"2" the default).
int resolve_delta_version(int requested) {
  if (requested == 1 || requested == 2) return requested;
  if (const char* env = std::getenv("MIMDMAP_DELTA_MODE"); env != nullptr && *env != '\0') {
    const std::string_view v(env);
    if (v == "v1" || v == "1") return 1;
    if (v == "v2" || v == "2") return 2;
  }
  return 2;
}

/// Resolves DeltaOptions::potential_cache_slots / potential_cache_max_np.
/// -1 defers to MIMDMAP_DELTA_CACHE: "off" (cache disabled), "<slots>" or
/// "<slots>,<max_np>" (max_np 0 = no ceiling); malformed values are
/// ignored rather than trusted. Defaults: 64 slots, 100000 ceiling.
struct DeltaCacheConfig {
  std::size_t slots = 64;
  std::size_t max_np = 100000;
};

DeltaCacheConfig resolve_delta_cache(int slots, std::int64_t max_np) {
  DeltaCacheConfig cfg;
  bool env_parsed = false;
  DeltaCacheConfig env_cfg;
  if (slots < 0 || max_np < 0) {
    if (const char* env = std::getenv("MIMDMAP_DELTA_CACHE");
        env != nullptr && *env != '\0') {
      const std::string_view v(env);
      if (v == "off") {
        env_cfg.slots = 0;
        env_parsed = true;
      } else {
        char* tail = nullptr;
        const long s = std::strtol(env, &tail, 10);
        if (tail != nullptr && s >= 0) {
          if (*tail == '\0') {
            env_cfg.slots = static_cast<std::size_t>(s);
            env_parsed = true;
          } else if (*tail == ',') {
            char* tail2 = nullptr;
            const long m = std::strtol(tail + 1, &tail2, 10);
            if (tail2 != nullptr && *tail2 == '\0' && m >= 0) {
              env_cfg.slots = static_cast<std::size_t>(s);
              env_cfg.max_np = static_cast<std::size_t>(m);
              env_parsed = true;
            }
          }
        }
      }
    }
  }
  if (slots >= 0) {
    cfg.slots = static_cast<std::size_t>(slots);
  } else if (env_parsed) {
    cfg.slots = env_cfg.slots;
  }
  if (max_np >= 0) {
    cfg.max_np = static_cast<std::size_t>(max_np);
  } else if (env_parsed) {
    cfg.max_np = env_cfg.max_np;
  }
  return cfg;
}

}  // namespace

DeltaEval::DeltaEval(const EvalEngine& engine, std::span<const NodeId> host_of,
                     const EvalOptions& options, const DeltaOptions& delta_options)
    : engine_(&engine),
      tables_(&engine.delta_tables()),
      options_(options),
      dopt_(delta_options),
      version_(resolve_delta_version(delta_options.version)),
      np_(idx(engine.instance().num_tasks())),
      ns_(idx(engine.instance().num_processors())) {
  if (host_of.size() != ns_) {
    throw std::invalid_argument("begin_delta: host map has the wrong size");
  }
  for (const NodeId p : host_of) {
    if (p < 0 || idx(p) >= ns_) {
      throw std::invalid_argument("begin_delta: host map is incomplete");
    }
  }
  const DeltaCacheConfig cache = resolve_delta_cache(delta_options.potential_cache_slots,
                                                     delta_options.potential_cache_max_np);
  cache_slots_ = cache.slots;
  cache_max_np_ = cache.max_np;
  host_.assign(host_of.begin(), host_of.end());
  if (options_.link_contention) engine_->ensure_routing();

  dirty_bits_.assign((np_ + 63) / 64, 0);
  dirty_stamp_.assign(np_, 0);
  trial_start_.assign(np_, 0);
  trial_end_.assign(np_, 0);
  proc_dirty_stamp_.assign(ns_, 0);
  proc_free_.assign(ns_, 0);
  if (options_.link_contention) {
    link_dirty_stamp_.assign(engine_->link_count(), 0);
    link_free_.assign(engine_->link_count(), 0);
  }
  if (version_ == 2) {
    marker_stamp_.assign(np_, 0);
    marker_max_.assign(np_, 0);
    marker_count_.assign(np_, 0);
  }
  touched_.reserve(np_);
  touched_old_end_.reserve(np_);
  in_changed_.assign(2 * ns_, 0);
  out_changed_.assign(2 * ns_, 0);

  // Committed schedule: one full-kernel pass, then the auxiliary tables
  // (the claims replay in rebuild_committed_aux needs link_free_ sized).
  EvalWorkspace ws;
  committed_total_ = engine_->run_schedule(host_, options_, ws);
  start_.assign(ws.start.begin(), ws.start.begin() + static_cast<std::ptrdiff_t>(np_));
  end_.assign(ws.end.begin(), ws.end.begin() + static_cast<std::ptrdiff_t>(np_));
  prefix_max_end_.assign(np_ + 1, 0);
  claim_pos_offset_.assign(options_.link_contention ? np_ + 1 : 0, 0);
  rebuild_committed_aux();
}

void DeltaEval::rebuild_committed_aux() {
  const std::vector<NodeId>& topo = engine_->instance_.topo_order();
  Weight total = 0;
  for (std::size_t i = 0; i < np_; ++i) {
    prefix_max_end_[i] = total;
    total = std::max(total, end_[idx(topo[i])]);
  }
  prefix_max_end_[np_] = total;
  if (version_ == 2) {
    prefix_max_bound_.resize(np_ + 1);
    Weight bound = 0;
    for (std::size_t i = 0; i < np_; ++i) {
      prefix_max_bound_[i] = bound;
      bound = std::max(bound, end_[idx(topo[i])] + tables_->tail0[idx(topo[i])]);
    }
    prefix_max_bound_[np_] = bound;
    // Ancestor-cluster masks of the committed makespan holders (plain-mode
    // untouched-holder certificate; a handful is plenty — any untouched
    // one certifies). Disabled beyond 64 clusters: the engine's masks are
    // degenerate all-ones there, and a mover whose id cannot be
    // represented in the 64-bit moved mask would otherwise slip through
    // the intersection test and certify falsely.
    holder_reach_.clear();
    if (!options_.serialize_within_processor && !options_.link_contention && ns_ <= 64) {
      for (std::size_t v = 0; v < np_ && holder_reach_.size() < 8; ++v) {
        if (end_[v] == total) holder_reach_.push_back(tables_->reach_clusters[v]);
      }
    }
    // Committed proc_free checkpoints every 64 positions (anchored
    // verdict-kernel launches replay at most 63 positions of prefix).
    if (options_.serialize_within_processor) {
      const std::size_t nck = np_ / 64 + 1;
      proc_ckpt_.assign(nck * ns_, 0);
      std::vector<Weight> run(ns_, 0);
      for (std::size_t pos = 0; pos < np_; ++pos) {
        if (pos % 64 == 0) {
          std::copy(run.begin(), run.end(),
                    proc_ckpt_.begin() + static_cast<std::ptrdiff_t>((pos / 64) * ns_));
        }
        const NodeId v = topo[pos];
        Weight& free = run[idx(host_[idx(engine_->cluster_of_[idx(v)])])];
        free = std::max(free, end_[idx(v)]);
      }
    }
  }
  committed_total_ = total;
  count_at_max_ = 0;
  for (std::size_t v = 0; v < np_; ++v) {
    if (end_[v] == total) ++count_at_max_;
  }

  if (!options_.link_contention) return;
  // Replay every message's link claims in kernel order (receivers in
  // topological order, arcs in edge-insertion order, hops along the fixed
  // route) so a clean message can later be replayed as stored (link, value)
  // pairs without redoing the max/add chain.
  claim_links_.clear();
  claim_values_.clear();
  claim_senders_.clear();
  claim_weights_.clear();
  std::fill(link_free_.begin(), link_free_.end(), Weight{0});
  const EvalEngine::PredArc* const arcs = engine_->pred_arcs_.data();
  if (version_ == 2) {
    link_ckpt_.assign((np_ / 64 + 1) * link_free_.size(), 0);
  }
  for (std::size_t pos = 0; pos < np_; ++pos) {
    if (version_ == 2 && pos % 64 == 0) {
      // Committed link_free checkpoint (see proc_ckpt_ above).
      std::copy(link_free_.begin(), link_free_.end(),
                link_ckpt_.begin() +
                    static_cast<std::ptrdiff_t>((pos / 64) * link_free_.size()));
    }
    claim_pos_offset_[pos] = static_cast<std::uint32_t>(claim_links_.size());
    const NodeId v = topo[pos];
    const NodeId pv = host_[idx(engine_->cluster_of_[idx(v)])];
    const std::uint32_t lo = engine_->pred_offset_[idx(v)];
    const std::uint32_t hi = engine_->pred_offset_[idx(v) + 1];
    for (std::uint32_t a = lo; a < hi; ++a) {
      const EvalEngine::PredArc& arc = arcs[a];
      if (arc.weight <= 0) continue;
      const NodeId pp = host_[idx(arc.pred_cluster)];
      Weight arrival = end_[idx(arc.pred)];
      for (const std::int32_t li : engine_->route_links(pp, pv)) {
        const Weight depart = std::max(arrival, link_free_[static_cast<std::size_t>(li)]);
        arrival = depart + arc.weight;
        link_free_[static_cast<std::size_t>(li)] = arrival;
        claim_links_.push_back(li);
        claim_values_.push_back(arrival);
        if (version_ == 2) {
          claim_senders_.push_back(arc.pred);
          claim_weights_.push_back(arc.weight);
        }
      }
    }
  }
  claim_pos_offset_[np_] = static_cast<std::uint32_t>(claim_links_.size());

  if (version_ != 2) return;
  // v2: the same claims bucketed by link, in claim-stream order, plus the
  // claim -> bucket-rank map. The entry at rank - 1 is the link's
  // committed busy-until time right before a claim — the state a dirty
  // task reads for a still-clean link without any replay.
  const std::size_t links = link_free_.size();
  const std::size_t n_claims = claim_links_.size();
  bucket_offset_.assign(links + 1, 0);
  for (const std::int32_t li : claim_links_) {
    ++bucket_offset_[static_cast<std::size_t>(li) + 1];
  }
  for (std::size_t l = 0; l < links; ++l) bucket_offset_[l + 1] += bucket_offset_[l];
  bucket_pos_.resize(n_claims);
  bucket_value_.resize(n_claims);
  bucket_claim_.resize(n_claims);
  claim_bucket_rank_.resize(n_claims);
  std::vector<std::uint32_t> fill(bucket_offset_.begin(), bucket_offset_.end() - 1);
  for (std::size_t pos = 0; pos < np_; ++pos) {
    for (std::uint32_t k = claim_pos_offset_[pos]; k < claim_pos_offset_[pos + 1]; ++k) {
      const auto li = static_cast<std::size_t>(claim_links_[k]);
      const std::uint32_t e = fill[li]++;
      bucket_pos_[e] = static_cast<std::uint32_t>(pos);
      bucket_value_[e] = claim_values_[k];
      bucket_claim_[e] = k;
      claim_bucket_rank_[k] = e - bucket_offset_[li];
    }
  }
}

void DeltaEval::apply_pending_hosts() {
  for (int i = 0; i < moved_count_; ++i) {
    host_[idx(moved_clusters_[i])] = moved_new_hosts_[i];
  }
}

void DeltaEval::restore_committed_hosts() {
  for (int i = 0; i < moved_count_; ++i) {
    host_[idx(moved_clusters_[i])] = moved_old_hosts_[i];
  }
}

Weight DeltaEval::try_move(NodeId cluster, NodeId processor, Weight cutoff) {
  if (cluster < 0 || idx(cluster) >= ns_ || processor < 0 || idx(processor) >= ns_) {
    throw std::invalid_argument("try_move: cluster or processor out of range");
  }
  ++stats_.trials;
  if (host_[idx(cluster)] == processor) {
    // No-op move: the committed schedule is the trial schedule.
    pending_ = Pending::kDelta;
    verdict_exit_ = false;
    moved_count_ = 0;
    moved_clusters_[0] = moved_clusters_[1] = -1;
    pending_total_ = committed_total_;
    touched_.clear();
    ++epoch_;
    ++stats_.delta_trials;
    return committed_total_;
  }
  moved_count_ = 1;
  moved_clusters_[0] = cluster;
  moved_clusters_[1] = -1;
  moved_old_hosts_[0] = host_[idx(cluster)];
  moved_new_hosts_[0] = processor;
  return run_trial(cutoff);
}

Weight DeltaEval::try_swap(NodeId c1, NodeId c2, Weight cutoff) {
  if (c1 < 0 || idx(c1) >= ns_ || c2 < 0 || idx(c2) >= ns_) {
    throw std::invalid_argument("try_swap: cluster out of range");
  }
  if (c1 == c2 || host_[idx(c1)] == host_[idx(c2)]) {
    return try_move(c1, host_[idx(c1)], cutoff);
  }
  ++stats_.trials;
  moved_count_ = 2;
  moved_clusters_[0] = c1;
  moved_clusters_[1] = c2;
  moved_old_hosts_[0] = host_[idx(c1)];
  moved_old_hosts_[1] = host_[idx(c2)];
  moved_new_hosts_[0] = moved_old_hosts_[1];
  moved_new_hosts_[1] = moved_old_hosts_[0];
  return run_trial(cutoff);
}

Weight DeltaEval::run_full_trial() {
  ++stats_.full_fallbacks;
  full_start_pos_ = 0;
  // host_ already holds the trial hosts; the kernel writes the complete
  // trial schedule into full_ws_, which commit() can adopt wholesale.
  // run_trial() rolls back the in-place end_ writes and host_.
  pending_total_ = engine_->run_schedule(host_, options_, full_ws_);
  pending_ = Pending::kFull;
  return pending_total_;
}

Weight DeltaEval::run_verdict_full_trial() {
  // Anchored launch: nothing before scan_anchor_ can change in any mode,
  // so seed the workspace with the committed prefix (full start/end copy —
  // suffix slots are overwritten before any read — plus the running
  // proc/link state from the nearest <=63-position checkpoint) and only
  // schedule the suffix.
  const std::size_t start_pos = scan_anchor_;
  const bool serialize = options_.serialize_within_processor;
  const bool contention = options_.link_contention;
  full_start_pos_ = start_pos;
  if (start_pos > 0) {
    engine_->ensure_workspace(full_ws_, contention);
    // The kernel reads committed end times of prefix predecessors; starts
    // are write-only, so commit() merges the prefix from the committed
    // arrays instead of copying them here.
    std::copy_n(end_.begin(), np_, full_ws_.end.begin());
    const std::vector<NodeId>& topo = engine_->instance_.topo_order();
    if (serialize) {
      const std::size_t ck = start_pos / 64;
      std::copy_n(proc_ckpt_.begin() + static_cast<std::ptrdiff_t>(ck * ns_), ns_,
                  full_ws_.proc_free.begin());
      for (std::size_t pos = ck * 64; pos < start_pos; ++pos) {
        const NodeId v = topo[pos];
        Weight& free = full_ws_.proc_free[idx(host_[idx(engine_->cluster_of_[idx(v)])])];
        free = std::max(free, end_[idx(v)]);
      }
    }
    if (contention) {
      const std::size_t links = link_free_.size();
      const std::size_t ck = start_pos / 64;
      std::copy_n(link_ckpt_.begin() + static_cast<std::ptrdiff_t>(ck * links), links,
                  full_ws_.link_free.begin());
      for (std::uint32_t k = claim_pos_offset_[ck * 64]; k < claim_pos_offset_[start_pos];
           ++k) {
        full_ws_.link_free[static_cast<std::size_t>(claim_links_[k])] = claim_values_[k];
      }
    }
  }
  bool certified = false;
  std::size_t scheduled = 0;
  Weight t = engine_->run_schedule_verdict(host_, options_, full_ws_, trial_cutoff_,
                                           trial_potential_, &certified, &scheduled,
                                           start_pos);
  stats_.positions_scanned += static_cast<std::int64_t>(scheduled);
  if (!certified) {
    // Ran to completion: an exact, committable trial. The suffix launch
    // returns the suffix max; the untouched prefix's committed max folds
    // the rest in exactly.
    t = std::max(t, prefix_max_end_[start_pos]);
    ++stats_.full_fallbacks;
    pending_total_ = t;
    pending_ = Pending::kFull;
    return t;
  }
  verdict_exit_ = true;  // run_trial's tail books the verdict
  return t;
}

std::size_t DeltaEval::seed_dirty() {
  // Per-arc seeding over the engine's precomputed per-cluster boundary-arc
  // lists: an arc's cost term changes only when the hop distance between
  // its endpoints' hosts differs between the committed and the trial
  // placement — under link contention any inter-cluster arc of a moved
  // cluster counts, since the message's *route* changes even at equal hop
  // distance. Whether a distance changed depends only on the (moved
  // cluster, other cluster, direction) triple, so those <= 2 * ns compares
  // are hoisted out of the arc loop into two masks per moved cluster; on
  // distance-regular interconnects (star, complete) most trials resolve to
  // empty masks and never touch an arc. host_ already holds the trial
  // hosts.
  const bool contention = options_.link_contention;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const EvalEngine::ClusterArc* const carcs = tables_->cluster_arcs.data();
  const bool plain_bits = !options_.serialize_within_processor && !contention;

  std::size_t min_pos = np_;
  seed_count_ = 0;
  for (int m = 0; m < moved_count_; ++m) {
    const NodeId c = moved_clusters_[m];
    const NodeId old_pv = moved_old_hosts_[m];
    const NodeId new_pv = moved_new_hosts_[m];
    // In serialize mode the processor task-sets change at every member's
    // position, so the scan must anchor no later than the first member
    // even when no arc cost changes.
    if (options_.serialize_within_processor) {
      min_pos = std::min(min_pos,
                         static_cast<std::size_t>(tables_->cluster_min_pos[idx(c)]));
    }

    const std::uint32_t lo = tables_->cluster_arc_offset[idx(c)];
    const std::uint32_t hi = tables_->cluster_arc_offset[idx(c) + 1];
    bool any_changed = hi > lo;  // contention: any boundary arc reroutes
    if (!contention) {
      any_changed = false;
      const std::size_t base = static_cast<std::size_t>(m) * ns_;
      for (NodeId oc = 0; oc < node_id(ns_); ++oc) {
        const NodeId o_old = committed_host_during_trial(oc);
        const NodeId o_new = host_[idx(oc)];
        const bool in_ch = hops(idx(o_old), idx(old_pv)) != hops(idx(o_new), idx(new_pv));
        const bool out_ch = hops(idx(old_pv), idx(o_old)) != hops(idx(new_pv), idx(o_new));
        in_changed_[base + idx(oc)] = in_ch;
        out_changed_[base + idx(oc)] = out_ch;
        any_changed |= in_ch | out_ch;
      }
    }
    if (!any_changed) continue;
    if (conservative_ && trial_cutoff_ == kNoCutoff) {
      // Adaptive guard: this instance's moves have been cascading into
      // full-kernel fallbacks, so don't bother seeding — any distance
      // change goes straight to the full kernel (zero-dirt trials above
      // still short-circuit for free). Verdict trials are exempt: their
      // cost is bounded by the verdict exit, not the fallback.
      seed_count_ = np_;
      return 0;
    }
    for (std::uint32_t a = lo; a < hi; ++a) {
      const EvalEngine::ClusterArc& arc = carcs[a];
      if (!contention &&
          !(arc.incoming
                ? in_changed_[static_cast<std::size_t>(m) * ns_ + idx(arc.other_cluster)]
                : out_changed_[static_cast<std::size_t>(m) * ns_ + idx(arc.other_cluster)])) {
        continue;
      }
      const std::size_t pos = arc.head_pos;
      if (plain_bits) {
        const std::uint64_t bit = std::uint64_t{1} << (pos & 63);
        std::uint64_t& word = dirty_bits_[pos >> 6];
        seed_count_ += (word & bit) == 0;
        word |= bit;
        // v2 distinguishes seeded tasks (changed in-arc cost: must rescan
        // their in-arcs) from marker-reached tasks (may close via the
        // δ-shift rule).
        if (version_ == 2) dirty_stamp_[idx(arc.head)] = epoch_;
      } else {
        seed_count_ += dirty_stamp_[idx(arc.head)] != epoch_;
        dirty_stamp_[idx(arc.head)] = epoch_;
      }
      min_pos = std::min(min_pos, pos);
    }
  }
  return min_pos;
}

std::size_t DeltaEval::collect_probe_groups() {
  // seed_dirty's per-arc analysis at group granularity, collecting instead
  // of marking: the common cutoff-trial outcome is a probe verdict, which
  // then leaves no dirty state to clean up and pays no marking stores.
  // Whether an arc's cost changed depends only on its (moved cluster,
  // other cluster, direction) triple, which is exactly the engine's group
  // key — so group selection needs one mask branch per pair.
  const bool contention = options_.link_contention;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const std::uint32_t* const pair_off = tables_->cluster_pair_offset.data();
  const std::uint32_t* const pair_min = tables_->cluster_pair_min_pos.data();
  const std::size_t gpc = 2 * ns_;  // groups per cluster

  probe_groups_.clear();
  std::size_t min_pos = np_;
  for (int m = 0; m < moved_count_; ++m) {
    const NodeId c = moved_clusters_[m];
    const NodeId old_pv = moved_old_hosts_[m];
    const NodeId new_pv = moved_new_hosts_[m];
    if (options_.serialize_within_processor) {
      min_pos = std::min(min_pos,
                         static_cast<std::size_t>(tables_->cluster_min_pos[idx(c)]));
    }
    for (NodeId oc = 0; oc < node_id(ns_); ++oc) {
      bool in_ch = true;   // contention: every boundary arc reroutes
      bool out_ch = true;
      if (!contention) {
        const NodeId o_old = committed_host_during_trial(oc);
        const NodeId o_new = host_[idx(oc)];
        in_ch = hops(idx(o_old), idx(old_pv)) != hops(idx(o_new), idx(new_pv));
        out_ch = hops(idx(old_pv), idx(o_old)) != hops(idx(new_pv), idx(o_new));
      }
      if (!in_ch && !out_ch) continue;
      const std::size_t gbase = idx(c) * gpc + idx(oc) * 2;
      // incoming groups carry the in-mask, outgoing the out-mask.
      if (out_ch && pair_off[gbase] != pair_off[gbase + 1]) {
        probe_groups_.push_back(static_cast<std::uint32_t>(gbase));
        min_pos = std::min(min_pos, static_cast<std::size_t>(pair_min[gbase]));
      }
      if (in_ch && pair_off[gbase + 1] != pair_off[gbase + 2]) {
        probe_groups_.push_back(static_cast<std::uint32_t>(gbase + 1));
        min_pos = std::min(min_pos, static_cast<std::size_t>(pair_min[gbase + 1]));
      }
    }
  }
  return min_pos;
}

void DeltaEval::seed_from_collected() {
  const bool plain_bits = !options_.serialize_within_processor && !options_.link_contention;
  const std::uint32_t* const pair_off = tables_->cluster_pair_offset.data();
  const EvalEngine::ClusterArc* const carcs = tables_->cluster_arcs.data();
  seed_count_ = 0;
  for (const std::uint32_t g : probe_groups_) {
    for (std::uint32_t a = pair_off[g]; a < pair_off[g + 1]; ++a) {
      const EvalEngine::ClusterArc& arc = carcs[a];
      if (plain_bits) {
        dirty_bits_[arc.head_pos >> 6] |= std::uint64_t{1} << (arc.head_pos & 63);
      }
      dirty_stamp_[idx(arc.head)] = epoch_;
      ++seed_count_;
    }
  }
}

const Weight* DeltaEval::pair_potential() {
  // Disabled (0 slots) or bypassed (np above the configured ceiling —
  // giant graphs would make the cache slots themselves the memory hog):
  // the static tail0 potential is always valid, just weaker. Counted so
  // the degradation is observable (CLI map stats / MappingReport) instead
  // of a silent cliff.
  if (cache_slots_ == 0 || (cache_max_np_ > 0 && np_ > cache_max_np_)) {
    ++stats_.potential_cache_disabled;
    trial_prefix_bound_ = prefix_max_bound_.data();
    return tables_->tail0.data();
  }
  std::uint32_t a = static_cast<std::uint32_t>(idx(moved_clusters_[0]));
  std::uint32_t b =
      moved_count_ == 2 ? static_cast<std::uint32_t>(idx(moved_clusters_[1])) : a;
  if (a > b) std::swap(a, b);
  const std::uint32_t key = a * static_cast<std::uint32_t>(ns_) + b;
  if (pair_cache_.empty()) {
    pair_cache_.resize(std::min<std::size_t>(ns_ * ns_, cache_slots_));
  }
  PairPotential& slot = pair_cache_[key % pair_cache_.size()];
  if (slot.key == key && slot.commit_epoch == commit_epoch_) {
    trial_prefix_bound_ = slot.prefix.data();
    return slot.tail.data();
  }

  // A trial moving only clusters {c1, c2} leaves everything else in
  // place, which makes three downstream floors exact or valid:
  //  * path: an arc between unmoved clusters keeps its committed
  //    transmission cost (same hosts, same route; contention adds only
  //    nonnegative waits). Arcs adjacent to the pair cost >= 0.
  //  * serialization: unmoved tasks keep their processor, and the kernels
  //    serialize a processor's tasks in topological order, so the suffix
  //    weight-sum of unmoved tasks behind v on its processor must still
  //    run after v.
  //  * link congestion: unmoved messages keep their routes and every
  //    claim holds its link exclusively for the message weight, so once
  //    v's message claims a link, the suffix weight-sum of later unmoved
  //    claims on that link still serializes behind it (moved messages
  //    only add load).
  // The floors compose through the path recursion: makespan >= end(v) +
  // tail(v) with tail(v) = max(serial(v), link(v), max over succ arcs of
  // cost + weight(succ) + tail(succ)).
  const bool contention = options_.link_contention;
  const bool serialize = options_.serialize_within_processor;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();
  const NodeId c1 = moved_clusters_[0];
  const NodeId c2 = moved_count_ == 2 ? moved_clusters_[1] : moved_clusters_[0];
  slot.tail.assign(np_, 0);
  const std::vector<NodeId>& topo = engine_->instance_.topo_order();

  std::vector<Weight> proc_suffix;  // serialize: remaining unmoved work per proc
  if (serialize) proc_suffix.assign(ns_, 0);
  std::vector<Weight> link_suffix;  // contention: remaining unmoved claim weight
  std::vector<Weight> link_floor;   // contention: strongest claim floor per task
  if (contention) {
    link_suffix.assign(link_free_.size(), 0);
    link_floor.assign(np_, 0);
  }

  for (std::size_t i = np_; i-- > 0;) {
    const NodeId v = topo[i];
    const NodeId vc = cluster_of[idx(v)];
    const bool moved_v = vc == c1 || vc == c2;

    if (contention) {
      // Claims of position i, processed in reverse stream order (claims
      // within one position included): accumulate the per-link suffix of
      // unmoved load and credit each claim's floor to its sender — the
      // suffix at credit time must contain exactly the claims at or after
      // this one, and senders sit at earlier positions, so their own tail
      // entries are finalized later in this reverse pass.
      for (std::uint32_t k = claim_pos_offset_[i + 1]; k-- > claim_pos_offset_[i];) {
        const NodeId sender = claim_senders_[k];
        const NodeId sc = cluster_of[idx(sender)];
        if (moved_v || sc == c1 || sc == c2) continue;  // rerouted message
        const auto li = static_cast<std::size_t>(claim_links_[k]);
        link_suffix[li] += claim_weights_[k];
        link_floor[idx(sender)] = std::max(link_floor[idx(sender)], link_suffix[li]);
      }
    }

    Weight t = 0;
    const std::uint32_t slo = tables_->succ_offset[idx(v)];
    const std::uint32_t shi = tables_->succ_offset[idx(v) + 1];
    for (std::uint32_t s = slo; s < shi; ++s) {
      const EvalEngine::SuccArc& sarc = tables_->succ_arcs[s];
      Weight cost = 0;
      if (sarc.weight > 0 && !moved_v && sarc.succ_cluster != c1 &&
          sarc.succ_cluster != c2) {
        // Unmoved endpoints: host_ holds trial hosts, but they equal the
        // committed ones here.
        const NodeId pp = host_[idx(vc)];
        const NodeId pv = host_[idx(sarc.succ_cluster)];
        cost = contention
                   ? sarc.weight * static_cast<Weight>(engine_->route_links(pp, pv).size())
                   : sarc.weight * hops(idx(pp), idx(pv));
      }
      t = std::max(t, cost + node_weight[idx(sarc.succ)] + slot.tail[idx(sarc.succ)]);
    }
    if (serialize && !moved_v) {
      const std::size_t proc = idx(host_[idx(vc)]);  // unmoved: trial == committed
      t = std::max(t, proc_suffix[proc]);
      proc_suffix[proc] += node_weight[idx(v)];
    }
    if (contention) t = std::max(t, link_floor[idx(v)]);
    slot.tail[idx(v)] = t;
  }

  // Prefix table of the untouched-prefix certificate under this pair's
  // potential (strictly stronger than the static prefix_max_bound_).
  slot.prefix.resize(np_ + 1);
  Weight bound = 0;
  for (std::size_t i = 0; i < np_; ++i) {
    slot.prefix[i] = bound;
    bound = std::max(bound, end_[idx(topo[i])] + slot.tail[idx(topo[i])]);
  }
  slot.prefix[np_] = bound;

  slot.key = key;
  slot.commit_epoch = commit_epoch_;
  trial_prefix_bound_ = slot.prefix.data();
  return slot.tail.data();
}

Weight DeltaEval::verdict_probe(std::size_t anchor) const {
  const Weight cutoff = trial_cutoff_;
  // (a) The untouched prefix: every position before the anchor keeps its
  // committed schedule in every mode, so its strongest end + tail0
  // potential certifies any trial outright.
  if (trial_prefix_bound_[anchor] >= cutoff) {
    return trial_prefix_bound_[anchor];
  }

  // (a') Untouched makespan holder (plain mode only — serialize and
  // contention can contaminate through shared processors/links without a
  // graph path): a committed holder whose ancestor clusters exclude every
  // moved cluster keeps its committed end, so the trial total cannot drop
  // below the committed total.
  if (!holder_reach_.empty() && committed_total_ >= cutoff) {
    std::uint64_t moved_mask = 0;
    for (int m = 0; m < moved_count_; ++m) {
      if (idx(moved_clusters_[m]) < 64) {
        moved_mask |= std::uint64_t{1} << idx(moved_clusters_[m]);
      }
    }
    for (const std::uint64_t reach : holder_reach_) {
      if ((reach & moved_mask) == 0) return committed_total_;
    }
  }

  const bool contention = options_.link_contention;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const Weight* const tail0 = trial_potential_;
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();

  // Lower-bound cost of one arc under the trial hosts: exact in the
  // hop-product modes; under contention each route link adds at least the
  // message weight (store-and-forward), so weight * route length bounds
  // from below.
  const auto arc_cost = [&](NodeId pp, NodeId pv, Weight w) -> Weight {
    if (w <= 0) return 0;
    if (contention) return w * static_cast<Weight>(engine_->route_links(pp, pv).size());
    return w * hops(idx(pp), idx(pv));
  };

  // (b) Collected-arc candidates: a tail strictly before the anchor keeps
  // its committed end time (all dirt lies at or after the anchor), so
  // end(tail) + re-costed arc + head weight lower-bounds the head's trial
  // end. Any candidate whose potential-augmented score reaches the cutoff
  // certifies immediately; otherwise the strongest seeds the walk.
  const std::uint32_t* const pair_off = tables_->cluster_pair_offset.data();
  const EvalEngine::ClusterArc* const carcs = tables_->cluster_arcs.data();
  const std::uint32_t* const topo_pos = tables_->topo_pos.data();
  NodeId best_head = -1;
  Weight best_end = 0;
  Weight best_score = -1;
  // Under contention the scan is capped: every boundary arc reroutes (the
  // group masks filter nothing), the route-length bounds are weak, and
  // when no candidate certifies quickly the verdict kernel is the better
  // spend than an exhaustive bound hunt. The hop-product modes keep the
  // full mask-filtered scan — their candidates certify most rejections,
  // so the early exit amortizes it.
  int budget = contention ? 48 : std::numeric_limits<int>::max();
  for (const std::uint32_t g : probe_groups_) {
    if (budget <= 0) break;
    for (std::uint32_t a = pair_off[g]; a < pair_off[g + 1]; ++a) {
      if (--budget < 0) break;
      const EvalEngine::ClusterArc& arc = carcs[a];
      if (topo_pos[idx(arc.tail)] >= anchor) continue;  // tail may itself shift
      const NodeId pp = host_[idx(cluster_of[idx(arc.tail)])];
      const NodeId pv = host_[idx(cluster_of[idx(arc.head)])];
      const Weight en =
          end_[idx(arc.tail)] + arc_cost(pp, pv, arc.weight) + node_weight[idx(arc.head)];
      const Weight score = en + tail0[idx(arc.head)];
      if (score >= cutoff) {
        return score;
      }
      if (score > best_score) {
        best_score = score;
        best_end = en;
        best_head = arc.head;
      }
    }
  }
  if (best_head < 0) return -1;
  return greedy_walk_bound(best_head, best_end);
}

Weight DeltaEval::greedy_walk_bound(NodeId v, Weight b) const {
  // Greedy single-path walk from task v with lower-bound trial end b: each
  // step extends the bound by one re-costed arc plus the successor's
  // weight, steering toward the largest potential-augmented continuation —
  // the best guess at the trial's critical path, at O(out-degree) per
  // step instead of the cascade's full frontier. Arc costs use the trial
  // hosts (host_ holds them during a trial): exact in the hop-product
  // modes, weight * route length (a store-and-forward lower bound) under
  // contention.
  const Weight cutoff = trial_cutoff_;
  const bool contention = options_.link_contention;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const Weight* const tail0 = trial_potential_;
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();
  while (true) {
    if (b + tail0[idx(v)] >= cutoff) {
      return b + tail0[idx(v)];
    }
    const std::uint32_t slo = tables_->succ_offset[idx(v)];
    const std::uint32_t shi = tables_->succ_offset[idx(v) + 1];
    if (slo == shi) return -1;  // reached a sink without certifying
    const NodeId pv = host_[idx(cluster_of[idx(v)])];
    Weight step_best = -1;
    Weight step_end = 0;
    NodeId next = -1;
    for (std::uint32_t s = slo; s < shi; ++s) {
      const EvalEngine::SuccArc& sarc = tables_->succ_arcs[s];
      Weight en = b + node_weight[idx(sarc.succ)];
      if (sarc.weight > 0) {
        const NodeId sp = host_[idx(sarc.succ_cluster)];
        en += contention
                  ? sarc.weight * static_cast<Weight>(engine_->route_links(pv, sp).size())
                  : sarc.weight * hops(idx(pv), idx(sp));
      }
      const Weight score = en + tail0[idx(sarc.succ)];
      if (score > step_best) {
        step_best = score;
        step_end = en;
        next = sarc.succ;
      }
    }
    b = step_end;
    v = next;
  }
}

Weight DeltaEval::run_trial(Weight cutoff) {
  pending_ = Pending::kNone;  // discard any previous (uncommitted) trial
  verdict_exit_ = false;
  trial_cutoff_ = version_ == 2 ? cutoff : kNoCutoff;
  apply_pending_hosts();      // host_ holds the trial hosts until try_* returns
  ++epoch_;
  touched_.clear();
  touched_old_end_.clear();
  // Self-correcting economics: when most structure-changing trials have
  // been cascading into full-kernel fallbacks anyway, stop paying for the
  // aborted partial scans and reschedule only the provably-unaffected
  // (zero-dirt) trials incrementally. Zero-dirt trials keep the ratio
  // honest, so distance-regular instances never flip into this mode; the
  // flag is sticky so a ratio hovering at the boundary cannot flap between
  // the cheap and the aborting regime. (v2 verdict trials bypass the guard
  // in seed_dirty — they never fall back, so they never feed the ratio.)
  if (!conservative_) {
    conservative_ = dopt_.fallback_fraction < 1.0 && stats_.trials >= 64 &&
                    stats_.full_fallbacks * 5 > stats_.trials * 2;
  }
  const bool use_cutoff = trial_cutoff_ != kNoCutoff;
  // Cutoff trials run the collect-first flow: analyze without marking,
  // probe for a verdict, and only seed (stores, cleanup obligations) in
  // the rare undecided case. No-cutoff trials keep the v1 seed-then-scan
  // flow (and, under v1, the adaptive conservative guard).
  const std::size_t anchor = use_cutoff ? collect_probe_groups() : seed_dirty();
  if (anchor == np_) {
    // No arc changed cost and no shared-resource anchor: the committed
    // schedule is the trial schedule (e.g. an isolated or empty cluster
    // moved, or a swap whose hop distances all match).
    pending_ = Pending::kDelta;
    pending_total_ = committed_total_;
    ++stats_.delta_trials;
    restore_committed_hosts();
    return committed_total_;
  }
  const bool plain = !options_.serialize_within_processor && !options_.link_contention;
  if (use_cutoff) {
    trial_potential_ = pair_potential();  // also sets trial_prefix_bound_
  } else {
    trial_potential_ = tables_->tail0.data();
    trial_prefix_bound_ = prefix_max_bound_.data();
  }
  if (use_cutoff) {
    // Pre-cascade verdict probe: most hill-climb rejections are certified
    // here, from the untouched prefix or one greedy path walk, without
    // having touched any trial state.
    const Weight probe = verdict_probe(anchor);
    if (probe >= 0) {
      restore_committed_hosts();
      ++stats_.delta_trials;
      ++stats_.verdict_exits;
      verdict_exit_ = true;
      return probe;
    }
    if (!plain && np_ - anchor > np_ / 8) {
      // Anchor outside the last eighth under serialize/contention:
      // shared-resource widening would storm the scan (and then still pay
      // the kernel after the threshold), so score through the dense
      // verdict kernel directly — launched from the anchor over committed
      // prefix state, with a certified exit the moment a finalized end
      // plus the pair potential reaches the cutoff, and an ordinary exact
      // (committable) trial otherwise.
      scan_anchor_ = anchor;
      const Weight t = run_verdict_full_trial();
      restore_committed_hosts();
      if (pending_ == Pending::kFull) return pending_total_;
      ++stats_.delta_trials;
      ++stats_.verdict_exits;
      return t;
    }
    seed_from_collected();
  }
  const auto threshold =
      static_cast<std::size_t>(dopt_.fallback_fraction * static_cast<double>(np_));
  // Scan economics: under v1 a clean suffix position still replays its
  // link claims (about the price of the kernel's own route walk) or its
  // proc_free contribution, so when the projected suffix work rivals a
  // full pass the full kernel wins outright. v2 clean positions are O(1)
  // (bucketed claims), so only the seed count matters there — and verdict
  // trials never pre-abort at all, their cost is bounded by the exit.
  const double clean_cost = options_.link_contention ? 1.0 : 0.35;
  const bool scan_uneconomic =
      version_ == 1 && !plain && dopt_.fallback_fraction < 1.0 &&
      clean_cost * static_cast<double>(np_ - anchor) + static_cast<double>(seed_count_) >=
          static_cast<double>(np_);
  if ((seed_count_ > threshold && !use_cutoff) || scan_uneconomic) {
    // The seeds alone already exceed the reschedule budget: go straight to
    // the full kernel instead of burning a partial scan first.
    if (plain) std::fill(dirty_bits_.begin(), dirty_bits_.end(), std::uint64_t{0});
    (void)run_full_trial();
    restore_committed_hosts();
    return pending_total_;
  }
  scan_anchor_ = anchor;
  Weight total = 0;
  if (version_ == 2) {
    total = plain ? run_trial_plain_v2() : run_trial_scan_v2();
  } else {
    total = plain ? run_trial_plain() : run_trial_scan();
  }
  // Roll back the in-place end_ writes (trial values survive in
  // trial_start_/trial_end_ for commit) and the trial hosts.
  for (std::size_t i = 0; i < touched_.size(); ++i) {
    end_[idx(touched_[i])] = touched_old_end_[i];
  }
  restore_committed_hosts();
  if (pending_ == Pending::kFull) return pending_total_;  // fell back mid-trial
  ++stats_.delta_trials;
  stats_.tasks_rescheduled += static_cast<std::int64_t>(touched_.size());
  if (verdict_exit_) {
    // Certified ">= cutoff": some finalized trial end reached the cutoff,
    // so the exact total can only be higher. Nothing is committable.
    ++stats_.verdict_exits;
    pending_ = Pending::kNone;
    return total;
  }
  pending_ = Pending::kDelta;
  pending_total_ = total;
  return total;
}

Weight DeltaEval::run_trial_plain() {
  // Sparse worklist: dirty topological positions live in dirty_bits_;
  // popping the lowest set bit processes tasks in topological order, and
  // successor marks always land at higher positions, so one forward pass
  // over the words drains the frontier. Clean tasks are never visited.
  const std::vector<NodeId>& topo = engine_->instance_.topo_order();
  const std::uint32_t* const topo_pos = tables_->topo_pos.data();
  const EvalEngine::PredArc* const arcs = engine_->pred_arcs_.data();
  const EvalEngine::SuccArc* const succ_arcs = tables_->succ_arcs.data();
  const std::uint32_t* const pred_offset = engine_->pred_offset_.data();
  const std::uint32_t* const succ_offset = tables_->succ_offset.data();
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();
  const NodeId* const host = host_.data();
  Weight* const end = end_.data();
  const Matrix<Weight>& hops = engine_->instance_.hops();

  const auto threshold =
      static_cast<std::size_t>(dopt_.fallback_fraction * static_cast<double>(np_));
  std::size_t rescheduled = 0;
  std::size_t removed_at_max = 0;
  Weight touched_max = 0;

  const std::size_t words = dirty_bits_.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits;
    while ((bits = dirty_bits_[w]) != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      dirty_bits_[w] = bits & (bits - 1);
      const std::size_t pos = (w << 6) | b;
      const NodeId v = topo[pos];

      if (++rescheduled > threshold) {
        // Too much of the graph went dirty: clear the remaining marks so
        // the bitmask stays self-cleaning, then run the full kernel.
        for (std::size_t ww = w; ww < words; ++ww) dirty_bits_[ww] = 0;
        stats_.positions_scanned += static_cast<std::int64_t>(rescheduled);
        return run_full_trial();
      }

      Weight st = 0;
      const NodeId pv = host[idx(cluster_of[idx(v)])];
      const std::uint32_t lo = pred_offset[idx(v)];
      const std::uint32_t hi = pred_offset[idx(v) + 1];
      for (std::uint32_t a = lo; a < hi; ++a) {
        const EvalEngine::PredArc& arc = arcs[a];
        Weight arrival = end[idx(arc.pred)];  // trial value if pred recomputed
        if (arc.weight > 0) {
          arrival += arc.weight * hops(idx(host[idx(arc.pred_cluster)]), idx(pv));
        }
        st = std::max(st, arrival);
      }
      const Weight en = st + node_weight[idx(v)];
      const Weight old_end = end[idx(v)];
      trial_start_[idx(v)] = st;
      trial_end_[idx(v)] = en;
      end[idx(v)] = en;
      touched_.push_back(v);
      touched_old_end_.push_back(old_end);
      touched_max = std::max(touched_max, en);
      if (en != old_end) {
        if (old_end == committed_total_) ++removed_at_max;
        const std::uint32_t slo = succ_offset[idx(v)];
        const std::uint32_t shi = succ_offset[idx(v) + 1];
        for (std::uint32_t s = slo; s < shi; ++s) {
          const std::size_t sp = topo_pos[idx(succ_arcs[s].succ)];
          dirty_bits_[sp >> 6] |= std::uint64_t{1} << (sp & 63);
        }
      }
    }
  }
  stats_.positions_scanned += static_cast<std::int64_t>(rescheduled);

  // Makespan: every untouched task keeps its committed end, so as long as
  // one committed makespan holder went untouched the old total still
  // stands on the untouched side; otherwise re-derive the max over end_,
  // which at this point holds trial values for touched tasks and committed
  // values everywhere else.
  if (removed_at_max < count_at_max_) return std::max(committed_total_, touched_max);
  Weight m = touched_max;
  for (std::size_t v = 0; v < np_; ++v) m = std::max(m, end[v]);
  return m;
}

Weight DeltaEval::run_trial_plain_v2() {
  // The v1 worklist drain, plus the three v2 attacks (file comment): a
  // popped task first tries the O(1) δ-shift closure off its marker
  // accumulator, every finalized end is tested against the verdict
  // cutoff, and recomputed tasks push their successors' trial arrivals at
  // mark time (one hops lookup per changed in-arc instead of a full
  // in-arc rescan at the successor).
  const std::vector<NodeId>& topo = engine_->instance_.topo_order();
  const std::uint32_t* const topo_pos = tables_->topo_pos.data();
  const EvalEngine::PredArc* const arcs = engine_->pred_arcs_.data();
  const EvalEngine::SuccArc* const succ_arcs = tables_->succ_arcs.data();
  const std::uint32_t* const pred_offset = engine_->pred_offset_.data();
  const std::uint32_t* const succ_offset = tables_->succ_offset.data();
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();
  const NodeId* const host = host_.data();
  Weight* const end = end_.data();
  const Weight* const tail0 = trial_potential_;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const Weight cutoff = trial_cutoff_;
  const bool use_cutoff = cutoff != kNoCutoff;

  const auto threshold =
      static_cast<std::size_t>(dopt_.fallback_fraction * static_cast<double>(np_));
  std::size_t rescheduled = 0;
  std::size_t removed_at_max = 0;
  Weight touched_max = 0;
  bool walked = false;  // one mid-cascade probe walk per trial

  const std::size_t words = dirty_bits_.size();
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits;
    while ((bits = dirty_bits_[w]) != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(bits));
      dirty_bits_[w] = bits & (bits - 1);
      const std::size_t pos = (w << 6) | b;
      const NodeId v = topo[pos];

      if (++rescheduled > threshold) {
        for (std::size_t ww = w; ww < words; ++ww) dirty_bits_[ww] = 0;
        stats_.positions_scanned += static_cast<std::int64_t>(rescheduled);
        // Cutoff trials fall back to the *verdict* kernel: certified exit
        // or an exact committable total, never wasted work past the bound.
        return use_cutoff ? run_verdict_full_trial() : run_full_trial();
      }

      const NodeId pv = host[idx(cluster_of[idx(v)])];
      Weight st;
      // δ-shift closure: v was reached only through markers (no seeded
      // in-arc changed cost), so every changed predecessor arrival is in
      // marker_max_. If that max reaches the committed start it dominates
      // every unchanged arrival (all <= committed start) — the exact new
      // start is the marker max. Ditto when every predecessor marked
      // (there are no unchanged arrivals). Otherwise this is a max-merge
      // point between the shifted and the clean frontier: materialize by
      // exact in-arc rescan.
      const std::uint32_t lo = pred_offset[idx(v)];
      const std::uint32_t hi = pred_offset[idx(v) + 1];
      if (dirty_stamp_[idx(v)] != epoch_ && marker_stamp_[idx(v)] == epoch_ &&
          (marker_max_[idx(v)] >= start_[idx(v)] || marker_count_[idx(v)] == hi - lo)) {
        st = marker_max_[idx(v)];
        ++stats_.shift_fast_paths;
      } else {
        st = 0;
        for (std::uint32_t a = lo; a < hi; ++a) {
          const EvalEngine::PredArc& arc = arcs[a];
          Weight arrival = end[idx(arc.pred)];  // trial value if pred recomputed
          if (arc.weight > 0) {
            arrival += arc.weight * hops(idx(host[idx(arc.pred_cluster)]), idx(pv));
          }
          st = std::max(st, arrival);
        }
      }
      const Weight en = st + node_weight[idx(v)];
      const Weight old_end = end[idx(v)];
      trial_start_[idx(v)] = st;
      trial_end_[idx(v)] = en;
      end[idx(v)] = en;
      touched_.push_back(v);
      touched_old_end_.push_back(old_end);
      touched_max = std::max(touched_max, en);
      if (en != old_end) {
        if (use_cutoff && !walked && en > old_end) {
          // Mid-cascade probe: this exact (post-max-merge) end is often
          // far above what the pre-cascade probe could bound; one greedy
          // walk from it certifies most of the remaining rejections.
          walked = true;
          const Weight wb = greedy_walk_bound(v, en);
          if (wb >= 0) {
            for (std::size_t ww = w; ww < words; ++ww) dirty_bits_[ww] = 0;
            stats_.positions_scanned += static_cast<std::int64_t>(rescheduled);
            verdict_exit_ = true;
            return wb;
          }
        }
        if (old_end == committed_total_) ++removed_at_max;
        const std::uint32_t slo = succ_offset[idx(v)];
        const std::uint32_t shi = succ_offset[idx(v) + 1];
        for (std::uint32_t s = slo; s < shi; ++s) {
          const EvalEngine::SuccArc& sarc = succ_arcs[s];
          const std::size_t sp = topo_pos[idx(sarc.succ)];
          dirty_bits_[sp >> 6] |= std::uint64_t{1} << (sp & 63);
          // Arrival-carrying marker: the successor's trial arrival over
          // this arc, under the trial hosts (the arc's cost is unchanged
          // unless the successor is seeded, in which case it rescans).
          Weight arr = en;
          if (sarc.weight > 0) {
            arr += sarc.weight * hops(idx(pv), idx(host[idx(sarc.succ_cluster)]));
          }
          if (marker_stamp_[idx(sarc.succ)] != epoch_) {
            marker_stamp_[idx(sarc.succ)] = epoch_;
            marker_max_[idx(sarc.succ)] = arr;
            marker_count_[idx(sarc.succ)] = 1;
          } else {
            marker_max_[idx(sarc.succ)] = std::max(marker_max_[idx(sarc.succ)], arr);
            ++marker_count_[idx(sarc.succ)];
          }
        }
      }
      if (use_cutoff && en + tail0[idx(v)] >= cutoff) {
        // en is a finalized trial end time and tail0 a schedule-independent
        // downstream potential, so the exact total is >= en + tail0 >=
        // cutoff — certified verdict; skip the rest of the cascade (the
        // potential usually fires at the cascade's *front*, where end
        // times are small but long weight chains still lie below).
        for (std::size_t ww = w; ww < words; ++ww) dirty_bits_[ww] = 0;
        stats_.positions_scanned += static_cast<std::int64_t>(rescheduled);
        verdict_exit_ = true;
        return en + tail0[idx(v)];
      }
    }
  }
  stats_.positions_scanned += static_cast<std::int64_t>(rescheduled);

  if (removed_at_max < count_at_max_) return std::max(committed_total_, touched_max);
  Weight m = touched_max;
  for (std::size_t v = 0; v < np_; ++v) m = std::max(m, end[v]);
  return m;
}

Weight DeltaEval::run_trial_scan() {
  const bool serialize = options_.serialize_within_processor;
  const bool contention = options_.link_contention;
  const std::vector<NodeId>& topo = engine_->instance_.topo_order();
  const EvalEngine::PredArc* const arcs = engine_->pred_arcs_.data();
  const EvalEngine::SuccArc* const succ_arcs = tables_->succ_arcs.data();
  const std::uint32_t* const pred_offset = engine_->pred_offset_.data();
  const std::uint32_t* const succ_offset = tables_->succ_offset.data();
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();
  const Matrix<Weight>& hops = engine_->instance_.hops();

  // The scan anchor set by run_trial(): the earliest seeded position, or
  // (serialize) the earliest member of a moved cluster — nothing before it
  // can change in any mode.
  const std::size_t min_pos = scan_anchor_;

  // Mode widening seeds: both the vacated and the newly occupied processor
  // of each moved cluster carry changed task sets from min_pos onward.
  if (serialize) {
    for (int m = 0; m < moved_count_; ++m) {
      proc_dirty_stamp_[idx(moved_old_hosts_[m])] = epoch_;
      proc_dirty_stamp_[idx(moved_new_hosts_[m])] = epoch_;
    }
    // Running proc_free state at min_pos: the prefix is untouched (no
    // moved-cluster task precedes min_pos), so replay committed end times.
    std::fill(proc_free_.begin(), proc_free_.end(), Weight{0});
    for (std::size_t pos = 0; pos < min_pos; ++pos) {
      const NodeId v = topo[pos];
      Weight& free = proc_free_[idx(host_[idx(cluster_of[idx(v)])])];
      free = std::max(free, end_[idx(v)]);
    }
  }
  if (contention) {
    // Running link_free state at min_pos: replay the stored prefix claims.
    std::fill(link_free_.begin(), link_free_.end(), Weight{0});
    const std::uint32_t prefix_claims = claim_pos_offset_[min_pos];
    for (std::uint32_t k = 0; k < prefix_claims; ++k) {
      link_free_[static_cast<std::size_t>(claim_links_[k])] = claim_values_[k];
    }
  }

  const auto threshold =
      static_cast<std::size_t>(dopt_.fallback_fraction * static_cast<double>(np_));
  std::size_t rescheduled = 0;
  std::size_t scanned = 0;
  Weight total = prefix_max_end_[min_pos];

  for (std::size_t pos = min_pos; pos < np_; ++pos) {
    ++scanned;
    const NodeId v = topo[pos];
    const NodeId pv = host_[idx(cluster_of[idx(v)])];
    const std::uint32_t clo = contention ? claim_pos_offset_[pos] : 0;
    const std::uint32_t chi = contention ? claim_pos_offset_[pos + 1] : 0;

    bool recompute = dirty_stamp_[idx(v)] == epoch_;
    if (!recompute && serialize && proc_dirty_stamp_[idx(pv)] == epoch_) recompute = true;
    if (!recompute && contention) {
      for (std::uint32_t k = clo; k < chi; ++k) {
        if (link_dirty_stamp_[static_cast<std::size_t>(claim_links_[k])] == epoch_) {
          recompute = true;
          break;
        }
      }
    }

    if (!recompute) {
      // Clean: the committed values stand; replay their shared-resource
      // contributions so later dirty tasks see the right running state.
      if (serialize) {
        Weight& free = proc_free_[idx(pv)];
        free = std::max(free, end_[idx(v)]);
      }
      for (std::uint32_t k = clo; k < chi; ++k) {
        link_free_[static_cast<std::size_t>(claim_links_[k])] = claim_values_[k];
      }
      total = std::max(total, end_[idx(v)]);
      continue;
    }

    if (++rescheduled > threshold) {
      stats_.positions_scanned += static_cast<std::int64_t>(scanned);
      return run_full_trial();
    }

    // Recompute v with the exact full-kernel arithmetic.
    Weight st = 0;
    std::uint32_t cursor = clo;  // cursor through v's committed claims
    const std::uint32_t lo = pred_offset[idx(v)];
    const std::uint32_t hi = pred_offset[idx(v) + 1];
    for (std::uint32_t a = lo; a < hi; ++a) {
      const EvalEngine::PredArc& arc = arcs[a];
      Weight arrival = end_[idx(arc.pred)];  // trial value if pred recomputed
      if (arc.weight > 0) {
        const NodeId pp = host_[idx(arc.pred_cluster)];
        if (contention) {
          const bool route_changed =
              cluster_moved(arc.pred_cluster) || cluster_moved(cluster_of[idx(v)]);
          if (!route_changed) {
            // Same route as committed: claims align 1:1 — a claim that
            // lands on a different busy-until time dirties its link.
            for (const std::int32_t li0 : engine_->route_links(pp, pv)) {
              const auto li = static_cast<std::size_t>(li0);
              const Weight depart = std::max(arrival, link_free_[li]);
              arrival = depart + arc.weight;
              link_free_[li] = arrival;
              if (arrival != claim_values_[cursor]) link_dirty_stamp_[li] = epoch_;
              ++cursor;
            }
          } else {
            // Route changed: the committed claims evaporate from their
            // links and new claims land on the trial route — both link
            // sets diverge.
            const NodeId old_pp = committed_host_during_trial(arc.pred_cluster);
            const NodeId old_pv = committed_host_during_trial(cluster_of[idx(v)]);
            const auto old_len =
                static_cast<std::uint32_t>(engine_->route_links(old_pp, old_pv).size());
            for (std::uint32_t k = 0; k < old_len; ++k) {
              link_dirty_stamp_[static_cast<std::size_t>(claim_links_[cursor + k])] = epoch_;
            }
            cursor += old_len;
            for (const std::int32_t li0 : engine_->route_links(pp, pv)) {
              const auto li = static_cast<std::size_t>(li0);
              const Weight depart = std::max(arrival, link_free_[li]);
              arrival = depart + arc.weight;
              link_free_[li] = arrival;
              link_dirty_stamp_[li] = epoch_;
            }
          }
        } else {
          arrival += arc.weight * hops(idx(pp), idx(pv));
        }
      }
      st = std::max(st, arrival);
    }
    if (serialize) st = std::max(st, proc_free_[idx(pv)]);
    const Weight en = st + node_weight[idx(v)];
    const Weight old_end = end_[idx(v)];
    trial_start_[idx(v)] = st;
    trial_end_[idx(v)] = en;
    end_[idx(v)] = en;
    touched_.push_back(v);
    touched_old_end_.push_back(old_end);
    if (serialize) proc_free_[idx(pv)] = en;

    if (en != old_end) {
      // End time moved: successors must re-derive their starts, and (in
      // serialize mode) so must every later task on this processor.
      const std::uint32_t slo = succ_offset[idx(v)];
      const std::uint32_t shi = succ_offset[idx(v) + 1];
      for (std::uint32_t s = slo; s < shi; ++s) {
        dirty_stamp_[idx(succ_arcs[s].succ)] = epoch_;
      }
      if (serialize) proc_dirty_stamp_[idx(pv)] = epoch_;
    }
    total = std::max(total, en);
  }

  stats_.positions_scanned += static_cast<std::int64_t>(scanned);
  return total;
}

void DeltaEval::make_link_dirty(std::size_t li, std::int64_t rank, Weight live) {
  link_dirty_stamp_[li] = epoch_;
  link_free_[li] = live;
  // Every later committed claimant of this link sees a different link
  // state than the committed stream recorded — mark exactly those
  // positions dirty. Bucket entries are in claim-stream (= topological)
  // order, so the walk only marks the current position or later ones.
  const std::uint32_t base = bucket_offset_[li];
  const std::uint32_t bend = bucket_offset_[li + 1];
  const NodeId* const topo = engine_->instance_.topo_order().data();
  for (std::uint32_t e = base + static_cast<std::uint32_t>(rank + 1); e < bend; ++e) {
    dirty_stamp_[idx(topo[bucket_pos_[e]])] = epoch_;
  }
}

Weight DeltaEval::run_trial_scan_v2() {
  // v2 suffix scan (serialize and/or contention). Differences from v1:
  //
  //  * contention claims are never replayed. A dirty task reads a clean
  //    link's committed busy-until time straight out of the link's bucket
  //    (the entry before its own claim's rank); a diverging claim calls
  //    make_link_dirty, which starts live tracking in link_free_ and
  //    marks the link's later committed claimants dirty. Clean positions
  //    therefore need no per-claim checks at all — if none of their links
  //    diverged upstream, nobody marked them.
  //  * serialize-only trials propagate through δ-shift markers and close
  //    uniformly-shifted tasks in O(1) (same rule as the plain worklist;
  //    the live proc_free_ replay supplies the serialization term).
  //  * every position's finalized contribution feeds the verdict check.
  const bool serialize = options_.serialize_within_processor;
  const bool contention = options_.link_contention;
  const bool use_markers = !contention;  // claims demand exact recomputes
  const std::vector<NodeId>& topo = engine_->instance_.topo_order();
  const EvalEngine::PredArc* const arcs = engine_->pred_arcs_.data();
  const EvalEngine::SuccArc* const succ_arcs = tables_->succ_arcs.data();
  const std::uint32_t* const pred_offset = engine_->pred_offset_.data();
  const std::uint32_t* const succ_offset = tables_->succ_offset.data();
  const NodeId* const cluster_of = engine_->cluster_of_.data();
  const Weight* const node_weight = engine_->node_weight_.data();
  const Weight* const tail0 = trial_potential_;
  const Matrix<Weight>& hops = engine_->instance_.hops();
  const Weight cutoff = trial_cutoff_;
  const bool use_cutoff = cutoff != kNoCutoff;

  const std::size_t min_pos = scan_anchor_;

  if (serialize) {
    for (int m = 0; m < moved_count_; ++m) {
      proc_dirty_stamp_[idx(moved_old_hosts_[m])] = epoch_;
      proc_dirty_stamp_[idx(moved_new_hosts_[m])] = epoch_;
    }
    std::fill(proc_free_.begin(), proc_free_.end(), Weight{0});
    for (std::size_t pos = 0; pos < min_pos; ++pos) {
      const NodeId v = topo[pos];
      Weight& free = proc_free_[idx(host_[idx(cluster_of[idx(v)])])];
      free = std::max(free, end_[idx(v)]);
    }
  }
  // Contention needs no prefix replay: link_free_ only holds live values
  // for links make_link_dirty touched this epoch; clean-link state comes
  // from the buckets on demand.

  const auto threshold =
      static_cast<std::size_t>(dopt_.fallback_fraction * static_cast<double>(np_));
  std::size_t rescheduled = 0;
  std::size_t scanned = 0;
  bool walked = false;  // one mid-cascade probe walk per trial
  Weight total = prefix_max_end_[min_pos];
  if (use_cutoff && trial_prefix_bound_[min_pos] >= cutoff) {
    // The untouched prefix alone already certifies ">= cutoff" — the trial
    // rejects before scanning a single position.
    verdict_exit_ = true;
    return std::max(total, trial_prefix_bound_[min_pos]);
  }

  for (std::size_t pos = min_pos; pos < np_; ++pos) {
    ++scanned;
    const NodeId v = topo[pos];
    const NodeId pv = host_[idx(cluster_of[idx(v)])];
    const std::uint32_t clo = contention ? claim_pos_offset_[pos] : 0;
    const std::uint32_t chi = contention ? claim_pos_offset_[pos + 1] : 0;

    const bool seeded = dirty_stamp_[idx(v)] == epoch_;
    const bool marked = use_markers && marker_stamp_[idx(v)] == epoch_;
    bool recompute = seeded || marked;
    if (!recompute && serialize && proc_dirty_stamp_[idx(pv)] == epoch_) recompute = true;

    if (!recompute) {
      // Clean: committed values stand. Claims are skipped wholesale (their
      // links carry no live divergence, or this position would have been
      // marked); only the serialization term still replays, in O(1).
      if (serialize) {
        Weight& free = proc_free_[idx(pv)];
        free = std::max(free, end_[idx(v)]);
      }
      stats_.claims_skipped += chi - clo;
      total = std::max(total, end_[idx(v)]);
      if (use_cutoff && end_[idx(v)] + tail0[idx(v)] >= cutoff) {
        // A finalized end plus the schedule-independent downstream
        // potential certifies the verdict (see run_trial_plain_v2).
        stats_.positions_scanned += static_cast<std::int64_t>(scanned);
        verdict_exit_ = true;
        return std::max(total, end_[idx(v)] + tail0[idx(v)]);
      }
      continue;
    }

    if (++rescheduled > threshold) {
      stats_.positions_scanned += static_cast<std::int64_t>(scanned);
      return use_cutoff ? run_verdict_full_trial() : run_full_trial();
    }

    Weight st;
    const std::uint32_t lo = pred_offset[idx(v)];
    const std::uint32_t hi = pred_offset[idx(v) + 1];
    if (use_markers && marked && !seeded &&
        (marker_max_[idx(v)] >= start_[idx(v)] || marker_count_[idx(v)] == hi - lo)) {
      // δ-shift closure (see run_trial_plain_v2): the marker max covers
      // every unchanged arrival (all <= the committed start, which under
      // serialization already includes the old proc_free term). The live
      // serialization term is folded in below like any recompute.
      st = marker_max_[idx(v)];
      ++stats_.shift_fast_paths;
    } else {
      // Exact materialization (max-merge point, seeded task, or any
      // contention-mode recompute).
      st = 0;
      std::uint32_t cursor = clo;  // cursor through v's committed claims
      for (std::uint32_t a = lo; a < hi; ++a) {
        const EvalEngine::PredArc& arc = arcs[a];
        Weight arrival = end_[idx(arc.pred)];  // trial value if pred recomputed
        if (arc.weight > 0) {
          const NodeId pp = host_[idx(arc.pred_cluster)];
          if (contention) {
            const bool route_changed =
                cluster_moved(arc.pred_cluster) || cluster_moved(cluster_of[idx(v)]);
            if (!route_changed) {
              // Same route as committed: claims align 1:1. A clean link's
              // state is the bucket entry before this claim's rank; the
              // first diverging value flips the link to live tracking.
              for (const std::int32_t li0 : engine_->route_links(pp, pv)) {
                const auto li = static_cast<std::size_t>(li0);
                const bool live = link_dirty_stamp_[li] == epoch_;
                Weight state;
                if (live) {
                  state = link_free_[li];
                } else {
                  const std::uint32_t rank = claim_bucket_rank_[cursor];
                  state = rank > 0 ? bucket_value_[bucket_offset_[li] + rank - 1] : 0;
                }
                const Weight depart = std::max(arrival, state);
                arrival = depart + arc.weight;
                if (live) {
                  link_free_[li] = arrival;
                } else if (arrival != claim_values_[cursor]) {
                  make_link_dirty(li, static_cast<std::int64_t>(claim_bucket_rank_[cursor]),
                                  arrival);
                }
                ++cursor;
              }
            } else {
              // Route changed: the committed claims evaporate from their
              // links (state rolls back to just before each claim; later
              // claimants must recompute) and new claims land on the
              // trial route.
              const std::uint32_t c0 = cursor;
              const NodeId old_pp = committed_host_during_trial(arc.pred_cluster);
              const NodeId old_pv = committed_host_during_trial(cluster_of[idx(v)]);
              const auto old_len =
                  static_cast<std::uint32_t>(engine_->route_links(old_pp, old_pv).size());
              for (std::uint32_t k = 0; k < old_len; ++k, ++cursor) {
                const auto li = static_cast<std::size_t>(claim_links_[cursor]);
                if (link_dirty_stamp_[li] == epoch_) continue;  // already live
                const std::uint32_t rank = claim_bucket_rank_[cursor];
                const Weight before =
                    rank > 0 ? bucket_value_[bucket_offset_[li] + rank - 1] : 0;
                make_link_dirty(li, static_cast<std::int64_t>(rank), before);
              }
              for (const std::int32_t li0 : engine_->route_links(pp, pv)) {
                const auto li = static_cast<std::size_t>(li0);
                Weight state;
                if (link_dirty_stamp_[li] == epoch_) {
                  state = link_free_[li];
                } else {
                  // No committed claim of this arc on li: its committed
                  // state at this stream point is the last bucket entry
                  // issued before claim index c0.
                  const std::uint32_t base = bucket_offset_[li];
                  std::uint32_t blo = base;
                  std::uint32_t bhi = bucket_offset_[li + 1];
                  while (blo < bhi) {
                    const std::uint32_t mid = blo + (bhi - blo) / 2;
                    if (bucket_claim_[mid] < c0) {
                      blo = mid + 1;
                    } else {
                      bhi = mid;
                    }
                  }
                  const std::int64_t rank = static_cast<std::int64_t>(blo - base) - 1;
                  state = rank >= 0 ? bucket_value_[base + static_cast<std::uint32_t>(rank)]
                                    : 0;
                  make_link_dirty(li, rank, state);
                }
                const Weight depart = std::max(arrival, state);
                arrival = depart + arc.weight;
                link_free_[li] = arrival;
              }
            }
          } else {
            arrival += arc.weight * hops(idx(pp), idx(pv));
          }
        }
        st = std::max(st, arrival);
      }
    }
    if (serialize) st = std::max(st, proc_free_[idx(pv)]);
    const Weight en = st + node_weight[idx(v)];
    const Weight old_end = end_[idx(v)];
    trial_start_[idx(v)] = st;
    trial_end_[idx(v)] = en;
    end_[idx(v)] = en;
    touched_.push_back(v);
    touched_old_end_.push_back(old_end);
    if (serialize) proc_free_[idx(pv)] = en;

    if (en != old_end) {
      if (use_cutoff && !walked && en > old_end) {
        // Mid-cascade probe (see run_trial_plain_v2).
        walked = true;
        const Weight wb = greedy_walk_bound(v, en);
        if (wb >= 0) {
          stats_.positions_scanned += static_cast<std::int64_t>(scanned);
          verdict_exit_ = true;
          return wb;
        }
      }
      const std::uint32_t slo = succ_offset[idx(v)];
      const std::uint32_t shi = succ_offset[idx(v) + 1];
      for (std::uint32_t s = slo; s < shi; ++s) {
        const EvalEngine::SuccArc& sarc = succ_arcs[s];
        if (use_markers) {
          Weight arr = en;
          if (sarc.weight > 0) {
            arr += sarc.weight * hops(idx(pv), idx(host_[idx(sarc.succ_cluster)]));
          }
          if (marker_stamp_[idx(sarc.succ)] != epoch_) {
            marker_stamp_[idx(sarc.succ)] = epoch_;
            marker_max_[idx(sarc.succ)] = arr;
            marker_count_[idx(sarc.succ)] = 1;
          } else {
            marker_max_[idx(sarc.succ)] = std::max(marker_max_[idx(sarc.succ)], arr);
            ++marker_count_[idx(sarc.succ)];
          }
        } else {
          dirty_stamp_[idx(sarc.succ)] = epoch_;
        }
      }
      if (serialize) proc_dirty_stamp_[idx(pv)] = epoch_;
    }
    total = std::max(total, en);
    if (use_cutoff && en + tail0[idx(v)] >= cutoff) {
      stats_.positions_scanned += static_cast<std::int64_t>(scanned);
      verdict_exit_ = true;
      return std::max(total, en + tail0[idx(v)]);
    }
  }

  stats_.positions_scanned += static_cast<std::int64_t>(scanned);
  return total;
}

void DeltaEval::commit() {
  if (pending_ == Pending::kNone) {
    throw std::logic_error("DeltaEval::commit: no pending trial");
  }
  ++stats_.commits;
  apply_pending_hosts();
  if (pending_ == Pending::kFull) {
    if (full_start_pos_ == 0) {
      std::copy_n(full_ws_.start.begin(), np_, start_.begin());
      std::copy_n(full_ws_.end.begin(), np_, end_.begin());
    } else {
      // Anchored verdict-kernel trial: the prefix never left the committed
      // arrays, only the suffix was rescheduled.
      const std::vector<NodeId>& topo = engine_->instance_.topo_order();
      for (std::size_t pos = full_start_pos_; pos < np_; ++pos) {
        const NodeId v = topo[pos];
        start_[idx(v)] = full_ws_.start[idx(v)];
        end_[idx(v)] = full_ws_.end[idx(v)];
      }
    }
  } else {
    for (const NodeId v : touched_) {
      start_[idx(v)] = trial_start_[idx(v)];
      end_[idx(v)] = trial_end_[idx(v)];
    }
  }
  rebuild_committed_aux();
  committed_total_ = pending_total_;
  pending_ = Pending::kNone;
  moved_count_ = 0;
  ++commit_epoch_;  // committed costs changed: pair potentials are stale
}

}  // namespace mimdmap
