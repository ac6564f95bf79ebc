// EvalEngine: the precomputed schedule-evaluation engine.
//
// The whole mapping pipeline (paper sections 4.3.1-4.3.4) is "generate a
// candidate assignment, evaluate its total time, keep iff better" — so
// evaluation throughput *is* mapper throughput. The free evaluate() in
// evaluation.hpp recomputes the topological order, re-walks pointer-chasing
// adjacency lists, reallocates every schedule buffer and (under
// link_contention) rebuilds a RoutingTable on every call. EvalEngine hoists
// all of that per-*instance* work out of the per-*trial* loop:
//
//  * the topological order of the problem graph (fixed per instance; read
//    from MappingInstance::topo_order(), which computed it at construction),
//  * a flat CSR predecessor array whose arcs carry pre-resolved
//    (pred, cluster_of(pred), clus_edge(pred, v)) triples — one contiguous
//    scan per trial instead of nested vector-of-pair walks plus two matrix
//    lookups per precedence,
//  * a flat cluster_of / node-weight lookup,
//  * one shared RoutingTable with every route pre-flattened to a link-index
//    sequence (built lazily, only when link_contention is first requested),
//  * the delta evaluator's tables (successor CSR, per-cluster boundary
//    arcs, potentials; built lazily by the first begin_delta, so the flat
//    paper pipeline, which never starts a DeltaEval, never pays for them),
//  * the ideal-graph tail refine() prunes its candidate waves with (built
//    lazily by the first ideal_tail()),
//  * a handle on the process-wide shared ThreadPool (service/thread_pool.hpp)
//    so parallel search loops stop paying thread-spawn latency per call and
//    many engines mapping concurrently shard one pool instead of
//    oversubscribing the machine,
//  * per-lane EvalWorkspace scratch buffers, so steady-state trial
//    evaluation performs ZERO heap allocations.
//
// Determinism guarantee: the trial kernel visits tasks in exactly the order
// the legacy evaluate() did (topological order, ties by node id;
// predecessors in edge-insertion order), so every result is bit-identical
// to evaluate_reference() in all three modes (plain,
// serialize_within_processor, link_contention) — the equivalence suite in
// tests/eval_engine_test.cpp enforces this.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/assignment.hpp"
#include "core/cancellation.hpp"
#include "core/evaluation.hpp"
#include "core/instance.hpp"
#include "graph/routing.hpp"
#include "service/thread_pool.hpp"

namespace mimdmap {

class DeltaEval;

/// Reusable scratch buffers for one evaluation lane. Sized by the engine on
/// first use and reused for every subsequent trial; after warm-up a trial
/// touches no allocator. One workspace must never be shared by two
/// concurrent evaluations.
struct EvalWorkspace {
  std::vector<Weight> start;
  std::vector<Weight> end;
  std::vector<Weight> proc_free;
  std::vector<Weight> link_free;
};

/// Scratch buffers for one structure-of-arrays batch-evaluation lane
/// (EvalEngine::evaluate_batch_soa). All per-candidate state is laid out
/// `[entity][lane]` — `end[idx(task) * W + lane]`, `proc_free[idx(proc) * W
/// + lane]`, `link_free[link * W + lane]` — so the kernel's inner loops run
/// over contiguous lanes. Grown on demand and reused across waves; one
/// workspace must never be shared by two concurrent evaluations.
struct SoaWorkspace {
  std::vector<Weight> end;        // [task][lane] end times
  std::vector<NodeId> host;       // [cluster][lane] transposed candidates
  std::vector<Weight> proc_free;  // [proc][lane] (serialize mode)
  std::vector<Weight> link_free;  // [link][lane] (contention mode)
  std::vector<Weight> total;      // [lane] running makespan
  std::vector<std::uint32_t> live;  // live lane ids (early-exit compaction)
};

/// "No early exit" sentinel for the SoA kernel's cutoff parameter.
inline constexpr Weight kNoCutoff = std::numeric_limits<Weight>::max();

/// Tuning knobs for the incremental delta evaluator (see DeltaEval below).
struct DeltaOptions {
  /// A trial falls back to the full kernel once it has rescheduled more
  /// than this fraction of all tasks — beyond that point the incremental
  /// bookkeeping costs more than it saves (a delta recompute carries about
  /// 3x the per-task cost of the streaming kernel, so the break-even sits
  /// near a third of the graph). 0 forces every trial onto the full kernel
  /// (useful for testing); 1 disables the fallback. The result is
  /// bit-identical either way. Verdict trials (a cutoff was passed to
  /// try_move/try_swap) fall back onto the *verdict* kernel instead — the
  /// dense kernel with the same certified ">= cutoff" early exit.
  double fallback_fraction = 0.3;

  /// Delta-engine generation: 2 is the shift-compressed engine
  /// (DESIGN.md 13 — δ-shift markers, verdict trials, link-bucketed
  /// contention claims), 1 the PR 2 suffix rescheduler retained as the
  /// oracle fallback. 0 resolves through the MIMDMAP_DELTA_MODE
  /// environment variable ("v1"/"1" or "v2"/"2"; default v2). Totals and
  /// accept streams are bit-identical across versions.
  int version = 0;

  /// Slots of the v2 per-pair potential cache (direct-mapped; DESIGN.md
  /// 13.3). > 0 explicit, 0 disables the cache outright, -1 (default)
  /// resolves through MIMDMAP_DELTA_CACHE ("slots" / "slots,max_np" /
  /// "off"), else 64. Every configuration is bit-identical on accept
  /// streams — a weaker potential only loosens certified bounds of
  /// rejected trials, never an accepted total.
  int potential_cache_slots = -1;

  /// Task-count ceiling above which the cache is bypassed (each slot
  /// stores two np-sized tables, so giant graphs would make the slots
  /// themselves the memory hog). > 0 explicit, 0 removes the ceiling, -1
  /// (default) resolves through MIMDMAP_DELTA_CACHE's second field, else
  /// 100000. Bypassed lookups fall back to the static tail0 potential —
  /// always valid, just weaker — and are counted in
  /// DeltaStats::potential_cache_disabled so the degradation is visible
  /// instead of silent.
  std::int64_t potential_cache_max_np = -1;
};

/// Counters accumulated by a DeltaEval across its lifetime.
struct DeltaStats {
  std::int64_t trials = 0;            ///< try_move + try_swap calls
  std::int64_t delta_trials = 0;      ///< trials served by suffix rescheduling
  std::int64_t full_fallbacks = 0;    ///< trials served by the full kernel
  std::int64_t commits = 0;
  std::int64_t tasks_rescheduled = 0;  ///< recomputed tasks over all delta trials
  std::int64_t positions_scanned = 0;  ///< suffix positions visited (incl. clean)
  std::int64_t shift_fast_paths = 0;   ///< v2: tasks closed by the δ-shift rule
  std::int64_t verdict_exits = 0;      ///< v2: trials ended by a ">= cutoff" verdict
  std::int64_t claims_skipped = 0;     ///< v2: committed link claims never replayed
  /// v2: pair-potential lookups served by the static tail0 fallback
  /// because the cache is disabled (slots == 0) or bypassed (np above the
  /// configured ceiling). Nonzero means the verdicts ran on the weaker
  /// potential — tune DeltaOptions / MIMDMAP_DELTA_CACHE to re-enable.
  std::int64_t potential_cache_disabled = 0;
};

class EvalEngine {
 public:
  /// Precomputes the evaluation tables for `instance`. The instance must
  /// outlive the engine (the engine keeps a reference). `pool` is the
  /// worker pool parallel calls dispatch to — batch orchestrators
  /// (MapService) thread one handle through every engine they create;
  /// nullptr acquires the process-wide ThreadPool::shared().
  explicit EvalEngine(const MappingInstance& instance,
                      std::shared_ptr<ThreadPool> pool = nullptr);
  ~EvalEngine();

  EvalEngine(const EvalEngine&) = delete;
  EvalEngine& operator=(const EvalEngine&) = delete;

  [[nodiscard]] const MappingInstance& instance() const noexcept { return instance_; }

  /// Full schedule of a complete assignment — same checks and bit-identical
  /// results as the legacy free evaluate(). Writes through the shared
  /// caller workspace, so despite being const it must not be called from
  /// two threads concurrently on one engine; concurrent evaluators must use
  /// the span overload below with private workspaces (the engine's own
  /// pool already does).
  [[nodiscard]] ScheduleResult evaluate(const Assignment& assignment,
                                        const EvalOptions& options = {}) const;

  /// As above against an explicit host_of vector (host[c] = processor of
  /// cluster c), writing through the caller's workspace.
  [[nodiscard]] ScheduleResult evaluate(std::span<const NodeId> host_of,
                                        const EvalOptions& options, EvalWorkspace& ws) const;

  /// Hot path: total time only. No argument validation, no allocations at
  /// steady state. `host_of` must be a complete cluster -> processor map;
  /// concurrent callers must each bring a private workspace.
  [[nodiscard]] Weight trial_total_time(std::span<const NodeId> host_of,
                                        const EvalOptions& options, EvalWorkspace& ws) const;

  /// A workspace for the calling thread (lane 0 of the pool). Not
  /// thread-safe: concurrent callers must bring their own EvalWorkspace.
  [[nodiscard]] EvalWorkspace& caller_workspace() const noexcept { return caller_ws_; }

  /// Starts an incremental delta-evaluation session anchored at `committed`
  /// (which must be a complete assignment). The returned DeltaEval scores
  /// single-cluster moves and cluster swaps by rescheduling only the
  /// affected suffix of the topological order — see the DeltaEval class
  /// comment. The engine must outlive the returned object. The first call
  /// on an engine builds the delta tables; concurrent calls are safe.
  [[nodiscard]] DeltaEval begin_delta(const Assignment& committed,
                                      const EvalOptions& options = {},
                                      const DeltaOptions& delta_options = {}) const;

  /// As above against an explicit host_of vector (host[c] = processor of
  /// cluster c; need not be a permutation).
  [[nodiscard]] DeltaEval begin_delta(std::span<const NodeId> host_of,
                                      const EvalOptions& options,
                                      const DeltaOptions& delta_options = {}) const;

  /// Resolves a RefineOptions-style thread count: values > 0 pass through,
  /// 0 means "auto" — a handful of timed warm-up trials pick between
  /// sequential and the pool's full lane budget, dropping to sequential
  /// when the measured per-trial cost is below the measured per-lane share
  /// of the pool's chunk-sync overhead (DESIGN.md 9.4). The sync overhead
  /// is measured once per *pool* (process-wide) and the per-mode decision
  /// once per engine; results are bit-identical either way, so the timing
  /// nondeterminism never leaks into mapping output.
  [[nodiscard]] int resolve_num_threads(int requested, const EvalOptions& options = {}) const;

  /// The worker pool this engine dispatches to (shared, never null).
  [[nodiscard]] const std::shared_ptr<ThreadPool>& pool() const noexcept { return pool_; }

  /// Adopts shared topology tables (TopologyCache): contention-mode
  /// evaluation then reads the shared RoutingTable and pre-flattened route
  /// CSR instead of building private copies. Called automatically when the
  /// instance carries shared tables; batch orchestrators (run_map_job)
  /// call it for borrowed instances. Must happen before the first
  /// contention-mode evaluation — once the private tables are built the
  /// call is ignored. The tables must describe this instance's machine
  /// (same processor count; TopologyCache keys guarantee structural
  /// identity). Results are bit-identical with or without adoption.
  void adopt_topology(std::shared_ptr<const TopologyTables> tables) const;

  /// Worker threads of the underlying shared pool spawned so far
  /// (diagnostics; the caller's own thread is not counted).
  [[nodiscard]] int pool_thread_count() const noexcept;

  /// Runs fn(i, workspace) for every i in [0, count) across the shared
  /// worker pool: the caller participates plus up to num_threads - 1 pooled
  /// workers, each with a private lane workspace. num_threads is clamped to
  /// count and to the pool's lane budget so tiny batches neither spawn nor
  /// wake more workers than they can feed. Blocks until all indices are
  /// done. Iteration order across lanes is unspecified, so fn must only
  /// write to per-index slots; with num_threads < 2 it degenerates to an
  /// inline sequential loop.
  void for_each_parallel(std::size_t count, int num_threads,
                         const std::function<void(std::size_t, EvalWorkspace&)>& fn) const;

  /// Convenience batch used by the search loops: totals[i] =
  /// trial_total_time(hosts[i]). Deterministic for any thread count;
  /// num_threads = 0 resolves via resolve_num_threads(). Candidates are
  /// evaluated in SoA waves of resolve_batch_width(0) lanes.
  void batch_total_times(std::span<const std::vector<NodeId>> hosts, const EvalOptions& options,
                         int num_threads, std::span<Weight> totals) const;

  /// Full form: `width` lanes per SoA wave (resolved via
  /// resolve_batch_width; 1 keeps every candidate on the scalar trial
  /// kernel) and an optional shared incumbent. With cutoff != kNoCutoff a
  /// lane early-exits at the first task v whose end plus `potential[v]`
  /// reaches the cutoff (an empty potential counts 0, so the lane exits
  /// when its partial makespan does): its reported total is then that
  /// sum, a certified lower bound >= cutoff on the exact makespan (i.e.
  /// "cannot beat the incumbent") instead of the exact value. Lanes
  /// reported below the cutoff are always exact, so keep-iff-better scans
  /// make bit-identical decisions for every width, thread count and
  /// cutoff. The potential must lower-bound the remaining path of every
  /// candidate in `hosts` — ideal_tail() does only for injective maps, so
  /// the engine never applies it by itself. The width-1 scalar path
  /// ignores cutoff and potential and stays exact.
  ///
  /// `cancel` bounds cancellation latency to ONE wave: each wave (and each
  /// scalar trial on the width-1 path) makes a non-counting
  /// CancelToken::signalled() check before evaluating and, once the token
  /// has tripped, writes kNoCutoff into its lanes instead of scheduling —
  /// a certified "cannot beat any incumbent" sentinel the caller's
  /// keep-iff-better scan rejects like any cutoff bound. An untripped
  /// token never changes any total (bit-identity preserved).
  void batch_total_times(std::span<const std::vector<NodeId>> hosts, const EvalOptions& options,
                         int num_threads, int width, std::span<Weight> totals,
                         Weight cutoff = kNoCutoff, std::span<const Weight> potential = {},
                         const CancelToken& cancel = {}) const;

  /// The SoA batch kernel: schedules all hosts.size() candidates in ONE
  /// walk over the topological order and CSR predecessor arcs, with
  /// lane-contiguous inner loops over the `[task][lane]` state arrays
  /// (DESIGN.md 12). totals[l] receives candidate l's makespan —
  /// bit-identical to trial_total_time(hosts[l]) / evaluate_reference —
  /// except for lanes early-exited by `cutoff` and `potential` (see
  /// batch_total_times above), which report a lower bound >= cutoff. Runs
  /// on the calling thread; concurrent callers must bring private
  /// workspaces. Zero heap allocations once the workspace is warm.
  void evaluate_batch_soa(std::span<const std::vector<NodeId>> hosts,
                          const EvalOptions& options, SoaWorkspace& ws,
                          std::span<Weight> totals, Weight cutoff = kNoCutoff,
                          std::span<const Weight> potential = {}) const;

  /// The ideal-graph tail: tail[v] is the longest path from the end of
  /// task v to a sink of the ideal graph (paper section 4.1), counting
  /// every later task's weight and every inter-cluster arc's clustered
  /// weight once (intra-cluster arcs 0). Any assignment that puts distinct
  /// clusters on distinct processors sends each inter-cluster message over
  /// at least one hop, so end(v) + tail[v] lower-bounds its makespan in
  /// every cost model — refine()'s incumbent-cutoff potential. Maps that
  /// stack two clusters on one processor break the bound. Built on first
  /// call (thread-safe, the call_once idiom of delta_tables()); 8 bytes
  /// per task for the engine's lifetime.
  [[nodiscard]] std::span<const Weight> ideal_tail() const;

  /// Resolves a RefineOptions-style SoA wave width: values > 0 pass
  /// through (capped at 4096 — wave state scales with W, so absurd
  /// requests degrade instead of exhausting memory), negative values mean
  /// 1 (scalar path), 0 means "auto" — the
  /// MIMDMAP_EVAL_WIDTH environment variable when set to a positive
  /// integer ("auto", empty and malformed values defer to the tuner),
  /// else a width that fits the wave's per-lane state (end times
  /// plus mode-dependent proc/link arrays) into a fixed L1/L2 cache budget,
  /// clamped to [8, 32] (DESIGN.md 12.2). Deterministic — no timing feeds
  /// into it — so any resolved width yields bit-identical mapping results.
  [[nodiscard]] int resolve_batch_width(int requested, const EvalOptions& options = {}) const;

 private:
  /// One pre-resolved precedence arc into a task.
  struct PredArc {
    NodeId pred = 0;          // predecessor task
    NodeId pred_cluster = 0;  // cluster_of(pred)
    Weight weight = 0;        // clus_edge(pred, task); 0 for intra-cluster
  };

  /// One pre-resolved successor arc (the delta evaluator's forward mirror
  /// of PredArc; inter-cluster iff succ_cluster != cluster_of(task)).
  /// `weight` is clus_edge(task, succ) — the v2 delta engine's δ-shift
  /// markers carry the successor's trial arrival, computed at mark time
  /// from this weight and the hosts' hop distance.
  struct SuccArc {
    NodeId succ = 0;
    NodeId succ_cluster = 0;
    Weight weight = 0;
  };

  /// One inter-cluster arc adjacent to a cluster, from that cluster's
  /// perspective — the delta evaluator's seed unit. `head` is the arc's
  /// receiver (the task whose start-time recurrence carries the cost term),
  /// `tail` its sender, `weight` the clustered edge weight, `other_cluster`
  /// the far endpoint's cluster, `incoming` whether the cluster under
  /// consideration is the receiver side. tail/weight feed the v2 verdict
  /// probe (lower-bound arrival over the re-costed arc).
  struct ClusterArc {
    NodeId head = 0;
    std::uint32_t head_pos = 0;  // topo position of head
    NodeId other_cluster = 0;
    bool incoming = false;
    NodeId tail = 0;
    Weight weight = 0;
  };

  void ensure_workspace(EvalWorkspace& ws, bool link_contention) const;
  void ensure_routing() const;
  /// Pre-flattened link-index sequence of the fixed route pp -> pv.
  /// ensure_routing() must have completed. Shared by the scalar kernel,
  /// the SoA kernel and DeltaEval's claim replay so all three issue link
  /// claims along byte-identical hop sequences.
  [[nodiscard]] std::span<const std::int32_t> route_links(NodeId pp, NodeId pv) const noexcept {
    const std::size_t r = idx(pp) * idx(instance_.num_processors()) + idx(pv);
    return {route_links_ptr_ + route_offset_ptr_[r], route_offset_ptr_[r + 1] - route_offset_ptr_[r]};
  }
  /// Link count of the routing tables; ensure_routing() must have completed.
  [[nodiscard]] std::size_t link_count() const noexcept { return routing_ptr_->link_count(); }
  /// Shared kernel: schedules every task, filling ws.start / ws.end, and
  /// returns the makespan.
  Weight run_schedule(std::span<const NodeId> host_of, const EvalOptions& options,
                      EvalWorkspace& ws) const;
  /// run_schedule with a certified early exit (the scalar sibling of the
  /// SoA kernel's cutoff lanes): the moment a finalized end plus the
  /// caller's downstream `potential` (a valid per-task lower bound on any
  /// schedule's remaining path, e.g. DeltaTables::tail0 or DeltaEval's
  /// per-pair potential) reaches `cutoff`, scheduling stops and the bound is
  /// returned with *certified = true (the exact makespan can only be
  /// larger; ws then holds a partial schedule). Otherwise the exact
  /// makespan is returned with *certified = false and ws is fully filled,
  /// bit-identical to run_schedule.
  /// `start_pos` launches the kernel mid-order: the caller guarantees the
  /// schedule of every position before it is already in ws (bit-identical
  /// to what the kernel would have produced) along with the matching
  /// proc_free/link_free running state — DeltaEval seeds these from its
  /// committed schedule and checkpoints, since nothing before a trial's
  /// anchor can change.
  Weight run_schedule_verdict(std::span<const NodeId> host_of, const EvalOptions& options,
                              EvalWorkspace& ws, Weight cutoff, const Weight* potential,
                              bool* certified, std::size_t* scheduled = nullptr,
                              std::size_t start_pos = 0) const;
  ScheduleResult workspace_to_result(const EvalWorkspace& ws, Weight total) const;
  /// Mode-specialized body of evaluate_batch_soa. kCutoff selects the
  /// live-lane-compaction variant; without it the lane loops stay dense.
  template <bool kSerialize, bool kContention, bool kCutoff>
  void soa_schedule(std::span<const std::vector<NodeId>> hosts, SoaWorkspace& ws,
                    std::span<Weight> totals, Weight cutoff, const Weight* potential) const;

  /// The tables only DeltaEval reads, built together on the first
  /// begin_delta (delta_tables()).
  struct DeltaTables {
    std::vector<std::uint32_t> topo_pos;     // inverse of the topological order
    std::vector<std::uint32_t> succ_offset;  // CSR mirror of pred_offset_:
    std::vector<SuccArc> succ_arcs;          // successors of v, edge-insertion order
    std::vector<std::uint32_t> cluster_arc_offset;  // CSR over clusters:
    std::vector<ClusterArc> cluster_arcs;           // inter-cluster arcs of cluster c
    // Sub-CSR of cluster_arcs: within cluster c the arcs are sorted by
    // (other_cluster, incoming), and group (c, oc, incoming) spans
    // [cluster_pair_offset[g], cluster_pair_offset[g + 1]) with
    // g = c * 2 * ns + oc * 2 + incoming. The v2 delta engine selects whole
    // groups off its distance-change masks instead of filtering arc by arc;
    // cluster_pair_min_pos[g] is the earliest head position in the group.
    std::vector<std::uint32_t> cluster_pair_offset;
    std::vector<std::uint32_t> cluster_pair_min_pos;
    std::vector<std::uint32_t> cluster_min_pos;  // earliest member topo position
    // tail0[v]: largest sum of node weights along any v -> sink path,
    // excluding v itself. Communication costs are nonnegative in every mode,
    // so end(v) + tail0[v] lower-bounds the makespan of ANY schedule — the
    // v2 delta engine's verdict potential (a trial whose running end crosses
    // cutoff - tail0 is certified hopeless long before the cascade tail).
    std::vector<Weight> tail0;
    // reach_clusters[v]: bitmask of the clusters of v and all its
    // ancestors (all-ones when > 64 clusters). In plain mode a task whose
    // mask excludes both moved clusters provably keeps its committed end —
    // the v2 verdict probe's untouched-makespan-holder certificate.
    std::vector<std::uint64_t> reach_clusters;
  };

  /// The delta tables, built on first call (thread-safe, the same
  /// call_once idiom as ensure_routing()).
  const DeltaTables& delta_tables() const;
  void build_delta_tables() const;

  const MappingInstance& instance_;
  std::vector<std::uint32_t> pred_offset_;  // CSR: arcs of task v are
  std::vector<PredArc> pred_arcs_;          // pred_arcs_[pred_offset_[v] .. [v+1])
  std::vector<NodeId> cluster_of_;
  std::vector<Weight> node_weight_;

  mutable std::once_flag delta_once_;
  mutable DeltaTables delta_tables_;

  mutable std::once_flag tail_once_;
  mutable std::vector<Weight> ideal_tail_;  // ideal_tail(), built on first call

  // Lazily built contention tables (plain evaluations never pay for them).
  // When shared_tables_ is set (adopt_topology) the pointers alias the
  // shared immutable tables and the private storage stays empty.
  mutable std::once_flag routing_once_;
  mutable std::shared_ptr<const TopologyTables> shared_tables_;
  mutable std::unique_ptr<RoutingTable> routing_;
  mutable std::vector<std::uint32_t> route_offset_;  // CSR over (from * ns + to)
  mutable std::vector<std::int32_t> route_links_;    // link indices along each route
  mutable const RoutingTable* routing_ptr_ = nullptr;
  mutable const std::uint32_t* route_offset_ptr_ = nullptr;
  mutable const std::int32_t* route_links_ptr_ = nullptr;

  std::shared_ptr<ThreadPool> pool_;  // shared, never null
  mutable EvalWorkspace caller_ws_;
  mutable std::vector<EvalWorkspace> lane_ws_;  // lane i >= 1 -> lane_ws_[i - 1]
  mutable SoaWorkspace caller_soa_;
  mutable std::vector<SoaWorkspace> lane_soa_;  // lane i >= 1 -> lane_soa_[i - 1]

  // Auto-thread calibration cache (resolve_num_threads). The pool-dispatch
  // sync overhead lives in the shared ThreadPool (measured once
  // process-wide); only the per-mode decision is cached here.
  mutable std::mutex calib_mutex_;
  mutable int auto_threads_[4] = {0, 0, 0, 0};  // per (serialize, contention) mode

  friend class DeltaEval;
};

/// Incremental delta evaluation for local-move search loops (pairwise
/// exchange, annealing). Holds a *committed* schedule — start/end per task,
/// the accepted host_of map and mode-specific auxiliary state — against
/// which a trial move (reassign one cluster, or swap two clusters) is
/// scored by rescheduling only the affected suffix of the engine's
/// precomputed topological order:
///
///  * the dirty seed set is per-arc tight: a task is seeded only when one
///    of its inter-cluster arcs actually changes cost — the hop distance
///    between its endpoints' hosts differs (plain/serialize), or the arc
///    carries a message at all (contention: the route itself changes);
///  * plain mode processes dirty tasks through a bitmask worklist in
///    topological-position order — clean tasks are never visited, and the
///    makespan closes in O(1) through a committed max-holder count (with
///    an O(np) max re-scan only when every committed makespan holder was
///    itself rescheduled);
///  * the serialize/contention modes scan the suffix from the earliest
///    affected position: clean tasks cost one epoch-stamp check plus the
///    replay of their committed processor/link contributions, dirty tasks
///    are recomputed with the exact full-kernel arithmetic;
///  * a recomputed task whose end time is unchanged stops propagating
///    (early cutoff);
///  * serialize_within_processor conservatively widens the dirty set to
///    every later task sharing a processor with a dirty task;
///    link_contention stores the committed per-hop link claims so clean
///    messages replay in O(1) per hop and divergence is detected per link;
///  * once a trial reschedules more than DeltaOptions::fallback_fraction of
///    all tasks it falls back to the full kernel, so correctness never
///    depends on the widening analysis being tight.
///
/// Version 2 (the default; DeltaOptions::version / MIMDMAP_DELTA_MODE)
/// additionally breaks the dense-cascade floor three ways (DESIGN.md 13):
/// δ-shift markers carry each changed predecessor's trial arrival to its
/// successors, so a task inside a uniformly-shifted region closes in O(1)
/// without rescanning its in-arcs (exact materialization at max-merge
/// points where shifted and clean frontiers meet); verdict trials
/// (try_move/try_swap with a cutoff) stop the moment the running result
/// certifies ">= cutoff", skipping the cascade tail of rejected hill-climb
/// candidates; and contention-mode claims are bucketed per link, so clean
/// suffix positions skip untouched links wholesale instead of replaying
/// every claim.
///
/// Totals are bit-identical to evaluate_reference() on the materialized
/// assignment in every mode and version (enforced by
/// tests/delta_eval_test.cpp).
/// Steady-state trials perform zero heap allocations; commits may allocate
/// (they rebuild the contention claim tables).
///
/// Usage: t = try_swap(c1, c2); then commit() to accept (the move becomes
/// the new committed state) or revert()/another try_* to discard. Not
/// thread-safe; create one DeltaEval per search loop.
class DeltaEval {
 public:
  DeltaEval(DeltaEval&&) = default;
  DeltaEval& operator=(DeltaEval&&) = delete;
  DeltaEval(const DeltaEval&) = delete;
  DeltaEval& operator=(const DeltaEval&) = delete;

  [[nodiscard]] Weight committed_total() const noexcept { return committed_total_; }
  [[nodiscard]] std::span<const NodeId> committed_host() const noexcept { return host_; }
  [[nodiscard]] NodeId committed_host_of(NodeId cluster) const { return host_.at(idx(cluster)); }
  [[nodiscard]] const DeltaStats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool has_pending() const noexcept { return pending_ != Pending::kNone; }
  [[nodiscard]] const EvalOptions& options() const noexcept { return options_; }

  /// Total time with cluster `cluster` reassigned to `processor` (every
  /// other cluster keeps its committed host). The result may place two
  /// clusters on one processor — evaluation is well defined on any
  /// cluster -> processor map, not just permutations.
  Weight try_move(NodeId cluster, NodeId processor) {
    return try_move(cluster, processor, kNoCutoff);
  }

  /// Total time with clusters c1 and c2 exchanging their committed hosts.
  Weight try_swap(NodeId c1, NodeId c2) { return try_swap(c1, c2, kNoCutoff); }

  /// Verdict trials (v2; hill-climb accept tests only need `total <
  /// incumbent`): as above, but the trial may stop the moment its running
  /// result is certified to reach `cutoff`. The returned value is the
  /// exact total when it is below the cutoff; otherwise it is a certified
  /// lower bound >= cutoff on the exact total (and may or may not be
  /// exact). Only a trial that ran to completion is committable — after a
  /// verdict exit has_pending() is false and commit() throws, which is
  /// never hit by keep-iff-better loops (they only commit totals below
  /// the incumbent they passed as the cutoff). Under version 1 the cutoff
  /// is ignored and every total is exact. kNoCutoff disables the verdict.
  Weight try_move(NodeId cluster, NodeId processor, Weight cutoff);
  Weight try_swap(NodeId c1, NodeId c2, Weight cutoff);

  /// Folds the most recent try_move/try_swap into the committed state.
  /// Requires has_pending().
  void commit();

  /// Discards the most recent trial (cheap; a subsequent try_* call
  /// discards it implicitly as well).
  void revert() noexcept { pending_ = Pending::kNone; }

 private:
  friend class EvalEngine;
  DeltaEval(const EvalEngine& engine, std::span<const NodeId> host_of,
            const EvalOptions& options, const DeltaOptions& delta_options);

  enum class Pending : std::uint8_t { kNone, kDelta, kFull };

  [[nodiscard]] bool cluster_moved(NodeId c) const noexcept {
    return c == moved_clusters_[0] || (moved_count_ == 2 && c == moved_clusters_[1]);
  }
  /// Committed host of a cluster while host_ temporarily holds trial hosts.
  [[nodiscard]] NodeId committed_host_during_trial(NodeId c) const noexcept {
    if (c == moved_clusters_[0]) return moved_old_hosts_[0];
    if (moved_count_ == 2 && c == moved_clusters_[1]) return moved_old_hosts_[1];
    return host_[idx(c)];
  }
  Weight run_trial(Weight cutoff);  // scores host_ (holding trial hosts) vs committed
  Weight run_trial_plain();     // v1 sparse bitmask-worklist path (no shared state)
  Weight run_trial_scan();      // v1 suffix-scan path (serialize / contention)
  Weight run_trial_plain_v2();  // v2: δ-shift markers + verdict exits
  Weight run_trial_scan_v2();   // v2: + link-bucketed claims (contention)
  Weight run_full_trial();      // fallback: full kernel into full_ws_
  /// v2 cutoff fallback: the dense kernel with certified early exit
  /// (EvalEngine::run_schedule_verdict). Certified -> sets verdict_exit_
  /// and leaves nothing pending; exact -> behaves like run_full_trial.
  Weight run_verdict_full_trial();
  std::size_t seed_dirty();     // marks the dirty seeds; returns scan anchor position

  /// v2 cutoff flow, stage 1: computes the distance-change masks and
  /// collects every cost-changed boundary-arc GROUP (the engine's
  /// per-cluster-pair sub-CSR) into probe_groups_ WITHOUT touching any
  /// dirty state, returning the scan anchor (np_ when the trial provably
  /// equals the committed schedule). One branch per cluster pair instead
  /// of per arc, and the cheap common case — a verdict — then leaves no
  /// marks to clean up.
  std::size_t collect_probe_groups();
  /// v2 cutoff flow, stage 2: tries to certify "total >= cutoff" from
  /// (a) the untouched prefix's committed end + tail0 potential and (b) a
  /// read-only greedy walk down ONE path from the strongest re-costed
  /// collected arc, accumulating exact lower-bound arrivals (comm costs
  /// included) against the tail0 potential. Returns a certified bound
  /// >= cutoff, or -1 when it cannot decide. O(collected arcs + DAG
  /// depth); touches no trial state.
  Weight verdict_probe(std::size_t anchor) const;
  /// The probe's greedy downstream walk from task v with lower-bound
  /// trial end b; returns a certified bound >= the trial cutoff, or -1.
  /// Also re-run mid-cascade from the first exactly-recomputed task,
  /// whose true end often clears what the probe's arc bounds could not.
  Weight greedy_walk_bound(NodeId v, Weight b) const;
  /// v2 cutoff flow, stage 3 (probe undecided): marks the collected
  /// groups' heads dirty, exactly as seed_dirty would have.
  void seed_from_collected();
  void apply_pending_hosts();
  void restore_committed_hosts();
  void rebuild_committed_aux();  // prefix max / max-holder count + contention claims
  /// v2 contention: link `li` diverges from the committed claim stream at
  /// bucket rank `rank` — record its live busy-until time and mark every
  /// later committed claimant of the link dirty (they must recompute).
  /// rank == -1 marks the whole bucket.
  void make_link_dirty(std::size_t li, std::int64_t rank, Weight live);

  const EvalEngine* engine_;
  const EvalEngine::DeltaTables* tables_;  // engine_->delta_tables()
  EvalOptions options_;
  DeltaOptions dopt_;
  int version_ = 2;  // resolved engine generation (DeltaOptions::version)
  std::size_t np_ = 0;
  std::size_t ns_ = 0;

  // Committed state.
  std::vector<NodeId> host_;    // cluster -> processor (trial hosts during run_trial)
  std::vector<Weight> start_;   // committed schedule, bit-identical to reference
  std::vector<Weight> end_;
  Weight committed_total_ = 0;
  std::size_t count_at_max_ = 0;        // tasks with end == committed_total_
  std::vector<Weight> prefix_max_end_;  // [i] = max end over topo positions [0, i)
  // v2: [i] = max of end + tail0 over topo positions [0, i) — the verdict
  // bound the untouched prefix alone certifies for any trial.
  std::vector<Weight> prefix_max_bound_;
  // v2 plain mode: ancestor-cluster masks of (up to a handful of) committed
  // makespan holders — a holder whose mask excludes both moved clusters
  // certifies total' >= committed total without any scan.
  std::vector<std::uint64_t> holder_reach_;
  // v2 verdict potentials. A trial moving only clusters {c1, c2} keeps
  // the exact committed transmission cost on every arc not adjacent to
  // them, so tail_pair(v) — the longest downstream path costing adjacent
  // arcs 0 and everything else its committed cost — is a far stronger
  // valid potential than the static node-weight-only tail0. Cached per
  // unordered pair (direct-mapped, invalidated on commit);
  // trial_potential_ points at the active potential for the running
  // trial's verdict checks.
  struct PairPotential {
    std::uint32_t key = ~0u;
    std::uint64_t commit_epoch = ~std::uint64_t{0};
    std::vector<Weight> tail;    // per-task downstream potential
    std::vector<Weight> prefix;  // [i] = max of end + tail over positions [0, i)
  };
  std::vector<PairPotential> pair_cache_;
  // Resolved cache configuration (DeltaOptions::potential_cache_* plus the
  // MIMDMAP_DELTA_CACHE env fallback; resolved once at construction).
  std::size_t cache_slots_ = 64;
  std::size_t cache_max_np_ = 100000;  // 0 = no ceiling
  std::uint64_t commit_epoch_ = 0;
  const Weight* trial_potential_ = nullptr;
  const Weight* trial_prefix_bound_ = nullptr;
  // v2: committed running-state checkpoints every 64 positions (proc_free
  // under serialize, link_free under contention), so a verdict-kernel
  // launch from a trial's anchor replays at most 63 positions of prefix
  // state instead of scheduling the whole prefix.
  std::vector<Weight> proc_ckpt_;
  std::vector<Weight> link_ckpt_;
  /// Returns the pair potential for the current moved clusters (computing
  /// or refreshing the cache slot as needed) and points
  /// trial_prefix_bound_ at the matching prefix table; engine tail0 /
  /// prefix_max_bound_ when disabled.
  const Weight* pair_potential();
  // Committed link claims (contention mode): claim k of topo position p is
  // claim_links_/claim_values_[claim_pos_offset_[p] .. [p+1]) — the link it
  // lands on and the link's busy-until time after the claim, in the exact
  // order the kernel issues them.
  std::vector<std::uint32_t> claim_pos_offset_;
  std::vector<std::int32_t> claim_links_;
  std::vector<Weight> claim_values_;
  // v2: per-claim sender task and message weight — the pair potential's
  // link-congestion floor attributes each claim's suffix load to the task
  // whose message holds the link.
  std::vector<NodeId> claim_senders_;
  std::vector<Weight> claim_weights_;
  // v2: the same committed claims bucketed by link (bucket entries of link
  // l are [bucket_offset_[l], bucket_offset_[l+1]), in claim-stream order),
  // so a link that diverges can mark exactly its later claimants dirty and
  // clean positions skip untouched links wholesale. claim_bucket_rank_
  // maps a global claim index to its rank inside its link's bucket — the
  // entry at rank - 1 holds the link's committed busy-until time right
  // before the claim.
  std::vector<std::uint32_t> bucket_offset_;
  std::vector<std::uint32_t> bucket_pos_;    // claiming task's topo position
  std::vector<Weight> bucket_value_;         // busy-until after the claim
  std::vector<std::uint32_t> bucket_claim_;  // global claim index (ascending)
  std::vector<std::uint32_t> claim_bucket_rank_;

  // Epoch-stamped trial scratch (bumping epoch_ invalidates all of it),
  // plus the plain-mode dirty bitmask (self-cleaning: every set bit is
  // cleared when its position is popped, so it is all-zero between trials).
  // During a trial, recomputed tasks write their trial end times *in place*
  // into end_ (so downstream reads are a single load) and run_trial()
  // rolls them back from touched_old_end_ before returning; trial values
  // survive in trial_start_/trial_end_ for commit().
  std::uint32_t epoch_ = 0;
  std::vector<std::uint64_t> dirty_bits_;    // plain mode, indexed by topo position
  std::vector<std::uint32_t> dirty_stamp_;   // scan modes: task must be recomputed
                                             // (v2 plain: task was *seeded*)
  // v2 δ-shift markers: a recomputed task whose end moved pushes its
  // successors' trial arrivals here at mark time; a popped task whose
  // marker max covers its committed start (or that heard from every
  // predecessor) closes in O(1) without rescanning its in-arcs.
  std::vector<std::uint32_t> marker_stamp_;
  std::vector<Weight> marker_max_;
  std::vector<std::uint32_t> marker_count_;
  std::vector<Weight> trial_start_;
  std::vector<Weight> trial_end_;
  std::vector<std::uint32_t> proc_dirty_stamp_;  // serialize widening
  std::vector<std::uint32_t> link_dirty_stamp_;  // contention widening
  std::vector<Weight> proc_free_;
  std::vector<Weight> link_free_;
  std::vector<NodeId> touched_;          // recomputed tasks of the pending trial
  std::vector<Weight> touched_old_end_;  // their committed end times (undo log)
  std::vector<unsigned char> in_changed_;   // per other-cluster distance-change
  std::vector<unsigned char> out_changed_;  // masks, [mover * ns + other]
  std::size_t seed_count_ = 0;   // distinct tasks seeded by the current trial
  std::size_t scan_anchor_ = 0;  // earliest affected topo position of the trial
  bool conservative_ = false;    // adaptive: fallbacks dominate, skip the scan
  std::vector<std::uint32_t> probe_groups_;  // v2 cutoff flow: changed arc groups

  // Pending trial bookkeeping.
  Pending pending_ = Pending::kNone;
  Weight trial_cutoff_ = kNoCutoff;  // verdict threshold of the running trial
  bool verdict_exit_ = false;        // current trial ended on a ">= cutoff" verdict
  int moved_count_ = 0;
  NodeId moved_clusters_[2] = {-1, -1};
  NodeId moved_old_hosts_[2] = {-1, -1};
  NodeId moved_new_hosts_[2] = {-1, -1};
  Weight pending_total_ = 0;
  EvalWorkspace full_ws_;  // holds the schedule of a full-fallback trial
  std::size_t full_start_pos_ = 0;  // anchored-launch position of full_ws_'s content

  DeltaStats stats_;
};

}  // namespace mimdmap
