// Randomized cross-kernel equivalence harness for the SoA batch kernel.
//
// EvalEngine::evaluate_batch_soa promises, for every lane of every wave,
// totals bit-identical to the scalar trial kernel (trial_total_time) and to
// the legacy reference oracle (evaluate_reference) in all evaluation modes,
// for every wave width — including ragged tail waves — and every thread
// count; and, under an incumbent cutoff, exact totals below the cutoff and
// certified ">= cutoff" bounds for early-exited lanes. This suite drives
// randomized candidate batches across DAG shapes x topologies x modes x
// widths {1, 2, 7, 32} x thread counts, re-checks every early-exited lane
// without the cutoff, checks the ideal-graph tail potential on every
// topology family, distance model and cost model, and pins the width
// resolution rules (request / MIMDMAP_EVAL_WIDTH / cache-footprint auto).
#include "core/eval_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/random_mapping.hpp"
#include "cluster/strategies.hpp"
#include "core/refinement.hpp"
#include "graph/topological.hpp"
#include "obs/metrics.hpp"
#include "topology/factory.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"
#include "workload/rng.hpp"
#include "workload/structured.hpp"

namespace mimdmap {
namespace {

std::vector<SystemGraph> test_topologies() {
  return {make_hypercube(3), make_mesh(2, 4), make_random_connected(8, 0.25, 3)};
}

std::vector<EvalOptions> all_modes() {
  return {EvalOptions{},
          EvalOptions{.serialize_within_processor = true},
          EvalOptions{.link_contention = true},
          EvalOptions{.serialize_within_processor = true, .link_contention = true}};
}

std::string mode_name(const EvalOptions& mode) {
  return std::string(" serialize=") + std::to_string(mode.serialize_within_processor) +
         " contention=" + std::to_string(mode.link_contention);
}

std::vector<TaskGraph> dag_shapes(std::uint64_t seed) {
  std::vector<TaskGraph> shapes;
  LayeredDagParams layered;
  layered.num_tasks = node_id(40 + 25 * (seed % 3));
  shapes.push_back(make_layered_dag(layered, seed));
  StructuredWeights sw{{1, 9}, {1, 9}, seed + 3};
  shapes.push_back(make_diamond(5, 5, sw));
  return shapes;
}

/// Candidate batches mix permutations with arbitrary (possibly
/// many-to-one) cluster -> processor maps; the reference oracle only
/// accepts the former.
std::vector<std::vector<NodeId>> make_candidates(NodeId ns, std::size_t count, Rng& rng) {
  std::vector<std::vector<NodeId>> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % 3 == 2) {
      std::vector<NodeId> host(idx(ns));
      for (NodeId& p : host) p = static_cast<NodeId>(rng.uniform(0, ns - 1));
      hosts.push_back(std::move(host));
    } else {
      hosts.push_back(random_assignment(ns, rng).host_of_vector());
    }
  }
  return hosts;
}

bool is_permutation(const std::vector<NodeId>& host) {
  std::vector<bool> seen(host.size(), false);
  for (const NodeId p : host) {
    if (p < 0 || idx(p) >= host.size() || seen[idx(p)]) return false;
    seen[idx(p)] = true;
  }
  return true;
}

TEST(SoaKernelTest, BitIdenticalToScalarAndReferenceForAllWidthsAndThreads) {
  // 37 candidates make every tested width ragged (37 = 18*2+1 = 5*7+2 =
  // 32+5), so the tail wave is always narrower than the width.
  constexpr std::size_t kCandidates = 37;
  std::int64_t checked = 0;
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    for (TaskGraph& g : dag_shapes(seed)) {
      for (const SystemGraph& sys : test_topologies()) {
        const NodeId ns = sys.node_count();
        const Clustering c = random_clustering(g, ns, seed + 11);
        const MappingInstance inst(g, c, sys);
        const EvalEngine engine(inst);
        Rng rng(seed * 211 + 17);
        const auto hosts = make_candidates(ns, kCandidates, rng);
        for (const EvalOptions& mode : all_modes()) {
          // The scalar engine path is the per-candidate ground truth; the
          // legacy reference pins it to the pre-engine implementation.
          std::vector<Weight> expected(hosts.size());
          EvalWorkspace scalar_ws;
          for (std::size_t i = 0; i < hosts.size(); ++i) {
            expected[i] = engine.trial_total_time(hosts[i], mode, scalar_ws);
            if (is_permutation(hosts[i])) {
              ASSERT_EQ(expected[i],
                        evaluate_reference(inst, Assignment::from_host_of(hosts[i]), mode)
                            .total_time)
                  << "seed=" << seed << " sys=" << sys.name() << mode_name(mode) << " i=" << i;
            }
          }
          for (const int width : {1, 2, 7, 32}) {
            for (const int threads : {1, 2, 8}) {
              std::vector<Weight> totals(hosts.size(), -1);
              engine.batch_total_times(hosts, mode, threads, width, totals);
              ASSERT_EQ(totals, expected)
                  << "seed=" << seed << " sys=" << sys.name() << mode_name(mode)
                  << " width=" << width << " threads=" << threads;
              checked += static_cast<std::int64_t>(hosts.size());
            }
          }
        }
      }
    }
  }
  EXPECT_GE(checked, 3000);
}

TEST(SoaKernelTest, DirectKernelCallsReuseOneWorkspaceStatelessly) {
  // One SoaWorkspace recycled across widths and modes must never leak
  // state between waves (mode tables are refilled, end rows rewritten).
  LayeredDagParams p;
  p.num_tasks = 60;
  const TaskGraph g = make_layered_dag(p, 7);
  const MappingInstance inst(g, random_clustering(g, 8, 5), make_mesh(2, 4));
  const EvalEngine engine(inst);
  Rng rng(99);
  const auto hosts = make_candidates(8, 32, rng);
  EvalWorkspace scalar_ws;
  SoaWorkspace soa_ws;
  for (int pass = 0; pass < 2; ++pass) {
    for (const EvalOptions& mode : all_modes()) {
      for (const std::size_t wave : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
        for (std::size_t begin = 0; begin < hosts.size(); begin += wave) {
          const std::size_t m = std::min(wave, hosts.size() - begin);
          std::vector<Weight> totals(m, -1);
          engine.evaluate_batch_soa(std::span(hosts.data() + begin, m), mode, soa_ws, totals);
          for (std::size_t i = 0; i < m; ++i) {
            EXPECT_EQ(totals[i], engine.trial_total_time(hosts[begin + i], mode, scalar_ws))
                << "pass=" << pass << mode_name(mode) << " wave=" << wave << " i=" << i;
          }
        }
      }
    }
  }
}

TEST(SoaKernelTest, CutoffLanesAreExactBelowAndCertifiedBoundsAbove) {
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    LayeredDagParams p;
    p.num_tasks = node_id(50 + 20 * seed);
    const TaskGraph g = make_layered_dag(p, seed + 23);
    const MappingInstance inst(g, random_clustering(g, 8, seed + 2), make_hypercube(3));
    const EvalEngine engine(inst);
    Rng rng(seed * 31 + 4);
    const auto hosts = make_candidates(8, 37, rng);
    for (const EvalOptions& mode : all_modes()) {
      std::vector<Weight> exact(hosts.size());
      EvalWorkspace scalar_ws;
      for (std::size_t i = 0; i < hosts.size(); ++i) {
        exact[i] = engine.trial_total_time(hosts[i], mode, scalar_ws);
      }
      // A mid-range incumbent guarantees both exits and survivors.
      std::vector<Weight> sorted = exact;
      std::sort(sorted.begin(), sorted.end());
      const Weight cutoff = sorted[sorted.size() / 2];
      for (const int width : {2, 7, 32}) {
        std::vector<Weight> totals(hosts.size(), -1);
        engine.batch_total_times(hosts, mode, /*num_threads=*/1, width, totals, cutoff);
        std::vector<std::vector<NodeId>> exited;
        std::vector<Weight> exited_exact;
        std::size_t survivors = 0;
        for (std::size_t i = 0; i < hosts.size(); ++i) {
          const std::string what = "seed=" + std::to_string(seed) + mode_name(mode) +
                                   " width=" + std::to_string(width) + " i=" + std::to_string(i);
          if (totals[i] < cutoff) {
            // Below the incumbent the kernel must be exact.
            EXPECT_EQ(totals[i], exact[i]) << what;
            ++survivors;
          } else {
            // At or above it the report is a certified lower bound: the
            // exact total really is >= cutoff, and the bound never
            // overshoots it.
            EXPECT_GE(exact[i], cutoff) << what;
            EXPECT_LE(totals[i], exact[i]) << what;
            exited.push_back(hosts[i]);
            exited_exact.push_back(exact[i]);
          }
        }
        EXPECT_GT(survivors, 0u) << mode_name(mode);
        ASSERT_FALSE(exited.empty()) << mode_name(mode);
        // Early-exited lanes re-checked without the cutoff must come back
        // bit-identical to the scalar kernel / reference.
        std::vector<Weight> recheck(exited.size(), -1);
        engine.batch_total_times(exited, mode, /*num_threads=*/1, width, recheck);
        EXPECT_EQ(recheck, exited_exact) << mode_name(mode) << " width=" << width;
      }
    }
  }
}

/// The ideal-graph tail straight off the problem graph: tail[v] = max over
/// successors s of (clustered weight of v -> s) + weight(s) + tail[s].
std::vector<Weight> reference_ideal_tail(const MappingInstance& inst) {
  const TaskGraph& g = inst.problem();
  const std::vector<NodeId> topo = topological_order(g).value();
  std::vector<Weight> tail(idx(g.node_count()), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const NodeId v = *it;
    for (const auto& [s, w] : g.successors(v)) {
      const Weight message = inst.clustering().same_cluster(v, s) ? 0 : w;
      tail[idx(v)] = std::max(tail[idx(v)], message + g.node_weight(s) + tail[idx(s)]);
    }
  }
  return tail;
}

/// `sys` with link weights 1..3, so weighted distances differ from hops.
SystemGraph reweighted(const SystemGraph& sys, std::uint64_t seed) {
  Rng rng(seed);
  SystemGraph out(sys.node_count(), sys.name() + "-weighted");
  for (const SystemLink& link : sys.links()) out.add_link(link.a, link.b, rng.uniform(1, 3));
  return out;
}

TEST(SoaKernelTest, IdealTailPotentialIsSoundOnEveryTopologyFamily) {
  // One machine per factory family (ns <= 64), block and random
  // clustering, both distance models, every cost model. The engine's tail
  // matches the recurrence above, and under it permutation candidates are
  // exact below a mid-range cutoff and certified at or above it: the bound
  // never overshoots the exact total and the exact total really reaches
  // the cutoff.
  const std::vector<std::string> specs = {
      "hypercube-6",    "mesh-3x4",     "torus-3x4", "ring-9",       "star-7",
      "chain-6",        "complete-6",   "tree-2x3",  "random-12-25-7", "mesh3d-2x2x3",
      "debruijn-3",     "ccc-3",        "chordal-10-3", "bipartite-3x4"};
  ASSERT_EQ(specs.size(), topology_families().size());
  constexpr std::size_t kCandidates = 40;
  std::int64_t exact_lanes = 0;
  std::int64_t cut_lanes = 0;
  for (std::size_t f = 0; f < specs.size(); ++f) {
    const SystemGraph unit = make_topology(specs[f]);
    const NodeId ns = unit.node_count();
    LayeredDagParams p;
    p.num_tasks = node_id(std::min<std::size_t>(6 * idx(ns) + 40, 240));
    const TaskGraph g = make_layered_dag(p, f + 1);
    for (const bool block : {true, false}) {
      const Clustering c = block ? block_clustering(g, ns) : random_clustering(g, ns, f + 7);
      for (const DistanceModel model : {DistanceModel::kHops, DistanceModel::kWeightedLinks}) {
        const bool weighted = model == DistanceModel::kWeightedLinks;
        const MappingInstance inst(g, c, weighted ? reweighted(unit, f + 3) : unit, model);
        const EvalEngine engine(inst);
        const std::string where = specs[f] + (block ? " block" : " random") +
                                  (weighted ? " weighted" : " hops");
        const std::span<const Weight> tail = engine.ideal_tail();
        ASSERT_EQ(std::vector<Weight>(tail.begin(), tail.end()), reference_ideal_tail(inst))
            << where;
        Rng rng(f * 131 + (block ? 17 : 0) + (weighted ? 5 : 0));
        std::vector<std::vector<NodeId>> hosts;
        for (std::size_t i = 0; i < kCandidates; ++i) {
          hosts.push_back(random_assignment(ns, rng).host_of_vector());
        }
        for (const EvalOptions& mode : all_modes()) {
          std::vector<Weight> exact(kCandidates);
          for (std::size_t i = 0; i < kCandidates; ++i) {
            exact[i] =
                evaluate_reference(inst, Assignment::from_host_of(hosts[i]), mode).total_time;
          }
          std::vector<Weight> sorted = exact;
          std::sort(sorted.begin(), sorted.end());
          const Weight cutoff = sorted[sorted.size() / 2];
          for (const int width : {8, 32}) {
            std::vector<Weight> totals(kCandidates, -1);
            engine.batch_total_times(hosts, mode, /*num_threads=*/1, width, totals, cutoff, tail);
            for (std::size_t i = 0; i < kCandidates; ++i) {
              const std::string what = where + mode_name(mode) +
                                       " width=" + std::to_string(width) +
                                       " i=" + std::to_string(i);
              if (totals[i] < cutoff) {
                EXPECT_EQ(totals[i], exact[i]) << what;
                ++exact_lanes;
              } else {
                EXPECT_LE(totals[i], exact[i]) << what;
                EXPECT_GE(exact[i], cutoff) << what;
                ++cut_lanes;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(exact_lanes, 0);
  EXPECT_GT(cut_lanes, 0);
}

TEST(SoaKernelTest, IdealTailIsNoBoundForMapsThatStackClusters) {
  // Two clusters on one processor exchange their message for free, so
  // end + tail can exceed the exact total. That is why the engine never
  // applies the tail by itself and only refine(), whose candidates are
  // permutations, passes it.
  TaskGraph g(2);
  g.set_node_weight(0, 2);
  g.set_node_weight(1, 3);
  g.add_edge(0, 1, 10);
  const MappingInstance inst(g, Clustering({0, 1}, 2), make_chain(2));
  const EvalEngine engine(inst);
  const std::vector<std::vector<NodeId>> stacked = {{0, 0}};
  EvalWorkspace ws;
  const Weight exact = engine.trial_total_time(stacked[0], {}, ws);
  ASSERT_EQ(exact, 5);
  EXPECT_EQ(engine.ideal_tail()[0], 13);  // the message (10) plus task 1 (3)
  std::vector<Weight> totals(1, -1);
  engine.batch_total_times(stacked, {}, /*num_threads=*/1, /*width=*/8, totals, exact + 1,
                           engine.ideal_tail());
  EXPECT_GT(totals[0], exact);  // a false "bound": a winner would be rejected
  engine.batch_total_times(stacked, {}, /*num_threads=*/1, /*width=*/8, totals, exact + 1);
  EXPECT_EQ(totals[0], exact);
  // Wrong-sized potentials are rejected on the calling thread.
  const std::vector<Weight> short_potential(1, 0);
  EXPECT_THROW(engine.batch_total_times(stacked, {}, 1, 8, totals, exact, short_potential),
               std::invalid_argument);
}

struct Pipeline {
  MappingInstance instance;
  IdealSchedule ideal;
  InitialAssignmentResult initial;
};

Pipeline build_pipeline(NodeId np, const SystemGraph& sys, std::uint64_t seed,
                        bool block = false) {
  LayeredDagParams p;
  p.num_tasks = np;
  TaskGraph g = make_layered_dag(p, seed);
  Clustering c = block ? block_clustering(g, sys.node_count())
                       : random_clustering(g, sys.node_count(), seed + 1);
  MappingInstance inst(std::move(g), std::move(c), sys);
  IdealSchedule ideal = compute_ideal_schedule(inst);
  InitialAssignmentResult initial = initial_assignment(inst, find_critical(inst, ideal));
  return Pipeline{std::move(inst), std::move(ideal), std::move(initial)};
}

/// Refines `pl` at width 1 (the scalar path: exact totals, no cutoff, no
/// potential) and at every wave width and thread count, expecting
/// identical results.
void expect_refine_width_invariant(const Pipeline& pl, std::uint64_t seed,
                                   std::int64_t max_trials, const std::string& where) {
  const EvalEngine engine(pl.instance);
  for (const EvalOptions& mode : all_modes()) {
    RefineOptions scalar;
    scalar.seed = seed * 13 + 5;
    scalar.max_trials = max_trials;
    scalar.eval = mode;
    scalar.eval_width = 1;
    const RefineResult base = refine(engine, pl.ideal, pl.initial, scalar);
    for (const int width : {2, 7, 32}) {
      for (const int threads : {1, 8}) {
        RefineOptions wide = scalar;
        wide.eval_width = width;
        wide.num_threads = threads;
        const RefineResult r = refine(engine, pl.ideal, pl.initial, wide);
        const std::string what = where + mode_name(mode) + " width=" + std::to_string(width) +
                                 " threads=" + std::to_string(threads);
        EXPECT_EQ(r.assignment, base.assignment) << what;
        EXPECT_EQ(r.schedule.total_time, base.schedule.total_time) << what;
        EXPECT_EQ(r.schedule.start, base.schedule.start) << what;
        EXPECT_EQ(r.schedule.end, base.schedule.end) << what;
        EXPECT_EQ(r.trials_used, base.trials_used) << what;
        EXPECT_EQ(r.improvements, base.improvements) << what;
        EXPECT_EQ(r.reached_lower_bound, base.reached_lower_bound) << what;
        EXPECT_EQ(r.terminated_early, base.terminated_early) << what;
      }
    }
  }
}

TEST(SoaKernelTest, RefineAcceptStreamIsBitIdenticalForEveryWidth) {
  // The whole refinement — trial order, accept/reject stream, termination,
  // diagnostics — must not depend on the SoA width or thread count, even
  // though wider waves early-exit against the incumbent and its tail.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const SystemGraph& sys : test_topologies()) {
      expect_refine_width_invariant(build_pipeline(60, sys, seed), seed, 48,
                                    "seed=" + std::to_string(seed) + " sys=" + sys.name());
    }
  }
  // The shape where the tail cuts most: block-clustered layered graphs of
  // about 2k tasks on 64-processor machines.
  for (const char* spec : {"hypercube-6", "torus-8x8"}) {
    expect_refine_width_invariant(build_pipeline(2000, make_topology(spec), 41, true), 41, 64,
                                  std::string("np=2000 block sys=") + spec);
  }
}

TEST(SoaKernelTest, RefineCountsLaneWorkAndCutoffExits) {
  // The registry's SoA counters show how much of each candidate's
  // schedule a refine walks: on a block-clustered layered instance the
  // incumbent and the tail retire lanes long before the last task.
  const Pipeline pl = build_pipeline(2000, make_topology("torus-8x8"), 7, true);
  const EvalEngine engine(pl.instance);
  obs::Counter& lane_tasks = obs::registry().counter("mimdmap_eval_soa_lane_tasks_total");
  obs::Counter& exits = obs::registry().counter("mimdmap_eval_soa_cutoff_exits_total");
  RefineOptions opts;
  opts.eval_width = 8;
  opts.num_threads = 1;
  opts.max_trials = 64;
  opts.use_termination_condition = false;  // every trial is evaluated
  const std::uint64_t tasks_before = lane_tasks.value();
  const std::uint64_t exits_before = exits.value();
  const RefineResult r = refine(engine, pl.ideal, pl.initial, opts);
  ASSERT_EQ(r.trials_used, 64);
  const std::uint64_t walked = lane_tasks.value() - tasks_before;
  const std::uint64_t np = idx(pl.instance.num_tasks());
  EXPECT_GT(walked, 0u);
  EXPECT_LT(walked, 64 * np);  // under W * np per wave of W = 8
  EXPECT_GT(exits.value() - exits_before, 0u);
}

TEST(SoaKernelTest, RandomBaselineMatchesLegacyScalarLoop) {
  // evaluate_random_mappings now scores its mappings in SoA waves; the
  // totals must replay the legacy one-trial-at-a-time loop exactly.
  LayeredDagParams p;
  p.num_tasks = 70;
  const TaskGraph g = make_layered_dag(p, 3);
  const MappingInstance inst(g, random_clustering(g, 8, 9), make_hypercube(3));
  const EvalEngine engine(inst);
  for (const EvalOptions& mode : all_modes()) {
    const RandomMappingStats stats = evaluate_random_mappings(engine, 23, 77, mode);
    Rng rng(77);
    EvalWorkspace ws;
    std::vector<Weight> legacy;
    for (int t = 0; t < 23; ++t) {
      legacy.push_back(
          engine.trial_total_time(random_assignment(8, rng).host_of_vector(), mode, ws));
    }
    EXPECT_EQ(stats.totals, legacy) << mode_name(mode);
  }
}

TEST(SoaKernelTest, ResolveBatchWidthHonorsRequestEnvAndFootprint) {
  LayeredDagParams p;
  p.num_tasks = 80;
  const TaskGraph g = make_layered_dag(p, 13);
  const MappingInstance inst(g, random_clustering(g, 8, 1), make_hypercube(3));
  const EvalEngine engine(inst);

  // Save the ambient setting (the CI matrix pins MIMDMAP_EVAL_WIDTH=1 for
  // one job) and restore it on every exit path.
  const char* ambient = std::getenv("MIMDMAP_EVAL_WIDTH");
  const std::string saved = ambient == nullptr ? "" : ambient;
  struct RestoreEnv {
    const std::string* saved;
    ~RestoreEnv() {
      if (saved->empty()) {
        unsetenv("MIMDMAP_EVAL_WIDTH");
      } else {
        setenv("MIMDMAP_EVAL_WIDTH", saved->c_str(), 1);
      }
    }
  } restore{&saved};

  // Explicit requests pass through; negatives collapse to the scalar path.
  EXPECT_EQ(engine.resolve_batch_width(5), 5);
  EXPECT_EQ(engine.resolve_batch_width(-3), 1);

  // The env var decides "auto"; "auto" itself (the CI matrix value) and
  // invalid values fall through to the tuner.
  setenv("MIMDMAP_EVAL_WIDTH", "9", 1);
  EXPECT_EQ(engine.resolve_batch_width(0), 9);
  EXPECT_EQ(engine.resolve_batch_width(4), 4);  // explicit beats env
  setenv("MIMDMAP_EVAL_WIDTH", "bogus", 1);
  EXPECT_GE(engine.resolve_batch_width(0), 1);
  unsetenv("MIMDMAP_EVAL_WIDTH");
  const int tuned = engine.resolve_batch_width(0);
  setenv("MIMDMAP_EVAL_WIDTH", "auto", 1);
  EXPECT_EQ(engine.resolve_batch_width(0), tuned);
  unsetenv("MIMDMAP_EVAL_WIDTH");

  // Footprint auto-tune: deterministic, within the clamp, and monotone —
  // the contention tables enlarge the per-lane state, so the width cannot
  // grow when contention is enabled.
  const int plain = engine.resolve_batch_width(0, EvalOptions{});
  const int contention = engine.resolve_batch_width(0, EvalOptions{.link_contention = true});
  EXPECT_GE(plain, 1);
  EXPECT_LE(plain, 32);
  EXPECT_GE(contention, 1);
  EXPECT_LE(contention, plain);
  EXPECT_EQ(engine.resolve_batch_width(0, EvalOptions{}), plain);  // deterministic
}

TEST(SoaKernelTest, ResolveBatchWidthKeepsLanesOnHugeInstances) {
  // Regression: once eight lanes' SoA state outgrows the cache budget
  // (np above ~4k) the quotient used to drop the auto width as low as 1,
  // and width 1 runs the scalar kernel without the incumbent cutoff. The
  // floor of 8 holds on both sides of np ~32.7k, where one lane alone
  // exceeds the budget.
  const char* ambient = std::getenv("MIMDMAP_EVAL_WIDTH");
  const std::string saved = ambient == nullptr ? "" : ambient;
  struct RestoreEnv {
    const std::string* saved;
    ~RestoreEnv() {
      if (saved->empty()) {
        unsetenv("MIMDMAP_EVAL_WIDTH");
      } else {
        setenv("MIMDMAP_EVAL_WIDTH", saved->c_str(), 1);
      }
    }
  } restore{&saved};
  unsetenv("MIMDMAP_EVAL_WIDTH");

  for (const NodeId np : {5000, 20000, 30000, 40000}) {
    LayeredDagParams p;
    p.num_tasks = np;
    p.num_layers = 200;
    const TaskGraph g = make_layered_dag(p, 21);
    const MappingInstance inst(g, random_clustering(g, 8, 2), make_hypercube(3));
    const EvalEngine engine(inst);
    EXPECT_GE(engine.resolve_batch_width(0), 8) << "np=" << np;
    EXPECT_GE(engine.resolve_batch_width(0, EvalOptions{.link_contention = true}), 8)
        << "np=" << np;
    EXPECT_LE(engine.resolve_batch_width(0), 32) << "np=" << np;
  }
}

TEST(SoaKernelTest, RejectsBadArguments) {
  TaskGraph g(4);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 1);
  g.add_edge(2, 3, 1);
  const MappingInstance inst(g, Clustering({0, 0, 1, 1}, 2), make_chain(2));
  const EvalEngine engine(inst);
  SoaWorkspace ws;
  const std::vector<std::vector<NodeId>> ok(3, std::vector<NodeId>{0, 1});
  std::vector<Weight> short_totals(2, 0);
  EXPECT_THROW(engine.evaluate_batch_soa(ok, {}, ws, short_totals), std::invalid_argument);
  std::vector<Weight> totals(3, 0);
  const std::vector<std::vector<NodeId>> bad(3, std::vector<NodeId>{0, 1, 0});
  EXPECT_THROW(engine.evaluate_batch_soa(bad, {}, ws, totals), std::invalid_argument);
  EXPECT_THROW(engine.batch_total_times(ok, {}, 1, 4, short_totals), std::invalid_argument);
  // Mis-sized candidates are rejected on the calling thread, before any
  // wave reaches a pool worker (which must not throw), for every width.
  EXPECT_THROW(engine.batch_total_times(bad, {}, 8, 2, totals), std::invalid_argument);
  EXPECT_THROW(engine.batch_total_times(bad, {}, 8, 1, totals), std::invalid_argument);
  // Empty batches are a no-op.
  engine.evaluate_batch_soa({}, {}, ws, totals);
}

}  // namespace
}  // namespace mimdmap
