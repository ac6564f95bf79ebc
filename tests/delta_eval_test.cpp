// Equivalence and regression suite for the incremental delta evaluator.
//
// DeltaEval promises totals bit-identical to evaluate_reference() on the
// materialized assignment in every evaluation mode, for any interleaving of
// try_move / try_swap / commit / revert — including non-bijective host maps
// produced by try_move, which the reference Assignment type cannot
// represent (those are checked against the engine's full kernel, itself
// pinned to the reference by tests/eval_engine_test.cpp). The suite drives
// thousands of randomized move sequences across DAG shapes x topologies x
// all eval modes, plus explicit fallback-threshold crossings, the
// pre-delta pairwise/annealing replay, and the thread-clamp / auto-thread
// satellite regressions.
#include "core/eval_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <latch>
#include <thread>

#include "baseline/annealing.hpp"
#include "baseline/pairwise.hpp"
#include "baseline/random_mapping.hpp"
#include "cluster/strategies.hpp"
#include "core/mapper.hpp"
#include "core/refinement.hpp"
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
  shapes.push_back(make_fork_join(6, 3, sw));
  shapes.push_back(make_diamond(5, 5, sw));
  return shapes;
}

bool is_permutation(const std::vector<NodeId>& host) {
  std::vector<bool> seen(host.size(), false);
  for (const NodeId p : host) {
    if (p < 0 || idx(p) >= host.size() || seen[idx(p)]) return false;
    seen[idx(p)] = true;
  }
  return true;
}

TEST(DeltaEvalTest, RandomizedMoveSwapCommitRevertMatchesFullKernel) {
  // Thousands of randomized trials: every delta total must equal the full
  // kernel on the materialized host map, and (when the map is a
  // permutation) the legacy reference oracle as well.
  std::int64_t checked = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (TaskGraph& g : dag_shapes(seed)) {
      for (const SystemGraph& sys : test_topologies()) {
        const NodeId ns = sys.node_count();
        const Clustering c = random_clustering(g, ns, seed + 11);
        const MappingInstance inst(g, c, sys);
        const EvalEngine engine(inst);
        Rng rng(seed * 101 + 13);
        for (const EvalOptions& mode : all_modes()) {
          std::vector<NodeId> shadow =
              random_assignment(ns, rng).host_of_vector();  // committed oracle state
          DeltaEval delta = engine.begin_delta(shadow, mode);
          EvalWorkspace oracle_ws;
          for (int op = 0; op < 30; ++op) {
            std::vector<NodeId> trial = shadow;
            Weight got = 0;
            const auto kind = rng.uniform(0, 9);
            if (kind < 5) {
              NodeId c1 = static_cast<NodeId>(rng.uniform(0, ns - 1));
              NodeId c2 = static_cast<NodeId>(rng.uniform(0, ns - 1));
              got = delta.try_swap(c1, c2);
              std::swap(trial[idx(c1)], trial[idx(c2)]);
            } else {
              const NodeId cl = static_cast<NodeId>(rng.uniform(0, ns - 1));
              const NodeId p = static_cast<NodeId>(rng.uniform(0, ns - 1));
              got = delta.try_move(cl, p);
              trial[idx(cl)] = p;
            }
            const Weight want = engine.trial_total_time(trial, mode, oracle_ws);
            ASSERT_EQ(got, want) << "seed=" << seed << mode_name(mode) << " op=" << op;
            if (is_permutation(trial)) {
              ASSERT_EQ(got, evaluate_reference(inst, Assignment::from_host_of(trial), mode)
                                 .total_time)
                  << "seed=" << seed << mode_name(mode) << " op=" << op;
            }
            ++checked;
            const auto decision = rng.uniform(0, 2);
            if (decision == 0) {
              delta.commit();
              shadow = trial;
            } else if (decision == 1) {
              delta.revert();
            }  // else: leave pending; the next try_* discards it
            ASSERT_EQ(delta.committed_total(),
                      engine.trial_total_time(shadow, mode, oracle_ws))
                << "committed state diverged, seed=" << seed << mode_name(mode);
          }
        }
      }
    }
  }
  EXPECT_GE(checked, 3000);
}

TEST(DeltaEvalTest, FallbackThresholdCrossingIsBitIdentical) {
  // fallback_fraction = 0 forces the full kernel on every non-trivial
  // trial; 1 disables the fallback entirely. Both ends and the default must
  // agree on every total.
  LayeredDagParams p;
  p.num_tasks = 80;
  const TaskGraph g = make_layered_dag(p, 5);
  const MappingInstance inst(g, random_clustering(g, 8, 6), make_hypercube(3));
  const EvalEngine engine(inst);
  for (const EvalOptions& mode : all_modes()) {
    Rng rng(77);
    const std::vector<NodeId> host = random_assignment(8, rng).host_of_vector();
    DeltaEval always_full = engine.begin_delta(host, mode, DeltaOptions{.fallback_fraction = 0.0});
    DeltaEval never_full = engine.begin_delta(host, mode, DeltaOptions{.fallback_fraction = 1.0});
    DeltaEval defaulted = engine.begin_delta(host, mode);
    for (int op = 0; op < 40; ++op) {
      const NodeId c1 = static_cast<NodeId>(rng.uniform(0, 7));
      NodeId c2 = static_cast<NodeId>(rng.uniform(0, 6));
      if (c2 >= c1) ++c2;
      const Weight full = always_full.try_swap(c1, c2);
      const Weight incr = never_full.try_swap(c1, c2);
      const Weight dflt = defaulted.try_swap(c1, c2);
      ASSERT_EQ(full, incr) << mode_name(mode) << " op=" << op;
      ASSERT_EQ(full, dflt) << mode_name(mode) << " op=" << op;
      if (op % 3 == 0) {
        always_full.commit();
        never_full.commit();
        defaulted.commit();
      }
    }
    EXPECT_EQ(always_full.stats().full_fallbacks, always_full.stats().trials) << mode_name(mode);
    EXPECT_EQ(never_full.stats().full_fallbacks, 0) << mode_name(mode);
    EXPECT_GT(never_full.stats().delta_trials, 0) << mode_name(mode);
  }
}

TEST(DeltaEvalTest, CommitAfterFallbackKeepsCommittedStateExact) {
  // A committed full-fallback trial must leave exactly the same committed
  // state as a committed incremental trial.
  LayeredDagParams p;
  p.num_tasks = 60;
  const TaskGraph g = make_layered_dag(p, 9);
  const MappingInstance inst(g, random_clustering(g, 8, 2), make_mesh(2, 4));
  const EvalEngine engine(inst);
  const EvalOptions mode{.link_contention = true};
  Rng rng(31);
  std::vector<NodeId> host = random_assignment(8, rng).host_of_vector();
  DeltaEval a = engine.begin_delta(host, mode, DeltaOptions{.fallback_fraction = 0.0});
  DeltaEval b = engine.begin_delta(host, mode, DeltaOptions{.fallback_fraction = 1.0});
  EvalWorkspace ws;
  for (int op = 0; op < 20; ++op) {
    const NodeId c1 = static_cast<NodeId>(rng.uniform(0, 7));
    NodeId c2 = static_cast<NodeId>(rng.uniform(0, 6));
    if (c2 >= c1) ++c2;
    ASSERT_EQ(a.try_swap(c1, c2), b.try_swap(c1, c2)) << op;
    a.commit();
    b.commit();
    std::swap(host[idx(c1)], host[idx(c2)]);
    const Weight want = engine.trial_total_time(host, mode, ws);
    ASSERT_EQ(a.committed_total(), want) << op;
    ASSERT_EQ(b.committed_total(), want) << op;
  }
}

TEST(DeltaEvalTest, NoOpMovesAndEmptyClustersAreExact) {
  // Moving a cluster onto its own processor, "swapping" a cluster with
  // itself, and moving an empty cluster must all return the committed
  // total and commit cleanly.
  TaskGraph g(6);
  for (NodeId v = 0; v + 1 < 6; ++v) g.add_edge(v, v + 1, 2);
  // Cluster 3 is empty: four processors, tasks packed into three clusters.
  const Clustering c({0, 0, 1, 1, 2, 2}, 4);
  const MappingInstance inst(g, c, make_mesh(2, 2));
  const EvalEngine engine(inst);
  for (const EvalOptions& mode : all_modes()) {
    DeltaEval delta = engine.begin_delta(Assignment::identity(4), mode);
    const Weight base = delta.committed_total();
    EXPECT_EQ(delta.try_move(1, 1), base) << mode_name(mode);
    delta.commit();
    EXPECT_EQ(delta.try_swap(2, 2), base) << mode_name(mode);
    delta.commit();
    EXPECT_EQ(delta.try_move(3, 0), base) << mode_name(mode);  // empty cluster moves
    delta.commit();
    EXPECT_EQ(delta.committed_host_of(3), 0) << mode_name(mode);
    EXPECT_EQ(delta.committed_total(), base) << mode_name(mode);
  }
}

TEST(DeltaEvalTest, RejectsInvalidArguments) {
  TaskGraph g(2);
  g.add_edge(0, 1, 1);
  const MappingInstance inst(g, Clustering({0, 1}, 2), make_chain(2));
  const EvalEngine engine(inst);
  EXPECT_THROW((void)engine.begin_delta(Assignment::partial(2)), std::invalid_argument);
  DeltaEval delta = engine.begin_delta(Assignment::identity(2));
  EXPECT_THROW((void)delta.try_move(5, 0), std::invalid_argument);
  EXPECT_THROW((void)delta.try_swap(0, 9), std::invalid_argument);
  EXPECT_THROW(delta.commit(), std::logic_error);  // nothing pending
  (void)delta.try_swap(0, 1);
  delta.revert();
  EXPECT_THROW(delta.commit(), std::logic_error);  // revert cleared it
}

// --- pre-delta behaviour replay ---------------------------------------------

/// The pairwise random-exchange loop exactly as it was before the delta
/// rewiring: full-kernel trial per candidate swap.
RefineResult legacy_pairwise_exchange(const EvalEngine& engine, const IdealSchedule& ideal,
                                      const InitialAssignmentResult& initial,
                                      const RefineOptions& options) {
  RefineResult r;
  r.assignment = initial.assignment;
  r.schedule = engine.evaluate(r.assignment, options.eval);
  r.lower_bound = ideal.lower_bound;
  r.initial_total = r.schedule.total_time;
  std::vector<NodeId> procs;
  for (NodeId c = 0; c < engine.instance().num_processors(); ++c) {
    if (options.respect_pinned && initial.pinned[idx(c)]) continue;
    procs.push_back(initial.assignment.host_of(c));
  }
  const std::int64_t budget =
      options.max_trials >= 0 ? options.max_trials
                              : static_cast<std::int64_t>(engine.instance().num_processors());
  if (procs.size() < 2) return r;
  Rng rng(options.seed);
  const auto m = static_cast<std::int64_t>(procs.size());
  Assignment best = r.assignment;
  Weight best_total = r.schedule.total_time;
  bool improved_any = false;
  for (std::int64_t trial = 0; trial < budget; ++trial) {
    ++r.trials_used;
    const auto i = rng.uniform(0, m - 1);
    auto j = rng.uniform(0, m - 2);
    if (j >= i) ++j;
    Assignment candidate = best;
    candidate.swap_processors(procs[static_cast<std::size_t>(i)],
                              procs[static_cast<std::size_t>(j)]);
    const Weight t = engine.trial_total_time(candidate.host_of_vector(), options.eval,
                                             engine.caller_workspace());
    if (options.use_termination_condition && t == r.lower_bound) {
      r.assignment = candidate;
      r.schedule = engine.evaluate(candidate, options.eval);
      r.reached_lower_bound = true;
      r.terminated_early = trial + 1 < budget;
      ++r.improvements;
      return r;
    }
    if (t < best_total) {
      best = candidate;
      best_total = t;
      improved_any = true;
      ++r.improvements;
    }
  }
  if (improved_any) {
    r.assignment = best;
    r.schedule = engine.evaluate(best, options.eval);
  }
  r.reached_lower_bound = r.schedule.total_time == r.lower_bound;
  return r;
}

/// The annealing move loop exactly as it was before the delta rewiring.
AnnealingResult legacy_anneal(const EvalEngine& engine, const Assignment& start,
                              const AnnealingOptions& options) {
  const NodeId n = engine.instance().num_processors();
  Rng rng(options.seed);
  EvalWorkspace& ws = engine.caller_workspace();
  AnnealingResult result;
  result.assignment = start;
  result.total_time = engine.evaluate(start, options.eval).total_time;
  if (n < 2) return result;
  Assignment current = start;
  Weight current_total = result.total_time;
  double temperature = options.initial_temperature;
  if (temperature <= 0.0) {
    Rng probe = rng.split();
    Weight lo = current_total;
    Weight hi = current_total;
    for (int i = 0; i < 8; ++i) {
      const Weight t = engine.trial_total_time(random_assignment(n, probe).host_of_vector(),
                                               options.eval, ws);
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    temperature = std::max(1.0, static_cast<double>(hi - lo));
  }
  const std::int64_t moves = options.moves_per_step > 0
                                 ? options.moves_per_step
                                 : static_cast<std::int64_t>(n) * (n - 1) / 2;
  for (std::int64_t step = 0; step < options.steps; ++step) {
    for (std::int64_t m = 0; m < moves; ++m) {
      ++result.moves_tried;
      const NodeId p = static_cast<NodeId>(rng.uniform(0, n - 1));
      NodeId q = static_cast<NodeId>(rng.uniform(0, n - 2));
      if (q >= p) ++q;
      current.swap_processors(p, q);
      const Weight cand = engine.trial_total_time(current.host_of_vector(), options.eval, ws);
      const auto delta = static_cast<double>(cand - current_total);
      if (delta <= 0.0 || rng.uniform01() < std::exp(-delta / temperature)) {
        current_total = cand;
        ++result.moves_accepted;
        if (cand < result.total_time) {
          result.total_time = cand;
          result.assignment = current;
        }
      } else {
        current.swap_processors(p, q);
      }
    }
    temperature *= options.cooling;
  }
  return result;
}

struct Pipeline {
  MappingInstance instance;
  IdealSchedule ideal;
  InitialAssignmentResult initial;
};

Pipeline build_pipeline(NodeId np, const SystemGraph& sys, std::uint64_t seed) {
  LayeredDagParams p;
  p.num_tasks = np;
  TaskGraph g = make_layered_dag(p, seed);
  Clustering c = random_clustering(g, sys.node_count(), seed + 1);
  MappingInstance inst(std::move(g), std::move(c), sys);
  IdealSchedule ideal = compute_ideal_schedule(inst);
  InitialAssignmentResult initial = initial_assignment(inst, find_critical(inst, ideal));
  return Pipeline{std::move(inst), std::move(ideal), std::move(initial)};
}

TEST(DeltaEvalTest, PairwiseExchangeMatchesPreDeltaRuns) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    for (const SystemGraph& sys : test_topologies()) {
      Pipeline pl = build_pipeline(70, sys, seed);
      const EvalEngine engine(pl.instance);
      for (const EvalOptions& mode : all_modes()) {
        RefineOptions opts;
        opts.seed = seed * 7 + 3;
        opts.max_trials = 40;
        opts.eval = mode;
        const RefineResult now = pairwise_exchange_refine(engine, pl.ideal, pl.initial, opts);
        const RefineResult then = legacy_pairwise_exchange(engine, pl.ideal, pl.initial, opts);
        const std::string what = "seed=" + std::to_string(seed) + " sys=" + sys.name() +
                                 mode_name(mode);
        EXPECT_EQ(now.assignment, then.assignment) << what;
        EXPECT_EQ(now.schedule.total_time, then.schedule.total_time) << what;
        EXPECT_EQ(now.trials_used, then.trials_used) << what;
        EXPECT_EQ(now.improvements, then.improvements) << what;
        EXPECT_EQ(now.reached_lower_bound, then.reached_lower_bound) << what;
        EXPECT_EQ(now.terminated_early, then.terminated_early) << what;
        EXPECT_EQ(now.delta.trials, then.trials_used) << what;
      }
    }
  }
}

TEST(DeltaEvalTest, AnnealingMatchesPreDeltaRuns) {
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    Pipeline pl = build_pipeline(60, make_hypercube(3), seed + 40);
    const EvalEngine engine(pl.instance);
    for (const EvalOptions& mode : all_modes()) {
      AnnealingOptions opts;
      opts.seed = seed * 5 + 1;
      opts.steps = 12;
      opts.moves_per_step = 20;
      opts.eval = mode;
      const AnnealingResult now = anneal_mapping(engine, pl.initial.assignment, opts);
      const AnnealingResult then = legacy_anneal(engine, pl.initial.assignment, opts);
      const std::string what = "seed=" + std::to_string(seed) + mode_name(mode);
      EXPECT_EQ(now.assignment, then.assignment) << what;
      EXPECT_EQ(now.total_time, then.total_time) << what;
      EXPECT_EQ(now.moves_tried, then.moves_tried) << what;
      EXPECT_EQ(now.moves_accepted, then.moves_accepted) << what;
      // Verdict trials re-score a candidate exactly when the acceptance
      // draw clears the certified bound, so the delta evaluator may see
      // more try_* calls than the annealer counts moves.
      EXPECT_GE(now.delta.trials, then.moves_tried) << what;
    }
  }
}

// --- concurrent first use of the delta tables --------------------------------

/// One delta session on `engine`: a stream of swaps from a random start,
/// each scored against the reference oracle, committing improvements.
/// Returns the number of totals that disagreed with the oracle.
int checked_swap_stream(const EvalEngine& engine, const EvalOptions& mode, std::uint64_t seed) {
  const MappingInstance& inst = engine.instance();
  const NodeId ns = inst.num_processors();
  Rng rng(seed);
  std::vector<NodeId> host = random_assignment(ns, rng).host_of_vector();
  const auto reference = [&](const std::vector<NodeId>& h) {
    return evaluate_reference(inst, Assignment::from_host_of(h), mode).total_time;
  };
  DeltaEval delta = engine.begin_delta(host, mode);
  int mismatches = delta.committed_total() == reference(host) ? 0 : 1;
  for (int op = 0; op < 24; ++op) {
    const NodeId c1 = static_cast<NodeId>(rng.uniform(0, ns - 1));
    NodeId c2 = static_cast<NodeId>(rng.uniform(0, ns - 2));
    if (c2 >= c1) ++c2;
    std::vector<NodeId> trial = host;
    std::swap(trial[idx(c1)], trial[idx(c2)]);
    const Weight got = delta.try_swap(c1, c2);
    if (got != reference(trial)) ++mismatches;
    if (got < delta.committed_total()) {
      delta.commit();
      host = trial;
    }
  }
  if (delta.committed_total() != reference(host)) ++mismatches;
  return mismatches;
}

TEST(DeltaEvalTest, ConcurrentFirstBeginDeltaBuildsTablesOnce) {
  // The first begin_delta on an engine builds its delta tables. Several
  // threads start sessions at the same moment — on a fresh engine, and on
  // one that already ran the flat map_instance pipeline (which never
  // starts a session, so the tables are still unbuilt) — and every total
  // must match the oracle. The TSan job runs this suite.
  Pipeline pl = build_pipeline(90, make_mesh(2, 4), 5);
  const std::vector<EvalOptions> modes = all_modes();
  constexpr int kThreads = 4;
  for (const bool mapped_first : {false, true}) {
    const EvalEngine engine(pl.instance);
    if (mapped_first) (void)map_instance(engine, MapperOptions{});
    std::vector<int> mismatches(kThreads, -1);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        mismatches[static_cast<std::size_t>(t)] = checked_swap_stream(
            engine, modes[static_cast<std::size_t>(t) % modes.size()],
            static_cast<std::uint64_t>(100 + t));
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0)
          << "thread " << t << " mapped_first=" << mapped_first;
    }
  }
}

// --- mixed SoA-wave + delta-move loops ---------------------------------------

/// One round-based search loop mixing both evaluation paths on one engine:
/// each round scores a wave of whole-assignment candidates through the SoA
/// batch kernel (with the incumbent as cutoff), folds improvements into the
/// incumbent, then runs a burst of delta local moves (try_swap +
/// commit-if-better) anchored at it. Records every decision the loop makes.
struct MixedRunTrace {
  std::vector<Weight> wave_accepted;   // totals accepted from wave phases
  std::vector<int> wave_decisions;     // 1 accept / 0 reject, in trial order
  std::vector<Weight> delta_accepted;  // totals committed by delta phases
  std::vector<NodeId> final_host;
  Weight final_total = 0;
};

MixedRunTrace run_mixed_loop(const EvalEngine& engine, const Assignment& start,
                             const EvalOptions& mode, int width, std::uint64_t seed) {
  const NodeId ns = engine.instance().num_processors();
  Rng rng(seed);
  std::vector<NodeId> best = start.host_of_vector();
  Weight best_total = engine.trial_total_time(best, mode, engine.caller_workspace());
  MixedRunTrace trace;
  std::vector<std::vector<NodeId>> wave(9);
  std::vector<Weight> totals(wave.size(), 0);
  for (int round = 0; round < 6; ++round) {
    // SoA candidate wave against the incumbent.
    for (std::vector<NodeId>& host : wave) {
      host = random_assignment(ns, rng).host_of_vector();
    }
    engine.batch_total_times(wave, mode, /*num_threads=*/1, width, totals, best_total);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      const bool accept = totals[i] < best_total;
      trace.wave_decisions.push_back(accept ? 1 : 0);
      if (accept) {
        best_total = totals[i];
        best = wave[i];
        trace.wave_accepted.push_back(totals[i]);
      }
    }
    // Delta local moves anchored at the wave phase's incumbent.
    DeltaEval delta = engine.begin_delta(best, mode);
    for (int op = 0; op < 8; ++op) {
      const NodeId c1 = static_cast<NodeId>(rng.uniform(0, ns - 1));
      NodeId c2 = static_cast<NodeId>(rng.uniform(0, ns - 2));
      if (c2 >= c1) ++c2;
      const Weight t = delta.try_swap(c1, c2);
      if (t < delta.committed_total()) {
        delta.commit();
        trace.delta_accepted.push_back(t);
      }
    }
    best.assign(delta.committed_host().begin(), delta.committed_host().end());
    best_total = delta.committed_total();
  }
  trace.final_host = best;
  trace.final_total = best_total;
  return trace;
}

TEST(DeltaEvalTest, MixedSoaWavesAndDeltaMovesMatchTheScalarPath) {
  // Interleaving SoA candidate waves and delta local moves in one refine
  // loop must leave the accept/reject stream and the final state
  // bit-identical to the same loop on the pre-SoA scalar path (width 1,
  // which evaluates every candidate exactly, no early exit).
  for (std::uint64_t seed = 0; seed < 2; ++seed) {
    Pipeline pl = build_pipeline(60, make_hypercube(3), seed + 50);
    const EvalEngine engine(pl.instance);
    for (const EvalOptions& mode : all_modes()) {
      const MixedRunTrace scalar =
          run_mixed_loop(engine, pl.initial.assignment, mode, /*width=*/1, seed * 7 + 1);
      for (const int width : {2, 7, 32}) {
        const MixedRunTrace soa =
            run_mixed_loop(engine, pl.initial.assignment, mode, width, seed * 7 + 1);
        const std::string what =
            "seed=" + std::to_string(seed) + mode_name(mode) + " width=" + std::to_string(width);
        EXPECT_EQ(soa.wave_decisions, scalar.wave_decisions) << what;
        EXPECT_EQ(soa.wave_accepted, scalar.wave_accepted) << what;
        EXPECT_EQ(soa.delta_accepted, scalar.delta_accepted) << what;
        EXPECT_EQ(soa.final_host, scalar.final_host) << what;
        EXPECT_EQ(soa.final_total, scalar.final_total) << what;
      }
      // The final state must also be exact against the reference oracle.
      if (is_permutation(scalar.final_host)) {
        EXPECT_EQ(scalar.final_total,
                  evaluate_reference(pl.instance, Assignment::from_host_of(scalar.final_host),
                                     mode)
                      .total_time)
            << mode_name(mode);
      }
    }
  }
}

// --- v2: shift compression, verdict trials, claim bucketing ------------------

TEST(DeltaEvalTest, V2VerdictTrialsMatchReferenceAcrossModes) {
  // The v2 verdict-trial contract, hammered hill-climb style across all
  // modes: a value below the cutoff is exact (equals the full kernel on
  // the materialized map) and committable; a value at or above it is a
  // certified lower bound — never above the exact total, and never
  // returned when the exact total would beat the incumbent (a false
  // reject would silently derail every search loop).
  for (const std::uint64_t seed : {0ULL, 1ULL}) {
    for (const SystemGraph& sys : test_topologies()) {
      LayeredDagParams p;
      p.num_tasks = 150;
      const TaskGraph g = make_layered_dag(p, seed + 60);
      const NodeId ns = sys.node_count();
      const MappingInstance inst(g, block_clustering(g, ns), sys);
      const EvalEngine engine(inst);
      for (const EvalOptions& mode : all_modes()) {
        DeltaEval delta = engine.begin_delta(Assignment::identity(ns), mode,
                                             DeltaOptions{.version = 2});
        EvalWorkspace ws;
        std::vector<NodeId> host = Assignment::identity(ns).host_of_vector();
        Rng rng(seed * 31 + 7);
        std::int64_t rejected = 0;
        for (int op = 0; op < 300; ++op) {
          const NodeId c1 = static_cast<NodeId>(rng.uniform(0, ns - 1));
          NodeId c2 = static_cast<NodeId>(rng.uniform(0, ns - 2));
          if (c2 >= c1) ++c2;
          const Weight best = delta.committed_total();
          const Weight t = delta.try_swap(c1, c2, best);
          std::vector<NodeId> trial = host;
          std::swap(trial[idx(c1)], trial[idx(c2)]);
          const Weight want = engine.trial_total_time(trial, mode, ws);
          const std::string what = "seed=" + std::to_string(seed) + " sys=" + sys.name() +
                                   mode_name(mode) + " op=" + std::to_string(op);
          if (t < best) {
            ASSERT_EQ(t, want) << what;  // below the cutoff: exact
            delta.commit();
            host = trial;
            ASSERT_EQ(delta.committed_total(), want) << what;
          } else {
            ++rejected;
            ASSERT_GE(want, best) << "false reject, " << what;  // certified
            ASSERT_LE(t, want) << "bound above the exact total, " << what;
          }
        }
        EXPECT_GT(rejected, 0) << sys.name() << mode_name(mode);
      }
    }
  }
}

TEST(DeltaEvalTest, V2VerdictExitsRecheckExactlyWithoutCutoff) {
  // A verdict-exited trial is not committable (commit() throws) and must
  // re-score exactly when retried without a cutoff — the annealer's
  // undecided path relies on precisely this.
  Pipeline pl = build_pipeline(90, make_hypercube(3), 77);
  const EvalEngine engine(pl.instance);
  for (const EvalOptions& mode : all_modes()) {
    DeltaEval delta = engine.begin_delta(pl.initial.assignment, mode,
                                         DeltaOptions{.version = 2});
    EvalWorkspace ws;
    const std::vector<NodeId>& host = pl.initial.assignment.host_of_vector();
    Rng rng(13);
    std::int64_t verdicts = 0;
    for (int op = 0; op < 120; ++op) {
      const NodeId c1 = static_cast<NodeId>(rng.uniform(0, 7));
      NodeId c2 = static_cast<NodeId>(rng.uniform(0, 6));
      if (c2 >= c1) ++c2;
      const Weight best = delta.committed_total();
      const Weight t = delta.try_swap(c1, c2, best);
      if (t >= best && !delta.has_pending()) {
        ++verdicts;
        EXPECT_THROW(delta.commit(), std::logic_error) << mode_name(mode);
        const Weight exact = delta.try_swap(c1, c2);  // no cutoff: exact re-score
        std::vector<NodeId> trial = host;
        std::swap(trial[idx(c1)], trial[idx(c2)]);
        ASSERT_EQ(exact, engine.trial_total_time(trial, mode, ws))
            << mode_name(mode) << " op=" << op;
        ASSERT_GE(exact, t) << mode_name(mode);  // the bound was a lower bound
        delta.revert();
      } else {
        delta.revert();
      }
    }
    EXPECT_GT(verdicts, 0) << mode_name(mode) << " — stream produced no verdict exits";
  }
}

TEST(DeltaEvalTest, V2MaxMergeTiesStayBitIdentical) {
  // Adversarial max-merge ties: symmetric diamonds produce equal-end joins
  // where the δ-shifted and the clean frontier collide at exactly equal
  // arrival values, and tiny weight ranges force frequent equal ends. v1,
  // v2 and the reference must agree on every total through long
  // move/swap/commit sequences.
  StructuredWeights sw{{2, 2}, {3, 3}, 5};  // fully symmetric: every join ties
  std::vector<TaskGraph> shapes;
  shapes.push_back(make_diamond(6, 7, sw));
  LayeredDagParams p;
  p.num_tasks = 90;
  p.node_weight = {1, 2};  // near-constant weights: ends collide constantly
  p.edge_weight = {1, 2};
  shapes.push_back(make_layered_dag(p, 3));
  for (TaskGraph& g : shapes) {
    for (const SystemGraph& sys : test_topologies()) {
      const NodeId ns = sys.node_count();
      const MappingInstance inst(g, random_clustering(g, ns, 4), sys);
      const EvalEngine engine(inst);
      for (const EvalOptions& mode : all_modes()) {
        Rng rng(91);
        const std::vector<NodeId> host0 = random_assignment(ns, rng).host_of_vector();
        DeltaEval v1 = engine.begin_delta(host0, mode, DeltaOptions{.version = 1});
        DeltaEval v2 = engine.begin_delta(host0, mode, DeltaOptions{.version = 2});
        EvalWorkspace ws;
        std::vector<NodeId> host = host0;
        for (int op = 0; op < 60; ++op) {
          std::vector<NodeId> trial = host;
          Weight got1 = 0;
          Weight got2 = 0;
          if (rng.uniform(0, 1) == 0) {
            const NodeId c1 = static_cast<NodeId>(rng.uniform(0, ns - 1));
            NodeId c2 = static_cast<NodeId>(rng.uniform(0, ns - 2));
            if (c2 >= c1) ++c2;
            got1 = v1.try_swap(c1, c2);
            got2 = v2.try_swap(c1, c2);
            std::swap(trial[idx(c1)], trial[idx(c2)]);
          } else {
            const NodeId cl = static_cast<NodeId>(rng.uniform(0, ns - 1));
            const NodeId pr = static_cast<NodeId>(rng.uniform(0, ns - 1));
            got1 = v1.try_move(cl, pr);
            got2 = v2.try_move(cl, pr);
            trial[idx(cl)] = pr;
          }
          const Weight want = engine.trial_total_time(trial, mode, ws);
          const std::string what = std::string("sys=") + sys.name() + mode_name(mode) +
                                   " op=" + std::to_string(op);
          ASSERT_EQ(got1, want) << what;
          ASSERT_EQ(got2, want) << what;
          if (op % 3 == 0) {
            v1.commit();
            v2.commit();
            host = trial;
          }
        }
        EXPECT_GT(v2.stats().delta_trials, 0) << sys.name() << mode_name(mode);
      }
    }
  }
}

TEST(DeltaEvalTest, DeltaModeEnvToggleSelectsEngine) {
  // MIMDMAP_DELTA_MODE=v1 must fall back to the PR 2 engine (no verdict
  // machinery fires even when cutoffs are passed) and produce the same
  // accept streams; v2/unset selects the shift-compressed engine. The CI
  // matrix runs the whole suite under both values.
  Pipeline pl = build_pipeline(70, make_hypercube(3), 19);
  const EvalEngine engine(pl.instance);
  RefineOptions opts;
  opts.max_trials = 40;
  const auto run_with_env = [&](const char* value) {
    if (value == nullptr) {
      unsetenv("MIMDMAP_DELTA_MODE");
    } else {
      setenv("MIMDMAP_DELTA_MODE", value, 1);
    }
    RefineResult r = pairwise_exchange_refine(engine, pl.ideal, pl.initial, opts);
    unsetenv("MIMDMAP_DELTA_MODE");
    return r;
  };
  const RefineResult with_v1 = run_with_env("v1");
  const RefineResult with_v2 = run_with_env("v2");
  const RefineResult with_default = run_with_env(nullptr);
  // Identical mapping decisions...
  EXPECT_EQ(with_v1.assignment, with_v2.assignment);
  EXPECT_EQ(with_v1.schedule.total_time, with_v2.schedule.total_time);
  EXPECT_EQ(with_default.assignment, with_v2.assignment);
  // ...served by different engines: v1 never exits on a verdict.
  EXPECT_EQ(with_v1.delta.verdict_exits, 0);
  EXPECT_EQ(with_v1.delta.shift_fast_paths, 0);
  EXPECT_EQ(with_default.delta.verdict_exits, with_v2.delta.verdict_exits);
}

// --- satellite regressions ---------------------------------------------------

TEST(DeltaEvalTest, TinyBatchesClampLanesToCount) {
  // Regression: batch_total_times with count < lanes must neither spawn a
  // worker per requested lane nor mis-evaluate. A private pool isolates the
  // count from other tests sharing the process-wide pool: after a batch of
  // 3, at most min(count, lane budget) - 1 workers may have been spawned.
  LayeredDagParams p;
  p.num_tasks = 50;
  const TaskGraph g = make_layered_dag(p, 8);
  const MappingInstance inst(g, random_clustering(g, 8, 9), make_hypercube(3));
  const auto pool = std::make_shared<ThreadPool>();
  const EvalEngine engine(inst, pool);
  Rng rng(17);
  std::vector<std::vector<NodeId>> hosts;
  for (int i = 0; i < 3; ++i) hosts.push_back(random_assignment(8, rng).host_of_vector());
  std::vector<Weight> expected(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    expected[i] = evaluate_reference(inst, Assignment::from_host_of(hosts[i]), {}).total_time;
  }
  std::vector<Weight> totals(hosts.size(), -1);
  engine.batch_total_times(hosts, {}, 64, totals);
  EXPECT_EQ(totals, expected);
  const int max_workers =
      static_cast<int>(std::min<std::size_t>(hosts.size(),
                                             static_cast<std::size_t>(pool->lane_limit()))) -
      1;
  EXPECT_LE(pool->thread_count(), std::max(0, max_workers));
}

TEST(DeltaEvalTest, AutoThreadsResolvesAndStaysDeterministic) {
  Pipeline pl = build_pipeline(60, make_mesh(2, 4), 12);
  const EvalEngine engine(pl.instance);
  const int resolved = engine.resolve_num_threads(0, {});
  EXPECT_GE(resolved, 1);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(resolved, static_cast<int>(hw));
  // Cached: the second resolution returns the same decision.
  EXPECT_EQ(engine.resolve_num_threads(0, {}), resolved);
  // Explicit requests pass through untouched.
  EXPECT_EQ(engine.resolve_num_threads(3, {}), 3);

  RefineOptions seq;
  seq.max_trials = 24;
  seq.num_threads = 1;
  RefineOptions automatic = seq;
  automatic.num_threads = 0;
  const RefineResult a = refine(engine, pl.ideal, pl.initial, seq);
  const RefineResult b = refine(engine, pl.ideal, pl.initial, automatic);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.schedule.total_time, b.schedule.total_time);
  EXPECT_EQ(a.trials_used, b.trials_used);
}

TEST(DeltaEvalTest, StatsCountersAreCoherent) {
  Pipeline pl = build_pipeline(80, make_hypercube(3), 21);
  const EvalEngine engine(pl.instance);
  DeltaEval delta = engine.begin_delta(pl.initial.assignment);
  Rng rng(5);
  std::int64_t commits = 0;
  for (int op = 0; op < 25; ++op) {
    const NodeId c1 = static_cast<NodeId>(rng.uniform(0, 7));
    NodeId c2 = static_cast<NodeId>(rng.uniform(0, 6));
    if (c2 >= c1) ++c2;
    (void)delta.try_swap(c1, c2);
    if (op % 4 == 0) {
      delta.commit();
      ++commits;
    }
  }
  EXPECT_EQ(delta.stats().trials, 25);
  EXPECT_EQ(delta.stats().commits, commits);
  EXPECT_EQ(delta.stats().delta_trials + delta.stats().full_fallbacks, 25);
  EXPECT_GT(delta.stats().positions_scanned, 0);
}

// --- Satellite: the potential-cache np ceiling must be configurable and
// visible (DeltaStats::potential_cache_disabled), and crossing it must
// never change an accept stream — the weaker tail0 potential only loosens
// certified bounds of *rejected* verdict trials.

/// One deterministic verdict-trial hill climb; returns the accept stream
/// (committed totals in order) and the evaluator's final stats.
std::pair<std::vector<Weight>, DeltaStats> verdict_climb(const EvalEngine& engine,
                                                         const DeltaOptions& delta_options) {
  const NodeId ns = engine.instance().num_processors();
  Rng rng(4242);
  std::vector<NodeId> host = random_assignment(ns, rng).host_of_vector();
  DeltaEval delta = engine.begin_delta(host, EvalOptions{}, delta_options);
  Weight best = delta.committed_total();
  std::vector<Weight> accepts;
  for (int op = 0; op < 120; ++op) {
    const NodeId c1 = static_cast<NodeId>(rng.uniform(0, ns - 1));
    NodeId c2 = static_cast<NodeId>(rng.uniform(0, ns - 2));
    if (c2 >= c1) ++c2;
    const Weight t = delta.try_swap(c1, c2, best);
    if (t < best) {
      delta.commit();
      best = t;
      accepts.push_back(t);
    } else {
      delta.revert();
    }
  }
  return {std::move(accepts), delta.stats()};
}

TEST(DeltaEvalTest, PotentialCacheCeilingIsConfigurableCountedAndAcceptInvariant) {
  LayeredDagParams p;
  p.num_tasks = 70;
  const TaskGraph g = make_layered_dag(p, 31);
  const MappingInstance inst(g, random_clustering(g, 8, 7), make_hypercube(3));
  const EvalEngine engine(inst);

  DeltaOptions with_cache;
  with_cache.version = 2;
  const auto [accepts_cached, stats_cached] = verdict_climb(engine, with_cache);
  EXPECT_EQ(stats_cached.potential_cache_disabled, 0);

  // np (70) just above a tiny explicit ceiling: the cache is bypassed, the
  // bypass is counted, and the accept stream is bit-identical.
  DeltaOptions bypassed = with_cache;
  bypassed.potential_cache_max_np = 1;
  const auto [accepts_bypassed, stats_bypassed] = verdict_climb(engine, bypassed);
  EXPECT_GT(stats_bypassed.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_bypassed, accepts_cached);

  // slots = 0 disables the cache outright — same contract.
  DeltaOptions disabled = with_cache;
  disabled.potential_cache_slots = 0;
  const auto [accepts_disabled, stats_disabled] = verdict_climb(engine, disabled);
  EXPECT_GT(stats_disabled.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_disabled, accepts_cached);

  // 0 removes the ceiling entirely.
  DeltaOptions no_ceiling = with_cache;
  no_ceiling.potential_cache_max_np = 0;
  const auto [accepts_unbounded, stats_unbounded] = verdict_climb(engine, no_ceiling);
  EXPECT_EQ(stats_unbounded.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_unbounded, accepts_cached);
}

TEST(DeltaEvalTest, PotentialCacheEnvOverride) {
  LayeredDagParams p;
  p.num_tasks = 60;
  const TaskGraph g = make_layered_dag(p, 17);
  const MappingInstance inst(g, random_clustering(g, 8, 3), make_hypercube(3));
  const EvalEngine engine(inst);

  const char* ambient = std::getenv("MIMDMAP_DELTA_CACHE");
  const std::string saved = ambient == nullptr ? "" : ambient;
  struct RestoreEnv {
    const std::string* saved;
    ~RestoreEnv() {
      if (saved->empty()) {
        unsetenv("MIMDMAP_DELTA_CACHE");
      } else {
        setenv("MIMDMAP_DELTA_CACHE", saved->c_str(), 1);
      }
    }
  } restore{&saved};

  DeltaOptions v2;
  v2.version = 2;
  unsetenv("MIMDMAP_DELTA_CACHE");
  const auto [accepts_default, stats_default] = verdict_climb(engine, v2);
  EXPECT_EQ(stats_default.potential_cache_disabled, 0);

  // "off" disables via the environment; accept stream unchanged.
  setenv("MIMDMAP_DELTA_CACHE", "off", 1);
  const auto [accepts_off, stats_off] = verdict_climb(engine, v2);
  EXPECT_GT(stats_off.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_off, accepts_default);

  // "slots,max_np" with a ceiling below np bypasses the cache.
  setenv("MIMDMAP_DELTA_CACHE", "64,10", 1);
  const auto [accepts_low, stats_low] = verdict_climb(engine, v2);
  EXPECT_GT(stats_low.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_low, accepts_default);

  // Explicit DeltaOptions values beat the environment.
  setenv("MIMDMAP_DELTA_CACHE", "64,10", 1);
  DeltaOptions explicit_wins = v2;
  explicit_wins.potential_cache_slots = 64;
  explicit_wins.potential_cache_max_np = 100000;
  const auto [accepts_explicit, stats_explicit] = verdict_climb(engine, explicit_wins);
  EXPECT_EQ(stats_explicit.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_explicit, accepts_default);

  // Malformed values are ignored (defaults apply).
  setenv("MIMDMAP_DELTA_CACHE", "bogus", 1);
  const auto [accepts_bogus, stats_bogus] = verdict_climb(engine, v2);
  EXPECT_EQ(stats_bogus.potential_cache_disabled, 0);
  EXPECT_EQ(accepts_bogus, accepts_default);
}

}  // namespace
}  // namespace mimdmap
