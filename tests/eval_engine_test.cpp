// Equivalence suite for the precomputed evaluation engine.
//
// EvalEngine promises bit-identical schedules to the retained reference
// implementation (evaluate_reference) in all three evaluation modes, and
// the chunked/pooled refinement promises the exact sequential trial
// sequence for any thread count. These tests enforce both guarantees over
// randomized instances: layered DAGs x {hypercube, mesh, random} topologies
// x {plain, serialize_within_processor, link_contention} x thread counts
// {1, 2, 8}.
#include "core/eval_engine.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <thread>

#include "baseline/random_mapping.hpp"
#include "cluster/strategies.hpp"
#include "core/mapper.hpp"
#include "core/refinement.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"
#include "workload/rng.hpp"

namespace mimdmap {
namespace {

std::vector<SystemGraph> test_topologies() {
  return {make_hypercube(3), make_mesh(2, 4), make_random_connected(8, 0.25, 3)};
}

std::vector<EvalOptions> all_modes() {
  return {EvalOptions{},
          EvalOptions{.serialize_within_processor = true},
          EvalOptions{.link_contention = true}};
}

void expect_same_schedule(const ScheduleResult& a, const ScheduleResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.total_time, b.total_time) << what;
  EXPECT_EQ(a.start, b.start) << what;
  EXPECT_EQ(a.end, b.end) << what;
  EXPECT_EQ(a.latest_tasks, b.latest_tasks) << what;
}

TEST(EvalEngineTest, BitIdenticalToReferenceAcrossModesAndInstances) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    LayeredDagParams p;
    p.num_tasks = node_id(40 + 30 * (seed % 3));
    const TaskGraph g = make_layered_dag(p, seed);
    for (const SystemGraph& sys : test_topologies()) {
      const Clustering c = random_clustering(g, sys.node_count(), seed + 17);
      const MappingInstance inst(g, c, sys);
      const EvalEngine engine(inst);
      Rng rng(seed * 31 + 7);
      for (int trial = 0; trial < 4; ++trial) {
        const Assignment a = random_assignment(inst.num_processors(), rng);
        for (const EvalOptions& mode : all_modes()) {
          const std::string what =
              "seed=" + std::to_string(seed) + " sys=" + sys.name() +
              " serialize=" + std::to_string(mode.serialize_within_processor) +
              " contention=" + std::to_string(mode.link_contention);
          expect_same_schedule(engine.evaluate(a, mode), evaluate_reference(inst, a, mode),
                               what);
        }
      }
    }
  }
}

TEST(EvalEngineTest, FreeFunctionWrapperMatchesReference) {
  LayeredDagParams p;
  p.num_tasks = 50;
  const TaskGraph g = make_layered_dag(p, 11);
  const Clustering c = block_clustering(g, 8);
  const MappingInstance inst(g, c, make_mesh(2, 4));
  Rng rng(5);
  const Assignment a = random_assignment(8, rng);
  for (const EvalOptions& mode : all_modes()) {
    expect_same_schedule(evaluate(inst, a, mode), evaluate_reference(inst, a, mode),
                         "wrapper");
  }
}

TEST(EvalEngineTest, WorkspaceReuseIsStateless) {
  // A trial evaluated after many other trials must equal the same trial
  // evaluated on a fresh workspace — no state may leak between trials.
  LayeredDagParams p;
  p.num_tasks = 60;
  const TaskGraph g = make_layered_dag(p, 3);
  const MappingInstance inst(g, random_clustering(g, 8, 4), make_hypercube(3));
  const EvalEngine engine(inst);
  Rng rng(99);
  std::vector<Assignment> assignments;
  for (int i = 0; i < 10; ++i) assignments.push_back(random_assignment(8, rng));
  for (const EvalOptions& mode : all_modes()) {
    EvalWorkspace warm;
    std::vector<Weight> warm_totals;
    for (const Assignment& a : assignments) {
      warm_totals.push_back(engine.trial_total_time(a.host_of_vector(), mode, warm));
    }
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      EvalWorkspace fresh;
      EXPECT_EQ(engine.trial_total_time(assignments[i].host_of_vector(), mode, fresh),
                warm_totals[i])
          << "trial " << i;
    }
  }
}

TEST(EvalEngineTest, BatchTotalsMatchSequentialForAnyThreadCount) {
  LayeredDagParams p;
  p.num_tasks = 70;
  const TaskGraph g = make_layered_dag(p, 21);
  const MappingInstance inst(g, random_clustering(g, 8, 22), make_random_connected(8, 0.3, 2));
  const EvalEngine engine(inst);
  Rng rng(1234);
  std::vector<std::vector<NodeId>> hosts;
  for (int i = 0; i < 37; ++i) hosts.push_back(random_assignment(8, rng).host_of_vector());
  for (const EvalOptions& mode : all_modes()) {
    std::vector<Weight> expected(hosts.size());
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      expected[i] = evaluate_reference(inst, Assignment::from_host_of(hosts[i]), mode).total_time;
    }
    for (const int threads : {1, 2, 8}) {
      std::vector<Weight> totals(hosts.size(), -1);
      engine.batch_total_times(hosts, mode, threads, totals);
      EXPECT_EQ(totals, expected) << "threads=" << threads;
    }
  }
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

TEST(EvalEngineTest, ChunkedRefineReproducesSequentialTrialSequence) {
  // The chunked generator must consume the RNG stream exactly as the
  // legacy all-up-front materialization did: same trial order, same accept
  // decisions, same diagnostics, for every thread count and eval mode.
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const SystemGraph& sys : test_topologies()) {
      Pipeline pl = build_pipeline(60, sys, seed);
      for (const EvalOptions& mode : all_modes()) {
        RefineOptions sequential;
        sequential.seed = seed * 13 + 5;
        sequential.max_trials = 48;
        sequential.eval = mode;
        const RefineResult base = refine(pl.instance, pl.ideal, pl.initial, sequential);

        for (const int threads : {2, 8}) {
          RefineOptions parallel = sequential;
          parallel.num_threads = threads;
          const RefineResult r = refine(pl.instance, pl.ideal, pl.initial, parallel);
          const std::string what = "threads=" + std::to_string(threads) +
                                   " seed=" + std::to_string(seed) + " sys=" + sys.name();
          EXPECT_EQ(r.assignment, base.assignment) << what;
          EXPECT_EQ(r.schedule.total_time, base.schedule.total_time) << what;
          expect_same_schedule(r.schedule, base.schedule, what);
          EXPECT_EQ(r.trials_used, base.trials_used) << what;
          EXPECT_EQ(r.improvements, base.improvements) << what;
          EXPECT_EQ(r.reached_lower_bound, base.reached_lower_bound) << what;
          EXPECT_EQ(r.terminated_early, base.terminated_early) << what;
        }
      }
    }
  }
}

TEST(EvalEngineTest, RefineOnSharedEngineMatchesOneShot) {
  // One engine reused across refine() and the baselines must behave exactly
  // like per-call engines.
  Pipeline pl = build_pipeline(80, make_hypercube(3), 7);
  const EvalEngine engine(pl.instance);
  RefineOptions opts;
  opts.seed = 42;
  opts.max_trials = 32;
  opts.num_threads = 4;
  const RefineResult shared1 = refine(engine, pl.ideal, pl.initial, opts);
  const RefineResult shared2 = refine(engine, pl.ideal, pl.initial, opts);
  const RefineResult oneshot = refine(pl.instance, pl.ideal, pl.initial, opts);
  EXPECT_EQ(shared1.assignment, oneshot.assignment);
  EXPECT_EQ(shared1.schedule.total_time, oneshot.schedule.total_time);
  EXPECT_EQ(shared2.assignment, oneshot.assignment);

  const RandomMappingStats stats_engine = evaluate_random_mappings(engine, 12, 77);
  const RandomMappingStats stats_legacy = evaluate_random_mappings(pl.instance, 12, 77);
  EXPECT_EQ(stats_engine.totals, stats_legacy.totals);
}

TEST(EvalEngineTest, ConcurrentFirstIdealTailBuildsTableOnce) {
  // refine() fetches the ideal tail on first use and hands it to waves on
  // the engine's pool lanes, while other evaluators may use the same
  // engine with private workspaces. Four threads hit a fresh engine at the
  // same moment — one refines on two pool lanes, three score a wave under
  // the tail through private SoA workspaces — and every result must match
  // a sequential run on another engine. The TSan job runs this suite.
  Pipeline pl = build_pipeline(300, make_hypercube(3), 5);
  RefineOptions opts;
  opts.seed = 11;
  opts.max_trials = 48;
  opts.eval_width = 8;
  opts.num_threads = 2;
  opts.use_termination_condition = false;  // reach the waves
  Rng rng(23);
  std::vector<std::vector<NodeId>> hosts;
  for (int i = 0; i < 16; ++i) hosts.push_back(random_assignment(8, rng).host_of_vector());
  const Weight cutoff = total_time(pl.instance, pl.initial.assignment);  // refine's incumbent

  const EvalEngine reference_engine(pl.instance);
  const std::span<const Weight> expected_tail = reference_engine.ideal_tail();
  const RefineResult expected = refine(reference_engine, pl.ideal, pl.initial, opts);
  SoaWorkspace reference_ws;
  std::vector<Weight> expected_totals(hosts.size(), -1);
  reference_engine.evaluate_batch_soa(hosts, {}, reference_ws, expected_totals, cutoff,
                                      expected_tail);

  const EvalEngine engine(pl.instance);
  constexpr int kThreads = 4;
  RefineResult refined;
  std::vector<const Weight*> tables(kThreads, nullptr);
  std::vector<std::vector<Weight>> totals(kThreads, std::vector<Weight>(hosts.size(), -1));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const auto i = static_cast<std::size_t>(t);
      if (t == 0) {
        refined = refine(engine, pl.ideal, pl.initial, opts);
        return;
      }
      const std::span<const Weight> tail = engine.ideal_tail();
      tables[i] = tail.data();
      SoaWorkspace ws;
      engine.evaluate_batch_soa(hosts, {}, ws, totals[i], cutoff, tail);
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::span<const Weight> tail = engine.ideal_tail();
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), expected_tail.begin(), expected_tail.end()));
  EXPECT_EQ(refined.assignment, expected.assignment);
  EXPECT_EQ(refined.trials_used, expected.trials_used);
  EXPECT_EQ(refined.improvements, expected.improvements);
  for (int t = 1; t < kThreads; ++t) {
    const auto i = static_cast<std::size_t>(t);
    EXPECT_EQ(tables[i], tail.data()) << "thread " << t;  // one build, one table
    EXPECT_EQ(totals[i], expected_totals) << "thread " << t;
  }
}

TEST(EvalEngineTest, MapInstanceOnEngineMatchesInstanceOverload) {
  LayeredDagParams p;
  p.num_tasks = 90;
  TaskGraph g = make_layered_dag(p, 31);
  Clustering c = block_clustering(g, 8);
  const MappingInstance inst(std::move(g), std::move(c), make_mesh(2, 4));
  const EvalEngine engine(inst);
  MapperOptions opts;
  opts.refine.seed = 9;
  opts.refine.max_trials = 24;
  const MappingReport a = map_instance(engine, opts);
  const MappingReport b = map_instance(inst, opts);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.total_time(), b.total_time());
  EXPECT_EQ(a.refinement_trials, b.refinement_trials);
}

TEST(EvalEngineTest, EvaluateValidatesAssignment) {
  TaskGraph g(2);
  g.add_edge(0, 1, 1);
  const MappingInstance inst(g, Clustering({0, 1}, 2), make_chain(2));
  const EvalEngine engine(inst);
  EXPECT_THROW((void)engine.evaluate(Assignment::partial(2)), std::invalid_argument);
  EXPECT_THROW((void)engine.evaluate(Assignment::identity(3)), std::invalid_argument);
}

}  // namespace
}  // namespace mimdmap
