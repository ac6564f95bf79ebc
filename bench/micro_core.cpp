// Micro-benchmarks (google-benchmark) for the paper's complexity claims
// (section 4.3.3): evaluating a schedule is O(np^2)-bounded work, the full
// refinement is O(ns * np^2), and the supporting kernels scale accordingly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>

#include "baseline/random_mapping.hpp"
#include "cluster/strategies.hpp"
#include "core/eval_engine.hpp"
#include "core/mapper.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"

namespace mimdmap {
namespace {

MappingInstance make_instance(NodeId np, NodeId ns) {
  LayeredDagParams p;
  p.num_tasks = np;
  p.avg_out_degree = 1.5;
  TaskGraph g = make_layered_dag(p, 42);
  Clustering c = block_clustering(g, ns);
  return MappingInstance(std::move(g), std::move(c), make_hypercube([ns]() {
                           NodeId d = 0;
                           while ((NodeId{1} << d) < ns) ++d;
                           return d;
                         }()));
}

void BM_IdealSchedule(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_ideal_schedule(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IdealSchedule)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_Evaluate(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const Assignment a = Assignment::identity(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate(inst, a));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Evaluate)->RangeMultiplier(2)->Range(32, 512)->Complexity();

// --- engine-vs-legacy evaluation (the PR's acceptance numbers) -------------
//
// BM_EvaluateLegacy* is the retained reference path (topological sort,
// fresh buffers, and — under contention — a fresh RoutingTable per call);
// BM_EvaluateEngine* reuses one precomputed EvalEngine and a warm
// workspace, the configuration every search loop now runs in.

void BM_EvaluateLegacy(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const Assignment a = Assignment::identity(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_reference(inst, a));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateLegacy)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_EvaluateEngine(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const EvalEngine engine(inst);
  const Assignment a = Assignment::identity(8);
  EvalWorkspace ws;
  const EvalOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.trial_total_time(a.host_of_vector(), opts, ws));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateEngine)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_EvaluateLegacyContention(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const Assignment a = Assignment::identity(8);
  const EvalOptions opts{.link_contention = true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_reference(inst, a, opts));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateLegacyContention)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_EvaluateEngineContention(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const EvalEngine engine(inst);
  const Assignment a = Assignment::identity(8);
  EvalWorkspace ws;
  const EvalOptions opts{.link_contention = true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.trial_total_time(a.host_of_vector(), opts, ws));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateEngineContention)->RangeMultiplier(2)->Range(32, 512)->Complexity();

// --- SoA batch kernel vs scalar engine path (BENCH_soa.json companions) ----
//
// BM_EvaluateEngine* above is the scalar per-candidate path; these score a
// whole batch per iteration through evaluate_batch_soa waves at the
// auto-tuned width. candidates_per_sec is the comparable unit.

void BM_EvaluateBatchSoa(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const EvalEngine engine(inst);
  Rng rng(7);
  std::vector<std::vector<NodeId>> hosts;
  for (int i = 0; i < 256; ++i) hosts.push_back(random_assignment(8, rng).host_of_vector());
  std::vector<Weight> totals(hosts.size());
  const EvalOptions opts;
  std::int64_t candidates = 0;
  for (auto _ : state) {
    engine.batch_total_times(hosts, opts, 1, 0, totals);
    benchmark::DoNotOptimize(totals.data());
    candidates += static_cast<std::int64_t>(hosts.size());
  }
  state.counters["width"] = static_cast<double>(engine.resolve_batch_width(0, opts));
  state.counters["candidates_per_sec"] =
      benchmark::Counter(static_cast<double>(candidates), benchmark::Counter::kIsRate);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateBatchSoa)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_EvaluateBatchSoaContention(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const EvalEngine engine(inst);
  Rng rng(7);
  std::vector<std::vector<NodeId>> hosts;
  for (int i = 0; i < 256; ++i) hosts.push_back(random_assignment(8, rng).host_of_vector());
  std::vector<Weight> totals(hosts.size());
  const EvalOptions opts{.link_contention = true};
  std::int64_t candidates = 0;
  for (auto _ : state) {
    engine.batch_total_times(hosts, opts, 1, 0, totals);
    benchmark::DoNotOptimize(totals.data());
    candidates += static_cast<std::int64_t>(hosts.size());
  }
  state.counters["width"] = static_cast<double>(engine.resolve_batch_width(0, opts));
  state.counters["candidates_per_sec"] =
      benchmark::Counter(static_cast<double>(candidates), benchmark::Counter::kIsRate);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EvaluateBatchSoaContention)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_RefineThroughput(benchmark::State& state) {
  // End-to-end refinement trial throughput (trials/sec) on a shared
  // engine — the number the ROADMAP's mapper-throughput goal tracks.
  const auto inst = make_instance(512, 8);
  const EvalEngine engine(inst);
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  const CriticalInfo critical = find_critical(inst, ideal);
  const InitialAssignmentResult initial = initial_assignment(inst, critical);
  RefineOptions opts;
  opts.max_trials = 128;
  opts.use_termination_condition = false;
  opts.num_threads = static_cast<int>(state.range(0));
  std::int64_t trials = 0;
  for (auto _ : state) {
    const RefineResult r = refine(engine, ideal, initial, opts);
    trials += r.trials_used;
    benchmark::DoNotOptimize(r);
  }
  state.counters["trials_per_sec"] =
      benchmark::Counter(static_cast<double>(trials), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RefineThroughput)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_FindCritical(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(find_critical(inst, ideal));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FindCritical)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_InitialAssignment(benchmark::State& state) {
  const auto inst = make_instance(256, static_cast<NodeId>(state.range(0)));
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  const CriticalInfo critical = find_critical(inst, ideal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(initial_assignment(inst, critical));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_InitialAssignment)->RangeMultiplier(2)->Range(4, 32)->Complexity();

void BM_FullPipeline(benchmark::State& state) {
  // O(ns * np^2): the refinement dominates.
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_instance(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullPipeline)->RangeMultiplier(2)->Range(32, 512)->Complexity();

void BM_RefinementThreads(benchmark::State& state) {
  // Deterministic parallel refinement: wall-clock scaling of the ns-trial
  // evaluation fan-out (results are bit-identical for any thread count).
  const auto inst = make_instance(384, 8);
  const IdealSchedule ideal = compute_ideal_schedule(inst);
  const CriticalInfo critical = find_critical(inst, ideal);
  const InitialAssignmentResult initial = initial_assignment(inst, critical);
  RefineOptions opts;
  opts.max_trials = 256;
  opts.use_termination_condition = false;
  opts.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(refine(inst, ideal, initial, opts));
  }
}
BENCHMARK(BM_RefinementThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_RandomMappingBaseline(benchmark::State& state) {
  const auto inst = make_instance(static_cast<NodeId>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_random_mappings(inst, 10, 7));
  }
}
BENCHMARK(BM_RandomMappingBaseline)->Arg(64)->Arg(256);

void BM_AllPairsHops(benchmark::State& state) {
  const SystemGraph g = make_random_connected(static_cast<NodeId>(state.range(0)), 0.2, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_pairs_hops(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AllPairsHops)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_ParseTaskGraph(benchmark::State& state) {
  // Problem-file parsing as `map` and `batch` run it on a file already in
  // memory; layered DAGs shaped like the large-map inputs.
  LayeredDagParams p;
  p.num_tasks = static_cast<NodeId>(state.range(0));
  p.num_layers = std::max<NodeId>(16, p.num_tasks / 400);
  const std::string text = to_text(make_layered_dag(p, 42));
  for (auto _ : state) {
    benchmark::DoNotOptimize(task_graph_from_text(text));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_ParseTaskGraph)->Arg(300)->Arg(10000)->Arg(128000)->Unit(benchmark::kMillisecond);

void BM_LayeredDagGeneration(benchmark::State& state) {
  LayeredDagParams p;
  p.num_tasks = static_cast<NodeId>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_layered_dag(p, ++seed));
  }
}
BENCHMARK(BM_LayeredDagGeneration)->Arg(64)->Arg(256);

}  // namespace
}  // namespace mimdmap

BENCHMARK_MAIN();
