// large-map: `mimdmap_cli map` on big instances, with the same library
// calls cmd_map makes, so set-up and mapping are timed apart.
//
// Inputs: a dozen layered DAGs with np spread from about 10k to about
// 130k — some on each side of the SoA width cliff near 32.7k tasks (the
// auto width drops from 8 to 1 below it) and of np = 100k — on torus-8x8,
// mesh3d-4x4x4, hypercube-6 and torus-16x16, block clustering, the paper's
// trial budget (ns), the plain cost model and 2 refine threads.
//
// Why: the ideal schedule, the refinement kernel and chunk-level pool
// parallelism at large np, plus text parsing in set-up. Per-job
// orchestration is negligible here.
#include <cmath>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/strategies.hpp"
#include "core/critical.hpp"
#include "core/eval_engine.hpp"
#include "core/evaluation.hpp"
#include "core/ideal_graph.hpp"
#include "core/initial_assignment.hpp"
#include "core/instance.hpp"
#include "core/mapper.hpp"
#include "core/refinement.hpp"
#include "core/validate.hpp"
#include "graph/graph_io.hpp"
#include "obs/metrics.hpp"
#include "topology/factory.hpp"
#include "workload/random_dag.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mimdmap;

/// Problem sizes, jittered by up to 2% per seed; the jitter never moves
/// one across 16.4k, 32.7k (the SoA width steps) or 100k. Fifteen sizes
/// put the p50 and p90 ranks mid-way through a size class instead of on
/// the edge between two, where a single slow job would move them.
constexpr int kSizes[] = {10000, 13000, 15500, 18500, 22000, 26000,  30000, 35000,
                          41000, 50000, 62000, 78000, 95000, 112000, 128000};
constexpr const char* kMachines[] = {"torus-8x8", "mesh3d-4x4x4", "hypercube-6",
                                     "torus-16x16"};
constexpr int kRefineThreads = 2;
/// Passes over all instances per second of --seconds, and at least
/// kMinPasses, so a run holds 105 latency samples and its p90 has at least
/// 10 beyond it. Each pass is one window.
constexpr double kPassesPerSecond = 1.0;
constexpr int kMinPasses = 7;
/// Set-up repetitions per run (median reported), back to back before the
/// timed phase: each takes seconds, so each already integrates over the
/// host's bursts, and rebuilding engines between passes would hand cold
/// engines to the passes after each rebuild.
constexpr int kSetupReps = 3;
/// Traced runs time every kOverheadStride-th job untraced as well.
constexpr std::size_t kOverheadStride = 3;

struct Input {
  std::string path;  // problem file, as `mimdmap_cli map --problem` reads it
  std::string machine;
  NodeId np = 0;
};

struct Loaded {
  std::unique_ptr<MappingInstance> instance;
  std::unique_ptr<EvalEngine> engine;
};

std::string slurp(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

std::vector<Input> make_inputs(const RunConfig& config) {
  Prng rng(config.seed ^ 0x6c61726765ULL);
  std::vector<Input> inputs;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    Input in;
    in.np = static_cast<NodeId>(kSizes[i] + rng.range(-kSizes[i] / 50, kSizes[i] / 50));
    in.machine = kMachines[i % std::size(kMachines)];
    LayeredDagParams params;
    params.num_tasks = in.np;
    params.num_layers = std::max<NodeId>(16, in.np / 400);
    params.node_weight = {1, 10};
    params.edge_weight = {1, 10};
    in.path = config.work_dir + "/large-map-" + std::to_string(i) + ".txt";
    std::ofstream(in.path) << to_text(make_layered_dag(params, rng.next()));
    inputs.push_back(std::move(in));
  }
  return inputs;
}

/// Everything cmd_map does before map_instance: read, parse, build the
/// machine, cluster, construct the instance and its EvalEngine.
std::vector<Loaded> set_up(const std::vector<Input>& inputs, SpanLog& spans) {
  std::vector<Loaded> loaded;
  const Scoped root(spans, "harness.setup");
  for (const Input& in : inputs) {
    std::optional<std::string> text;
    std::optional<TaskGraph> problem;
    std::optional<SystemGraph> machine;
    std::optional<Clustering> clustering;
    {
      const Scoped span(spans, "harness.read_file");
      text.emplace(slurp(in.path));
    }
    {
      const Scoped span(spans, "graph.graph_io.parse");
      problem.emplace(task_graph_from_text(*text));
    }
    {
      const Scoped span(spans, "topology.factory.build");
      machine.emplace(make_topology(in.machine));
    }
    {
      const Scoped span(spans, "cluster.strategies.build");
      clustering.emplace(make_clustering("block", *problem, machine->node_count(), 1));
    }
    Loaded l;
    {
      const Scoped span(spans, "core.instance.build");
      l.instance = std::make_unique<MappingInstance>(std::move(*problem), std::move(*clustering),
                                                     std::move(*machine));
    }
    {
      const Scoped span(spans, "core.eval_engine.build");
      l.engine = std::make_unique<EvalEngine>(*l.instance);
    }
    loaded.push_back(std::move(l));
  }
  return loaded;
}

MapperOptions options_for(std::uint64_t seed, int pass, std::size_t i) {
  MapperOptions opts;
  opts.refine.seed = mix64(seed ^ mix64(static_cast<std::uint64_t>(pass) << 32 | i)) | 1;
  opts.refine.num_threads = kRefineThreads;
  return opts;
}

struct Outcome {
  Weight total = 0;
  std::int64_t trials = 0;
  std::vector<NodeId> assignment;
  bool operator==(const Outcome&) const = default;
};

/// map_instance's flat pipeline, stage by stage, one span per call.
Outcome map_traced(const EvalEngine& engine, const MapperOptions& opts, SpanLog& spans,
                   std::int64_t id, std::int64_t& trials_total) {
  const Scoped root(spans, "harness.job", id);
  const MappingInstance& instance = engine.instance();
  IdealSchedule ideal;
  {
    const Scoped span(spans, "core.ideal_graph.schedule", id);
    ideal = compute_ideal_schedule(instance);
  }
  CriticalInfo critical;
  {
    const Scoped span(spans, "core.critical.find", id);
    critical = find_critical(instance, ideal, opts.critical);
  }
  InitialAssignmentResult initial;
  {
    const Scoped span(spans, "core.initial_assignment", id);
    initial = initial_assignment(instance, critical);
    (void)engine.evaluate(initial.assignment, opts.refine.eval);
  }
  RefineResult refined;
  {
    const Scoped span(spans, "core.refinement.refine", id);
    refined = refine(engine, ideal, initial, opts.refine);
  }
  trials_total += refined.trials_used;
  return {refined.schedule.total_time, refined.trials_used,
          refined.assignment.cluster_on_vector()};
}

std::uint64_t counter(const char* name) { return obs::registry().counter(name).value(); }

std::string in_words(const Input& in, int pass) {
  return "np=" + std::to_string(in.np) + " on " + in.machine + " pass " + std::to_string(pass);
}

}  // namespace

WorkloadResult run_large_map(const RunConfig& config, SpanLog& spans) {
  WorkloadResult r;
  const std::vector<Input> inputs = make_inputs(config);

  SpanLog untraced(false);
  std::vector<Loaded> loaded;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    loaded.clear();
    const auto t0 = Clock::now();
    loaded = set_up(inputs, untraced);
    r.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  }

  const int passes =
      std::max(kMinPasses, static_cast<int>(std::lround(config.seconds * kPassesPerSecond)));
  std::vector<Outcome> outcomes;
  const std::uint64_t chunks0 = counter("mimdmap_pool_chunks_total");
  const std::uint64_t seq0 = counter("mimdmap_pool_chunks_sequential_total");
  const std::uint64_t stolen0 = counter("mimdmap_pool_indices_stolen_total");
  r.timed_begin = host_now();
  for (int pass = 0; pass < passes; ++pass) {
    const std::int64_t ok_before = r.ok;
    double pass_s = 0.0;
    CpuTimes pass_cpu;  // host CPU time over the pass's timed intervals
    r.window_latency_ms.emplace_back();
    for (std::size_t i = 0; i < loaded.size(); ++i) {
      const EvalEngine& engine = *loaded[i].engine;
      const MappingInstance& instance = *loaded[i].instance;
      const MapperOptions opts = options_for(config.seed, pass, i);
      const CpuTimes c0 = host_now().cpu;
      const auto t0 = Clock::now();
      const MappingReport report = map_instance(engine, opts);
      const double ms = ms_between(t0, Clock::now());
      const CpuTimes c1 = host_now().cpu;
      pass_cpu.total += c1.total - c0.total;
      pass_cpu.steal += c1.steal - c0.steal;
      r.timed_wall_s += ms / 1e3;
      pass_s += ms / 1e3;
      r.latency_ms.push_back(ms);
      r.window_latency_ms.back().push_back(ms);
      ++r.attempted;
      outcomes.push_back({report.total_time(), report.refinement_trials,
                          report.assignment.cluster_on_vector()});

      // Gates, outside the timed interval: the returned total is the
      // oracle's total for the returned assignment, and the returned
      // schedule satisfies every precedence and placement constraint.
      const std::string job = in_words(inputs[i], pass);
      bool good = report.status == MapStatus::kOk && report.lower_bound > 0;
      if (!good) r.fail(job + ": status " + to_string(report.status));
      const Weight oracle = evaluate_reference(instance, report.assignment).total_time;
      if (oracle != report.total_time()) {
        good = false;
        r.fail(job + ": total " + std::to_string(report.total_time()) +
               " but evaluate_reference says " + std::to_string(oracle));
      }
      try {
        validate_schedule(instance, report.assignment, report.schedule);
      } catch (const std::exception& e) {
        good = false;
        r.fail(job + ": invalid schedule: " + e.what());
      }
      const int width = engine.resolve_batch_width(0);
      if (report.eval_width != width) {
        good = false;
        r.fail(job + ": eval width " + std::to_string(report.eval_width) +
               " but resolve_batch_width says " + std::to_string(width));
      }
      if (!good) continue;
      ++r.ok;
      r.quality_sum_pct += 100.0 * static_cast<double>(report.total_time()) /
                           static_cast<double>(report.lower_bound);
      ++r.quality_n;
    }
    r.window_rates.push_back(static_cast<double>(r.ok - ok_before) / pass_s);
    r.rate_steal_pct.push_back(steal_pct({}, pass_cpu));
    r.latency_steal_pct.push_back(r.rate_steal_pct.back());
  }
  r.timed_end = host_now();
  const std::uint64_t chunks = counter("mimdmap_pool_chunks_total") - chunks0;
  const std::uint64_t seq_chunks = counter("mimdmap_pool_chunks_sequential_total") - seq0;
  const std::uint64_t stolen = counter("mimdmap_pool_indices_stolen_total") - stolen0;

  std::ostringstream note;
  note << "large-map: " << loaded.size() << " instances x " << passes << " passes, "
       << kRefineThreads << " refine threads; per instance (np, ns, machine, width):";
  double width_sum = 0.0;
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    const int width = loaded[i].engine->resolve_batch_width(0);
    width_sum += width;
    note << "\n  " << inputs[i].np << " " << loaded[i].instance->num_processors() << " "
         << inputs[i].machine << " " << width;
  }
  r.notes.push_back(note.str());

  if (config.trace) {
    loaded.clear();
    loaded = set_up(inputs, spans);
    std::int64_t trials = 0;
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
    std::size_t k = 0;
    for (int pass = 0; pass < passes; ++pass) {
      for (std::size_t i = 0; i < loaded.size(); ++i, ++k) {
        const EvalEngine& engine = *loaded[i].engine;
        const MapperOptions opts = options_for(config.seed, pass, i);
        // Every kOverheadStride-th job also runs untraced, alternating
        // which goes first; the difference is the tracing overhead.
        const bool sample = k % kOverheadStride == 0;
        const bool untraced_first = (k / kOverheadStride) % 2 == 0;
        const auto untraced_run = [&] {
          const auto t0 = Clock::now();
          (void)map_instance(engine, opts);
          untraced_ms += ms_between(t0, Clock::now());
        };
        if (sample && untraced_first) untraced_run();
        const auto t0 = Clock::now();
        const Outcome got = map_traced(engine, opts, spans, static_cast<std::int64_t>(k), trials);
        if (sample) traced_ms += ms_between(t0, Clock::now());
        if (sample && !untraced_first) untraced_run();
        if (!(got == outcomes[k])) {
          r.fail(in_words(inputs[i], pass) + ": traced stages differ from map_instance");
        }
      }
    }
    fold_into_layers(spans, r);
    const double refine_s = r.layers["core.refinement.refine_ms"] / 1e3;
    r.layers["core.refinement.trials"] = static_cast<double>(trials);
    r.layers["core.refinement.candidates_per_s"] =
        refine_s > 0 ? static_cast<double>(trials) / refine_s : 0.0;
    r.layers["core.eval_engine.batch_width"] = width_sum / static_cast<double>(loaded.size());
    r.layers["service.thread_pool.chunks"] = static_cast<double>(chunks);
    r.layers["service.thread_pool.sequential_chunks"] = static_cast<double>(seq_chunks);
    r.layers["service.thread_pool.indices_stolen"] = static_cast<double>(stolen);
    r.layers["harness.trace_overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0);
  }
  return r;
}

}  // namespace perfbench
