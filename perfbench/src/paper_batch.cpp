// paper-batch: the paper's section-5 protocol at batch scale, through
// MapService::map_batch exactly as `mimdmap_cli batch` drives it.
//
// Inputs: layered DAGs (np 30-300, weights 1-10) on the paper's machines —
// hypercubes of dimension 2-5, meshes 2x2 to 6x6 and sparse random
// topologies with 4-40 processors — under block or random clustering, each
// job with a 10-trial random baseline. Every instance is mapped once per
// pass under a fresh refine/random seed, so no two jobs are identical.
//
// Why: thousands of sub-millisecond jobs make per-job overhead the cost —
// engine construction, orchestration, the random baseline, lane sharding
// and topology-cache hits — which the other workloads barely touch.
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/strategies.hpp"
#include "core/critical.hpp"
#include "core/eval_engine.hpp"
#include "core/ideal_graph.hpp"
#include "core/initial_assignment.hpp"
#include "core/instance.hpp"
#include "core/refinement.hpp"
#include "graph/graph_io.hpp"
#include "graph/topology_cache.hpp"
#include "obs/metrics.hpp"
#include "service/map_service.hpp"
#include "topology/factory.hpp"
#include "workload/random_dag.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mimdmap;

/// Distinct instances per run; each pass maps every one of them once.
constexpr int kInstances = 2000;
/// Passes per second of --seconds: the timed phase maps kInstances jobs
/// per pass, sized so a pass takes about 0.25 s on 2 lanes of a 4-vCPU
/// KVM host.
constexpr double kPassesPerSecond = 4.0;
constexpr std::int64_t kRandomTrials = 10;
/// Untraced runs re-check every kReplayStride-th job on one lane.
constexpr std::size_t kReplayStride = 16;
/// Traced runs time every kOverheadStride-th job untraced as well.
constexpr std::size_t kOverheadStride = 4;
/// Set-up repetitions per run (median reported). They are spread over the
/// timed phase, one before every fifth of the passes: host speed swings in
/// bursts of seconds, and repetitions taken back to back would all land in
/// one burst. The first runs on a cold heap and is the slowest.
constexpr int kSetupReps = 5;

struct ProblemSpec {
  std::string text;     // the problem graph as `mimdmap_cli generate` writes it
  std::string machine;  // topology factory spec
  std::string strategy;
  std::uint64_t cluster_seed = 1;
};

struct JobDigest {
  Weight total = 0;
  Weight lower_bound = 0;
  std::int64_t trials = 0;
  std::uint64_t assignment = 0;
  std::uint64_t random = 0;
  bool operator==(const JobDigest&) const = default;
};

template <typename T>
std::uint64_t digest(const std::vector<T>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const T v : values) h = mix64(h ^ static_cast<std::uint64_t>(v));
  return h ^ values.size();
}

std::vector<ProblemSpec> make_inputs(std::uint64_t seed) {
  Prng rng(seed ^ 0x7061706572ULL);
  std::vector<ProblemSpec> specs;
  specs.reserve(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    ProblemSpec spec;
    int ns = 0;
    switch (rng.range(0, 2)) {
      case 0: {
        const int dim = static_cast<int>(rng.range(2, 5));
        spec.machine = "hypercube-" + std::to_string(dim);
        ns = 1 << dim;
        break;
      }
      case 1: {
        const int rows = static_cast<int>(rng.range(2, 6));
        const int cols = static_cast<int>(rng.range(2, 6));
        spec.machine = "mesh-" + std::to_string(rows) + "x" + std::to_string(cols);
        ns = rows * cols;
        break;
      }
      default: {
        ns = static_cast<int>(rng.range(4, 40));
        spec.machine = "random-" + std::to_string(ns) + "-" + std::to_string(rng.range(5, 30)) +
                       "-" + std::to_string(rng.range(1, 1000));
        break;
      }
    }
    LayeredDagParams params;
    params.num_tasks = static_cast<NodeId>(rng.range(std::max(30, 2 * ns), 300));
    params.num_layers = static_cast<NodeId>(rng.range(4, 16));
    params.node_weight = {1, 10};
    params.edge_weight = {1, 10};
    spec.text = to_text(make_layered_dag(params, rng.next()));
    spec.strategy = rng.range(0, 1) == 0 ? "block" : "random";
    spec.cluster_seed = rng.range(1, 1 << 20);
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// What `mimdmap_cli batch` does before mapping: parse every problem,
/// build every machine, acquire its tables through one TopologyCache,
/// cluster, and construct the instances.
struct SetUp {
  TopologyCache cache;
  std::deque<MappingInstance> instances;
};

std::unique_ptr<SetUp> set_up(const std::vector<ProblemSpec>& specs, SpanLog& spans) {
  auto s = std::make_unique<SetUp>();
  const Scoped root(spans, "harness.setup");
  for (const ProblemSpec& spec : specs) {
    std::optional<TaskGraph> problem;
    std::optional<SystemGraph> machine;
    std::optional<Clustering> clustering;
    std::shared_ptr<const TopologyTables> tables;
    {
      const Scoped span(spans, "graph.graph_io.parse");
      problem.emplace(task_graph_from_text(spec.text));
    }
    {
      const Scoped span(spans, "topology.factory.build");
      machine.emplace(make_topology(spec.machine));
    }
    {
      const Scoped span(spans, "cluster.strategies.build");
      clustering.emplace(
          make_clustering(spec.strategy, *problem, machine->node_count(), spec.cluster_seed));
    }
    {
      const Scoped span(spans, "graph.topology_cache.acquire");
      tables = s->cache.acquire(*machine, DistanceModel::kHops);
    }
    const Scoped span(spans, "core.instance.build");
    s->instances.emplace_back(std::move(*problem), std::move(*clustering), std::move(*machine),
                              std::move(tables));
  }
  return s;
}

MapJob make_job(const MappingInstance& instance, std::uint64_t seed, int pass, std::size_t i) {
  MapJob job;
  job.instance = &instance;
  job.name = "job-" + std::to_string(i + 1);
  const std::uint64_t key = mix64(seed ^ mix64(static_cast<std::uint64_t>(pass) << 32 | i));
  job.seed = key | 1;  // nonzero: overrides the refine seed
  job.random_trials = kRandomTrials;
  job.random_seed = mix64(key);
  return job;
}

/// The calls run_map_job makes, one span each, on one lane.
JobDigest replay_traced(const MapJob& job, const std::shared_ptr<ThreadPool>& pool,
                        SpanLog& spans, std::int64_t id, WorkloadResult& r,
                        std::int64_t& trials, double& width_sum) {
  const Scoped root(spans, "harness.job", id);
  const MappingInstance& instance = *job.instance;
  MapperOptions options = job.options;
  options.refine.seed = job.seed;
  options.refine.num_threads = 1;

  const std::int32_t build = spans.open("core.eval_engine.build", id);
  const EvalEngine engine(instance, pool);
  spans.close(build);

  IdealSchedule ideal;
  {
    const Scoped span(spans, "core.ideal_graph.schedule", id);
    ideal = compute_ideal_schedule(instance);
  }
  CriticalInfo critical;
  {
    const Scoped span(spans, "core.critical.find", id);
    critical = find_critical(instance, ideal, options.critical);
  }
  InitialAssignmentResult initial;
  {
    const Scoped span(spans, "core.initial_assignment", id);
    initial = initial_assignment(instance, critical);
    (void)engine.evaluate(initial.assignment, options.refine.eval);
  }
  RefineResult refined;
  {
    const Scoped span(spans, "core.refinement.refine", id);
    refined = refine(engine, ideal, initial, options.refine);
  }
  RandomMappingStats random;
  {
    const Scoped span(spans, "baseline.random_mapping", id);
    random = evaluate_random_mappings(engine, job.random_trials, job.random_seed,
                                      options.refine.eval);
  }
  if (refined.status != MapStatus::kOk) r.fail("traced replay of job " + std::to_string(id) +
                                               " ended " + to_string(refined.status));
  trials += refined.trials_used;
  width_sum += engine.resolve_batch_width(options.refine.eval_width, options.refine.eval);
  return {refined.schedule.total_time, ideal.lower_bound, refined.trials_used,
          digest(refined.assignment.cluster_on_vector()), digest(random.totals)};
}

JobDigest digest_of(const MapJobResult& result) {
  return {result.report.total_time(), result.report.lower_bound,
          result.report.refinement_trials, digest(result.report.assignment.cluster_on_vector()),
          digest(result.random.totals)};
}

std::uint64_t counter(const char* name) { return obs::registry().counter(name).value(); }

}  // namespace

WorkloadResult run_paper_batch(const RunConfig& config, SpanLog& spans) {
  WorkloadResult r;
  const std::vector<ProblemSpec> specs = make_inputs(config.seed);

  SpanLog untraced(false);
  std::unique_ptr<SetUp> setup;
  // Replaces the live instances with a freshly built, identical set.
  const auto timed_set_up = [&] {
    setup.reset();
    const auto t0 = Clock::now();
    setup = set_up(specs, untraced);
    r.setup_s.push_back(ms_between(t0, Clock::now()) / 1e3);
  };

  MapServiceOptions service_options;
  service_options.lanes = kLanes;
  MapService service(std::move(service_options));

  const int passes = std::max(1, static_cast<int>(config.seconds * kPassesPerSecond + 0.5));
  const auto n = static_cast<std::size_t>(kInstances);
  std::vector<JobDigest> digests;
  digests.reserve(n * static_cast<std::size_t>(passes));
  double wall_sum_ms = 0.0;
  double unattributed_sum_ms = 0.0;
  std::vector<double> pass_ms;

  const std::uint64_t chunks0 = counter("mimdmap_pool_chunks_total");
  const std::uint64_t seq0 = counter("mimdmap_pool_chunks_sequential_total");
  const std::uint64_t stolen0 = counter("mimdmap_pool_indices_stolen_total");
  r.timed_begin = host_now();
  for (int pass = 0; pass < passes; ++pass) {
    while (static_cast<int>(r.setup_s.size()) < kSetupReps &&
           static_cast<int>(r.setup_s.size()) * passes <= pass * kSetupReps) {
      timed_set_up();
    }
    std::vector<MapJob> jobs;
    jobs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      jobs.push_back(make_job(setup->instances[i], config.seed, pass, i));
    }
    const CpuTimes c0 = host_now().cpu;
    const auto t0 = Clock::now();
    const std::vector<MapJobResult> results = service.map_batch(std::move(jobs));
    pass_ms.push_back(ms_between(t0, Clock::now()));
    const double pass_steal = steal_pct(c0, host_now().cpu);
    r.rate_steal_pct.push_back(pass_steal);
    r.latency_steal_pct.push_back(pass_steal);
    r.timed_wall_s += pass_ms.back() / 1e3;
    const std::int64_t ok_before = r.ok;
    std::vector<double>& window = r.window_latency_ms.emplace_back();
    for (const MapJobResult& res : results) {
      window.push_back(res.wall_ms);
      ++r.attempted;
      digests.push_back(digest_of(res));
      r.latency_ms.push_back(res.wall_ms);
      wall_sum_ms += res.wall_ms;
      unattributed_sum_ms += res.wall_ms - res.stages.build_ms - res.stages.topo_ms -
                             res.stages.map_ms - res.stages.random_ms;
      if (!res.ok() || res.report.lower_bound <= 0) {
        r.fail(res.name + " pass " + std::to_string(pass) + ": status " +
               to_string(res.status) + " " + res.error);
        continue;
      }
      ++r.ok;
      r.quality_sum_pct += 100.0 * static_cast<double>(res.report.total_time()) /
                           static_cast<double>(res.report.lower_bound);
      ++r.quality_n;
    }
    r.window_rates.push_back(static_cast<double>(r.ok - ok_before) / (pass_ms.back() / 1e3));
  }
  r.timed_end = host_now();
  const std::int64_t topo_hits = setup->cache.hits();
  const std::int64_t topo_misses = setup->cache.misses();
  const std::uint64_t chunks = counter("mimdmap_pool_chunks_total") - chunks0;
  const std::uint64_t seq_chunks = counter("mimdmap_pool_chunks_sequential_total") - seq0;
  const std::uint64_t stolen = counter("mimdmap_pool_indices_stolen_total") - stolen0;

  // Bit-identity gate: MapService promises every job the result of the
  // sequential one-lane path. Untraced runs re-run a fixed sample through
  // run_map_job; the traced run replays every job stage by stage.
  const std::shared_ptr<ThreadPool>& pool = service.pool();
  std::int64_t mismatches = 0;
  const auto check = [&](const JobDigest& got, std::size_t k, const char* path) {
    if (got == digests[k]) return;
    ++mismatches;
    r.fail(std::string(path) + " of job " + std::to_string(k) +
           " differs from the batched result (total " + std::to_string(got.total) + " vs " +
           std::to_string(digests[k].total) + ")");
  };
  if (!config.trace) {
    for (std::size_t k = 0; k < digests.size(); k += kReplayStride) {
      const MapJob job = make_job(setup->instances[k % n], config.seed,
                                  static_cast<int>(k / n), k % n);
      check(digest_of(run_map_job(job, pool, 1)), k, "one-lane replay");
    }
  } else {
    // Traced set-up (same inputs, same instances) and traced replay.
    setup.reset();
    setup = set_up(specs, spans);
    std::int64_t trials = 0;
    double width_sum = 0.0;
    double untraced_ms = 0.0;
    double traced_ms = 0.0;
    for (std::size_t k = 0; k < digests.size(); ++k) {
      const MapJob job = make_job(setup->instances[k % n], config.seed,
                                  static_cast<int>(k / n), k % n);
      const bool sample = k % kOverheadStride == 0;
      const bool untraced_first = (k / kOverheadStride) % 2 == 0;
      const auto untraced_run = [&] {
        const auto t0 = Clock::now();
        check(digest_of(run_map_job(job, pool, 1)), k, "one-lane replay");
        untraced_ms += ms_between(t0, Clock::now());
      };
      if (sample && untraced_first) untraced_run();
      const auto t0 = Clock::now();
      check(replay_traced(job, pool, spans, static_cast<std::int64_t>(k), r, trials, width_sum),
            k, "traced replay");
      if (sample) traced_ms += ms_between(t0, Clock::now());
      if (sample && !untraced_first) untraced_run();
    }
    fold_into_layers(spans, r);
    const double refine_s = r.layers["core.refinement.refine_ms"] / 1e3;
    const double jobs = static_cast<double>(digests.size());
    r.layers["graph.topology_cache.hits"] = static_cast<double>(topo_hits);
    r.layers["graph.topology_cache.misses"] = static_cast<double>(topo_misses);
    r.layers["core.refinement.trials"] = static_cast<double>(trials);
    r.layers["core.refinement.candidates_per_s"] =
        refine_s > 0 ? static_cast<double>(trials) / refine_s : 0.0;
    r.layers["core.eval_engine.batch_width"] = width_sum / jobs;
    r.layers["service.map_service.job_ms"] = wall_sum_ms / jobs;
    r.layers["service.map_service.unattributed_ms"] = unattributed_sum_ms / jobs;
    r.layers["service.map_service.lane_busy_pct"] =
        100.0 * wall_sum_ms / (kLanes * r.timed_wall_s * 1e3);
    r.layers["service.thread_pool.chunks"] = static_cast<double>(chunks);
    r.layers["service.thread_pool.sequential_chunks"] = static_cast<double>(seq_chunks);
    r.layers["service.thread_pool.indices_stolen"] = static_cast<double>(stolen);
    r.layers["harness.trace_overhead_pct"] =
        untraced_ms > 0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0;
  }
  r.ok -= std::min(r.ok, mismatches);

  std::ostringstream note;
  note << "paper-batch: " << n << " instances x " << passes << " passes = " << digests.size()
       << " jobs, " << kRandomTrials << " random trials each; topology cache " << topo_hits
       << " hits / " << topo_misses << " misses per set-up; pool chunks " << chunks
       << " (sequential " << seq_chunks << ", stolen indices " << stolen << "); pass ms:";
  for (const double ms : pass_ms) note << " " << static_cast<int>(ms);
  r.notes.push_back(note.str());
  return r;
}

}  // namespace perfbench
