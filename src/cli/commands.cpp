#include "cli/commands.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/gantt.hpp"
#include "analysis/metrics.hpp"
#include "analysis/table.hpp"
#include "baseline/random_mapping.hpp"
#include "cli/manifest.hpp"
#include "cluster/cluster_io.hpp"
#include "cluster/strategies.hpp"
#include "core/cancellation.hpp"
#include "core/eval_engine.hpp"
#include "core/mapper.hpp"
#include "core/validate.hpp"
#include "graph/graph_io.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/topological.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/map_service.hpp"
#include "service/server.hpp"
#include "topology/factory.hpp"
#include "workload/random_dag.hpp"
#include "workload/structured.hpp"

namespace mimdmap::cli {
namespace {

/// Writes `text` to the --out path, or to `fallback` when none given.
void emit(Flags& flags, std::ostream& fallback, const std::string& text) {
  const std::string path = flags.get_string("out", "");
  if (path.empty()) {
    fallback << text;
    return;
  }
  std::ofstream file(path);
  if (!file) throw std::invalid_argument("cannot open output file '" + path + "'");
  file << text;
}

TaskGraph load_problem(Flags& flags) {
  return task_graph_from_text(read_file(flags.require_string("problem")));
}

SystemGraph load_system(Flags& flags) {
  // Either a file (--system path) or a factory spec (--spec).
  if (flags.has("system")) return system_graph_from_text(read_file(flags.require_string("system")));
  return make_topology(flags.require_string("spec"));
}

/// Shared weight-range flags for the generators.
WeightRange node_range(Flags& flags) {
  return {flags.get_int("node-min", 1), flags.get_int("node-max", 10)};
}
WeightRange edge_range(Flags& flags) {
  return {flags.get_int("edge-min", 1), flags.get_int("edge-max", 10)};
}

int reject_unused(Flags& flags, std::ostream& err) {
  (void)flags.get_string("out", "");  // emit() reads it after this check
  const auto unknown = flags.unused();
  if (unknown.empty()) return 0;
  err << "unknown flag(s):";
  for (const std::string& name : unknown) err << " --" << name;
  err << "\n";
  return 2;
}

EvalOptions eval_options(Flags& flags) {
  EvalOptions opts;
  opts.serialize_within_processor = flags.get_bool("serialize");
  opts.link_contention = flags.get_bool("contention");
  return opts;
}

/// --trace out.json support: construct at command entry (enables the
/// tracer when the flag is present), call write() after the work — the
/// Chrome trace JSON lands in the given file, loadable in Perfetto.
class TraceFile {
 public:
  explicit TraceFile(Flags& flags) : path_(flags.get_string("trace", "")) {
    if (!path_.empty()) obs::tracer().enable();
  }

  void write() {
    if (path_.empty()) return;
    std::ofstream file(path_);
    if (!file) throw std::invalid_argument("cannot open trace file '" + path_ + "'");
    obs::tracer().export_chrome_json(file);
    obs::tracer().disable();
  }

 private:
  std::string path_;
};

}  // namespace

int cmd_generate(Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string workload = flags.get_string("workload", "layered");
  const std::uint64_t seed = flags.get_seed("seed", 1);
  StructuredWeights sw{node_range(flags), edge_range(flags), seed};

  TaskGraph graph = [&]() -> TaskGraph {
    if (workload == "layered") {
      LayeredDagParams p;
      p.num_tasks = static_cast<NodeId>(flags.get_int("tasks", 60));
      p.num_layers = static_cast<NodeId>(flags.get_int("layers", 8));
      p.avg_out_degree = static_cast<double>(flags.get_int("degree10", 20)) / 10.0;
      p.node_weight = sw.node_weight;
      p.edge_weight = sw.edge_weight;
      return make_layered_dag(p, seed);
    }
    if (workload == "erdos") {
      ErdosRenyiDagParams p;
      p.num_tasks = static_cast<NodeId>(flags.get_int("tasks", 60));
      p.edge_probability = static_cast<double>(flags.get_int("percent", 5)) / 100.0;
      p.node_weight = sw.node_weight;
      p.edge_weight = sw.edge_weight;
      return make_erdos_renyi_dag(p, seed);
    }
    if (workload == "series-parallel") {
      SeriesParallelParams p;
      p.depth = static_cast<NodeId>(flags.get_int("depth", 5));
      p.node_weight = sw.node_weight;
      p.edge_weight = sw.edge_weight;
      return make_series_parallel(p, seed);
    }
    if (workload == "fork-join") {
      return make_fork_join(static_cast<NodeId>(flags.get_int("width", 8)),
                            static_cast<NodeId>(flags.get_int("stages", 2)), sw);
    }
    if (workload == "pipeline") {
      return make_pipeline(static_cast<NodeId>(flags.get_int("length", 16)), sw);
    }
    if (workload == "diamond") {
      return make_diamond(static_cast<NodeId>(flags.get_int("rows", 6)),
                          static_cast<NodeId>(flags.get_int("cols", 6)), sw);
    }
    if (workload == "fft") {
      return make_fft(static_cast<NodeId>(flags.get_int("points", 8)), sw);
    }
    if (workload == "gaussian") {
      return make_gaussian_elimination(static_cast<NodeId>(flags.get_int("order", 8)), sw);
    }
    if (workload == "cholesky") {
      return make_cholesky(static_cast<NodeId>(flags.get_int("tiles", 6)), sw);
    }
    if (workload == "lu") {
      return make_lu(static_cast<NodeId>(flags.get_int("tiles", 5)), sw);
    }
    throw std::invalid_argument("unknown --workload '" + workload + "'");
  }();

  const bool dot = flags.get_bool("dot");
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;
  emit(flags, out, dot ? to_dot(graph) : to_text(graph));
  return 0;
}

int cmd_topology(Flags& flags, std::ostream& out, std::ostream& err) {
  const SystemGraph machine = make_topology(flags.require_string("spec"));
  const bool dot = flags.get_bool("dot");
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;
  emit(flags, out, dot ? to_dot(machine) : to_text(machine));
  return 0;
}

int cmd_cluster(Flags& flags, std::ostream& out, std::ostream& err) {
  const TaskGraph problem = load_problem(flags);
  const auto clusters = static_cast<NodeId>(flags.get_int("clusters", 8));
  const std::string strategy = flags.get_string("strategy", "block");
  const std::uint64_t seed = flags.get_seed("seed", 1);
  const Clustering clustering = make_clustering(strategy, problem, clusters, seed);
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;
  emit(flags, out, to_text(clustering));
  return 0;
}

int cmd_map(Flags& flags, std::ostream& out, std::ostream& err) {
  TraceFile trace(flags);
  obs::Span cmd_span("map_command", "cli");

  obs::Span load_span("load_inputs", "cli");
  TaskGraph problem = load_problem(flags);
  SystemGraph machine = load_system(flags);

  Clustering clustering = [&]() {
    if (flags.has("clustering")) {
      return clustering_from_text(read_file(flags.require_string("clustering")));
    }
    return make_clustering(flags.get_string("strategy", "block"), problem,
                           machine.node_count(), flags.get_seed("seed", 1));
  }();
  load_span.end();

  const DistanceModel model = flags.get_bool("weighted-links")
                                  ? DistanceModel::kWeightedLinks
                                  : DistanceModel::kHops;
  obs::Span build_span("build_instance", "cli", "np",
                       static_cast<std::int64_t>(problem.node_count()));
  const MappingInstance instance(std::move(problem), std::move(clustering),
                                 std::move(machine), model);

  MapperOptions opts;
  opts.refine.eval = eval_options(flags);
  opts.refine.seed = flags.get_seed("refine-seed", 0x9e3779b97f4a7c15ULL);
  opts.refine.max_trials = flags.get_int("trials", -1);
  opts.refine.num_threads = static_cast<int>(flags.get_int("threads", 1));
  opts.refine.eval_width = static_cast<int>(flags.get_int("width", 0));
  opts.critical.propagate_through_intra_cluster = flags.get_bool("extended-critical");
  opts.multilevel.enabled = flags.get_bool("multilevel");
  opts.multilevel.coarsen_target = static_cast<NodeId>(flags.get_int("coarsen-target", 0));
  opts.multilevel.level_trials = flags.get_int("level-trials", -1);

  const bool show_gantt = flags.get_bool("gantt");
  const auto random_trials = flags.get_int("random-trials", 0);
  const std::uint64_t random_seed = flags.get_seed("random-seed", 99);
  const std::int64_t deadline_ms = flags.get_int("deadline-ms", 0);
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;

  // Wall-clock budget: the pipeline polls the token cooperatively and, on
  // expiry, ships the best incumbent it has with a degraded status instead
  // of overrunning (core/cancellation.hpp).
  CancelSource deadline_source;
  if (deadline_ms > 0) {
    deadline_source.set_deadline_after_ms(deadline_ms);
    opts.refine.cancel = deadline_source.token();
  }

  // One engine serves the whole command: the mapping pipeline, and the
  // random-mapping baseline below when requested.
  const EvalEngine engine(instance);
  build_span.end();
  const MappingReport report = map_instance(engine, opts);

  std::ostringstream os;
  os << "instance: np=" << instance.num_tasks() << " ns=" << instance.num_processors()
     << " system=" << instance.system().name() << "\n";
  os << "lower bound:        " << report.lower_bound << "\n";
  os << "critical edges:     " << report.critical.critical_edges.size() << "\n";
  os << "initial total:      " << report.initial_total << "\n";
  os << "final total:        " << report.total_time() << "  ("
     << report.percent_over_lower_bound() << "% of bound)\n";
  os << "refinement trials:  " << report.refinement_trials << "\n";
  const int threads_used = engine.resolve_num_threads(opts.refine.num_threads, opts.refine.eval);
  os << "eval threads:       " << threads_used
     << (opts.refine.num_threads == 0 ? " (auto)" : "") << "\n";
  os << "eval width:         " << report.eval_width
     << (opts.refine.eval_width == 0 ? " (auto)" : "") << "\n";
  if (report.delta.trials > 0) {
    os << "delta trials:       " << report.delta.trials << " ("
       << report.delta.delta_trials << " incremental, " << report.delta.full_fallbacks
       << " full; " << report.delta.shift_fast_paths << " shift hits, "
       << report.delta.verdict_exits << " verdict exits, " << report.delta.claims_skipped
       << " claims skipped)\n";
  }
  if (report.delta.potential_cache_disabled > 0) {
    os << "potential cache:    disabled/bypassed on " << report.delta.potential_cache_disabled
       << " lookups (weaker tail0 verdicts; tune MIMDMAP_DELTA_CACHE)\n";
  }
  if (!report.levels.empty()) {
    os << "multilevel:         " << report.levels.size() << " stages (coarsest first)\n";
    for (const MultilevelLevelStats& lvl : report.levels) {
      os << "  level " << lvl.level << ": np=" << lvl.np << " edges=" << lvl.edges
         << " trials=" << lvl.trials << " improvements=" << lvl.improvements << " total "
         << lvl.total_before << " -> " << lvl.total_after << " (" << lvl.ms << " ms)\n";
    }
  }
  os << "optimal:            " << (report.reached_lower_bound ? "yes (termination condition)"
                                                              : "not proven") << "\n";
  if (report.status != MapStatus::kOk) {
    os << "status:             " << to_string(report.status)
       << " (degraded: best incumbent at the deadline)\n";
  }
  os << "assignment (cluster on each processor): ";
  for (NodeId p = 0; p < instance.num_processors(); ++p) {
    os << (p == 0 ? "" : ",") << report.assignment.cluster_on(p);
  }
  os << "\n";
  if (random_trials > 0) {
    const obs::Span random_span("random_baseline", "cli", "trials", random_trials);
    const RandomMappingStats random =
        evaluate_random_mappings(engine, random_trials, random_seed, opts.refine.eval);
    os << "random mapping mean over " << random_trials << " trials: " << random.mean()
       << "  (" << percent_over_lower_bound(random.mean(), report.lower_bound)
       << "% of bound)\n";
  }
  if (show_gantt) {
    os << "\n" << render_gantt(instance, report.assignment, report.schedule);
  }
  emit(flags, out, os.str());
  cmd_span.end();
  trace.write();
  return 0;
}

int cmd_eval(Flags& flags, std::ostream& out, std::ostream& err) {
  TaskGraph problem = load_problem(flags);
  SystemGraph machine = load_system(flags);
  Clustering clustering = clustering_from_text(read_file(flags.require_string("clustering")));
  const std::vector<NodeId> cluster_on = parse_id_list(flags.require_string("assignment"));

  const MappingInstance instance(std::move(problem), std::move(clustering),
                                 std::move(machine));
  const Assignment assignment = Assignment::from_cluster_on(cluster_on);
  const EvalOptions opts = eval_options(flags);
  const bool show_gantt = flags.get_bool("gantt");
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;

  const EvalEngine engine(instance);
  const ScheduleResult schedule = engine.evaluate(assignment, opts);
  validate_schedule(instance, assignment, schedule, opts);
  const Weight lb = compute_ideal_schedule(instance).lower_bound;

  std::ostringstream os;
  os << "total time:  " << schedule.total_time << "\n";
  os << "lower bound: " << lb << "  (" << percent_over_lower_bound(schedule.total_time, lb)
     << "%)\n";
  if (show_gantt) os << "\n" << render_gantt(instance, assignment, schedule);
  emit(flags, out, os.str());
  return 0;
}

int cmd_info(Flags& flags, std::ostream& out, std::ostream& err) {
  std::ostringstream os;
  if (flags.has("problem")) {
    const TaskGraph g = load_problem(flags);
    os << "task graph: " << g.node_count() << " tasks, " << g.edge_count() << " edges\n";
    os << "total work: " << g.total_work() << ", total traffic: " << g.total_traffic()
       << "\n";
    os << "critical path: " << critical_path_length(g) << "\n";
    const auto levels = topological_levels(g);
    NodeId depth = 0;
    for (const NodeId l : levels) depth = std::max(depth, l);
    os << "depth: " << depth + 1 << " levels\n";
  } else {
    const SystemGraph g = load_system(flags);
    os << "system graph '" << g.name() << "': " << g.node_count() << " processors, "
       << g.link_count() << " links\n";
    os << "max degree: " << g.max_degree() << ", diameter: " << diameter(g)
       << ", mean distance: "
       << static_cast<double>(mean_distance_milli(g)) / 1000.0 << "\n";
  }
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;
  emit(flags, out, os.str());
  return 0;
}

namespace {

/// SIGINT flag for cmd_batch's cancel-and-drain path. The handler only
/// sets the flag (async-signal-safe); a watcher thread does the actual
/// cancellation.
volatile std::sig_atomic_t g_batch_interrupted = 0;

void batch_sigint_handler(int) { g_batch_interrupted = 1; }

}  // namespace

int cmd_batch(Flags& flags, std::ostream& out, std::ostream& err) {
  TraceFile trace(flags);
  obs::Span cmd_span("batch_command", "cli");
  const std::string manifest_path = flags.require_string("manifest");
  const int lanes = static_cast<int>(flags.get_int("lanes", 0));
  const int max_jobs = static_cast<int>(flags.get_int("jobs", 0));
  const bool live_progress = flags.get_bool("progress");
  const bool csv = flags.get_bool("csv");
  const std::int64_t timeout_ms = flags.get_int("timeout", 0);
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;

  // Structure first (cli/manifest.hpp: pure text -> validated specs),
  // then resolution against the filesystem. Instances live in a deque so
  // MapJob pointers stay stable as lines are appended. Manifests typically
  // reuse a handful of machines, so the per-line topology tables (distance
  // matrix + routing) come from one shared cache: repeated machines cost
  // one build, and every job's engine adopts the shared routing instead of
  // rebuilding it.
  const std::vector<ManifestJobSpec> specs = parse_manifest(read_file(manifest_path));
  if (specs.empty()) throw std::invalid_argument("manifest has no jobs");
  TopologyCache topo_cache;
  std::deque<MappingInstance> instances;
  std::vector<MapJob> jobs;
  for (const ManifestJobSpec& spec : specs) {
    const auto& kv = spec.kv;
    const int line_no = spec.line_no;
    const auto get = [&](const std::string& key, const std::string& fallback) {
      const auto it = kv.find(key);
      return it == kv.end() ? fallback : it->second;
    };

    TaskGraph problem = task_graph_from_text(read_file(kv.at("problem")));
    SystemGraph machine = kv.count("system") ? system_graph_from_text(read_file(kv.at("system")))
                                             : make_topology(kv.at("spec"));
    Clustering clustering =
        kv.count("clustering")
            ? clustering_from_text(read_file(kv.at("clustering")))
            : make_clustering(get("strategy", "block"), problem, machine.node_count(),
                              manifest_seed(kv, "seed", 1, line_no));
    const DistanceModel model = manifest_bool(kv, "weighted-links")
                                    ? DistanceModel::kWeightedLinks
                                    : DistanceModel::kHops;
    std::shared_ptr<const TopologyTables> tables = topo_cache.acquire(machine, model);
    instances.emplace_back(std::move(problem), std::move(clustering), std::move(machine),
                           std::move(tables));

    MapJob job;
    job.instance = &instances.back();
    job.name = get("name", "job-" + std::to_string(jobs.size() + 1));
    job.options.refine.eval.serialize_within_processor = manifest_bool(kv, "serialize");
    job.options.refine.eval.link_contention = manifest_bool(kv, "contention");
    job.options.refine.seed =
        manifest_seed(kv, "refine-seed", 0x9e3779b97f4a7c15ULL, line_no);
    job.options.refine.max_trials =
        static_cast<std::int64_t>(manifest_seed(kv, "trials", static_cast<std::uint64_t>(-1),
                                                line_no));
    job.options.critical.propagate_through_intra_cluster =
        manifest_bool(kv, "extended-critical");
    job.options.multilevel.enabled = manifest_bool(kv, "multilevel");
    job.options.multilevel.coarsen_target =
        static_cast<NodeId>(manifest_int(kv, "coarsen-target", 0, line_no));
    job.options.multilevel.level_trials = manifest_int(kv, "level-trials", -1, line_no);
    job.random_trials =
        static_cast<std::int64_t>(manifest_seed(kv, "random-trials", 0, line_no));
    job.random_seed = manifest_seed(kv, "random-seed", 99, line_no);
    // Per-job wall budget; 0 defers to the batch-wide --timeout default.
    job.deadline_ms = manifest_int(kv, "deadline-ms", 0, line_no);
    jobs.push_back(std::move(job));
  }

  MapServiceOptions service_options;
  service_options.lanes = lanes;
  service_options.max_concurrent_jobs = max_jobs;
  service_options.default_deadline_ms = timeout_ms;
  MapService service(std::move(service_options));

  std::function<void(const BatchProgress&)> progress;
  if (live_progress) {
    // Live scheduler gauges from the registry (the same series op=metrics
    // exposes): queued-not-started and on-a-runner right now.
    obs::Gauge& queue_gauge = obs::registry().gauge("mimdmap_service_queue_depth");
    obs::Gauge& active_gauge = obs::registry().gauge("mimdmap_service_active_jobs");
    obs::Rate& rate_gauge = obs::registry().rate("mimdmap_service_jobs_per_sec");
    progress = [&err, &queue_gauge, &active_gauge, &rate_gauge](const BatchProgress& p) {
      err << "\r[" << p.completed << "/" << p.total << "] " << p.last->name << " ("
          << std::fixed << std::setprecision(1) << p.last->wall_ms << " ms)"
          << " queue=" << queue_gauge.value() << " inflight=" << active_gauge.value()
          << " " << rate_gauge.per_second() << " jobs/s"
          << "    " << std::defaultfloat << std::setprecision(6);
      if (p.completed == p.total) err << "\n";
      err.flush();
    };
  }

  // SIGINT cancels in-flight work instead of killing the process: the
  // handler sets a flag, the watcher calls cancel_all() — queued jobs
  // drain with status cancelled, running jobs stop within one evaluation
  // wave — and map_batch returns partial results, which are printed below
  // with their per-job statuses.
  g_batch_interrupted = 0;
  std::atomic<bool> watcher_stop{false};
  void (*previous_handler)(int) = std::signal(SIGINT, batch_sigint_handler);
  std::thread watcher([&service, &watcher_stop, &err] {
    bool cancelled = false;
    while (!watcher_stop.load(std::memory_order_relaxed)) {
      if (g_batch_interrupted != 0 && !cancelled) {
        cancelled = true;
        err << "\ninterrupt: cancelling batch, draining partial results...\n";
        err.flush();
        service.cancel_all();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const std::size_t total = jobs.size();
  std::vector<MapJobResult> results;
  try {
    results = service.map_batch(std::move(jobs), progress);
  } catch (...) {
    watcher_stop.store(true, std::memory_order_relaxed);
    watcher.join();
    std::signal(SIGINT, previous_handler == SIG_ERR ? SIG_DFL : previous_handler);
    throw;
  }
  watcher_stop.store(true, std::memory_order_relaxed);
  watcher.join();
  std::signal(SIGINT, previous_handler == SIG_ERR ? SIG_DFL : previous_handler);
  const bool interrupted = g_batch_interrupted != 0;
  const double batch_ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();

  TextTable table({"job", "topology", "np", "ns", "lower_bound", "total", "pct", "optimal",
                   "status", "lanes", "ms"});
  std::size_t degraded = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const MapJobResult& r = results[i];
    const MappingInstance& inst = instances[i];
    // Guard the quality columns on the job status: a degraded row's total
    // is the best incumbent at the signal (marked "*"), a failed row has no
    // mapping at all ("-") — neither may masquerade as a completed pct.
    std::string total = std::to_string(r.report.total_time());
    std::string pct = std::to_string(r.report.percent_over_lower_bound());
    if (r.status == MapStatus::kCancelled || r.status == MapStatus::kDeadlineExceeded) {
      ++degraded;
      total += "*";
      pct += "*";
    } else if (!r.ok()) {
      ++failed;
      total = "-";
      pct = "-";
    }
    std::ostringstream ms;
    ms << std::fixed << std::setprecision(1) << r.wall_ms;
    table.add_row({r.name, inst.system().name(), std::to_string(inst.num_tasks()),
                   std::to_string(inst.num_processors()),
                   std::to_string(r.report.lower_bound), total, pct,
                   r.report.reached_lower_bound ? "yes" : "-", to_string(r.status),
                   std::to_string(r.lanes), ms.str()});
  }

  std::ostringstream os;
  os << (csv ? table.to_csv() : table.to_string());
  os << "batch: " << total << " jobs";
  if (degraded > 0) {
    os << ", " << degraded << " degraded (cancelled/deadline; * = incumbent at the signal)";
  }
  if (failed > 0) os << ", " << failed << " failed";
  os << ", lane budget " << service.lane_budget()
     << ", max concurrent " << service.max_concurrent_jobs() << ", topology cache "
     << topo_cache.hits() << "/" << (topo_cache.hits() + topo_cache.misses())
     << " hits, wall " << std::fixed << std::setprecision(1) << batch_ms << " ms\n";
  // Scheduler observability (same counters the serve stats frame exposes):
  // how long work waited per priority lane, and whether admission shed.
  const ServiceStats sched = service.stats();
  os << "scheduler:";
  for (const ServiceStats::PriorityLane& lane : sched.priorities) {
    const double avg =
        lane.started > 0 ? lane.total_wait_ms / static_cast<double>(lane.started) : 0.0;
    os << " prio " << lane.priority << ": " << lane.started << " started, wait avg "
       << std::setprecision(1) << avg << " ms max " << lane.max_wait_ms << " ms;";
  }
  os << " shed " << sched.shed << ", cancelled in queue " << sched.cancelled_queued << "\n"
     << std::defaultfloat << std::setprecision(6);
  if (interrupted) os << "batch interrupted: results above are partial\n";
  emit(flags, out, os.str());
  cmd_span.end();
  trace.write();
  // Exit contract (tests/cli_test.cpp): jobs that FAILED (invalid_input /
  // internal_error) make the batch exit nonzero; jobs merely degraded by
  // the wall budget or an interrupt (cancelled / deadline_exceeded) do
  // not — a --timeout batch that ran out of time still succeeded at
  // delivering its incumbents.
  return failed > 0 ? 1 : 0;
}

namespace {

volatile std::sig_atomic_t g_serve_signal = 0;

void serve_signal_handler(int) { g_serve_signal = g_serve_signal + 1; }

}  // namespace

int cmd_serve(Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string socket_path = flags.get_string("socket", "");
  const bool stdio = flags.get_bool("stdio");
  const bool quiet = flags.get_bool("quiet");
  const bool metrics_dump = flags.get_bool("metrics-dump");
  const std::string drain_flag = flags.get_string("drain-mode", "finish");

  serve::ServerOptions options;
  options.service.lanes = static_cast<int>(flags.get_int("lanes", 0));
  options.service.max_concurrent_jobs = static_cast<int>(flags.get_int("jobs", 0));
  options.service.max_queue = static_cast<std::size_t>(flags.get_int("queue", 0));
  options.service.default_deadline_ms = flags.get_int("timeout", 0);
  options.service.max_inflight_per_client =
      static_cast<int>(flags.get_int("max-inflight", 0));
  options.service.max_queued_size_hint =
      static_cast<std::uint64_t>(flags.get_int("queue-tasks", 0));
  if (flags.get_bool("fifo")) options.service.scheduler = SchedulerPolicy::kFifo;
  options.log = quiet ? nullptr : &err;
  options.journal_dir = flags.get_string("journal", "");
  options.journal_fsync =
      serve::parse_fsync_policy(flags.get_string("journal-fsync", "batch"));
  options.journal_repair = flags.get_bool("journal-repair");
  options.cache_bytes = static_cast<std::uint64_t>(flags.get_int("cache-bytes", 0));
  if (const std::int64_t rotate = flags.get_int("journal-rotate-bytes", 0); rotate > 0) {
    options.journal_rotate_bytes = static_cast<std::uint64_t>(rotate);
  }
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;

  if (socket_path.empty() == !stdio) {
    throw std::invalid_argument("serve needs exactly one of --socket <path> or --stdio");
  }
  const serve::DrainMode drain_mode = [&] {
    if (drain_flag == "finish") return serve::DrainMode::kFinish;
    if (drain_flag == "cancel") return serve::DrainMode::kCancel;
    throw std::invalid_argument("--drain-mode must be finish or cancel");
  }();

  serve::MapServer server(std::move(options));

  // First SIGTERM/SIGINT drains per --drain-mode; a second escalates to
  // cancelling whatever is still in flight (results arrive degraded but
  // every accepted job still gets its terminal frame). SIGPIPE is ignored
  // so a vanished stdio peer surfaces as a write error, not process death.
  g_serve_signal = 0;
  void (*prev_int)(int) = std::signal(SIGINT, serve_signal_handler);
  void (*prev_term)(int) = std::signal(SIGTERM, serve_signal_handler);
  void (*prev_pipe)(int) = std::signal(SIGPIPE, SIG_IGN);
  std::atomic<bool> watcher_stop{false};
  std::thread watcher([&server, &watcher_stop, &err, drain_mode, quiet] {
    int handled = 0;
    while (!watcher_stop.load(std::memory_order_relaxed)) {
      const int seen = g_serve_signal;
      if (seen > handled) {
        if (handled == 0) {
          if (!quiet) err << "serve: signal received, draining\n";
          server.request_drain(drain_mode);
        } else {
          if (!quiet) err << "serve: second signal, cancelling in-flight jobs\n";
          (void)server.service().cancel_all();
        }
        handled = seen;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  int rc = 0;
  try {
    if (stdio) {
      server.serve_fd(0, 1);
      // stdin closed (or drain): nothing more can arrive — finish what was
      // accepted and flush.
      server.request_drain(serve::DrainMode::kFinish);
    } else {
      server.listen_unix(socket_path);
    }
    server.wait();
  } catch (const std::exception& e) {
    err << "serve: fatal: " << e.what() << "\n";
    server.request_drain(serve::DrainMode::kCancel);
    server.wait();
    rc = 1;
  }
  watcher_stop.store(true, std::memory_order_relaxed);
  watcher.join();
  std::signal(SIGINT, prev_int == SIG_ERR ? SIG_DFL : prev_int);
  std::signal(SIGTERM, prev_term == SIG_ERR ? SIG_DFL : prev_term);
  std::signal(SIGPIPE, prev_pipe == SIG_ERR ? SIG_DFL : prev_pipe);

  const serve::ServerStats stats = server.stats();
  out << "serve: " << stats.connections_opened << " connections, " << stats.accepted
      << " accepted, " << stats.terminal_frames << " results, " << stats.shed << " shed, "
      << stats.parse_errors << " protocol errors, " << stats.disconnect_cancels
      << " disconnect cancels";
  if (stats.replayed > 0) out << ", " << stats.replayed << " replayed";
  if (stats.cached_results > 0) out << ", " << stats.cached_results << " cached";
  out << "\n";
  // The invariant the whole design hangs on — if it ever fails in the
  // field, say so loudly and exit nonzero so supervisors notice.
  if (stats.terminal_frames != stats.accepted) {
    err << "serve: TERMINAL FRAME MISMATCH: accepted " << stats.accepted << " vs results "
        << stats.terminal_frames << "\n";
    rc = 1;
  }
  // Final registry exposition (counters/gauges/histograms of every layer
  // this process touched) — same text `op=metrics` serves live.
  if (metrics_dump) out << obs::registry().render_prometheus();
  return rc;
}

namespace {

/// Blocking Unix-socket connect; -1 on failure (caller retries).
int client_connect(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) return -1;
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool client_send(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  const char* p = framed.data();
  std::size_t left = framed.size();
  while (left > 0) {
    const ssize_t n = ::send(fd, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

int cmd_client(Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string socket_path = flags.require_string("socket");
  const std::string request = flags.get_string("request", "");
  const std::string manifest_path = flags.get_string("manifest", "");
  serve::RetryPolicy policy;
  policy.max_attempts = static_cast<int>(flags.get_int("retries", policy.max_attempts));
  policy.base_ms = flags.get_int("base-ms", policy.base_ms);
  policy.cap_ms = flags.get_int("cap-ms", policy.cap_ms);
  policy.seed = static_cast<std::uint64_t>(flags.get_int("seed", 0));
  const bool quiet = flags.get_bool("quiet");
  if (const int rc = reject_unused(flags, err); rc != 0) return rc;
  if (request.empty() == manifest_path.empty()) {
    throw std::invalid_argument("client needs exactly one of --request or --manifest");
  }
  if (policy.max_attempts < 1) throw std::invalid_argument("--retries must be >= 1");

  std::vector<std::string> lines;
  if (!request.empty()) {
    lines.push_back(request);
  } else {
    std::istringstream file(read_file(manifest_path));
    std::string line;
    while (std::getline(file, line)) {
      const std::size_t start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos || line[start] == '#') continue;
      lines.push_back(line);
    }
  }
  if (lines.empty()) throw std::invalid_argument("no requests to send");

  // Requests are validated locally first: a typo costs an error here, not
  // a round of retries against the daemon.
  for (const std::string& line : lines) (void)serve::parse_request(line);

  int failed = 0;
  int fd = -1;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    bool terminal = false;
    // Retry loop: overloaded answers and dropped connections are both
    // retryable — resubmission is idempotent by fingerprint, so a result
    // the daemon already computed comes back cached=1 instead of
    // re-running the mapper. Everything else is final on first answer.
    for (int attempt = 1; attempt <= policy.max_attempts && !terminal; ++attempt) {
      std::int64_t hint_ms = 0;
      const auto backoff = [&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(policy.delay_ms(attempt, hint_ms)));
      };
      if (fd < 0) fd = client_connect(socket_path);
      if (fd < 0) {
        if (!quiet) err << "client: connect failed, retrying\n";
        backoff();
        continue;
      }
      if (!client_send(fd, line)) {
        ::close(fd);
        fd = -1;
        if (!quiet) err << "client: send failed, reconnecting\n";
        backoff();
        continue;
      }
      serve::FrameReader reader;
      bool disconnected = false;
      while (!terminal && !disconnected) {
        char buf[4096];
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          ::close(fd);
          fd = -1;
          disconnected = true;
          break;
        }
        for (const serve::FrameReader::Line& frame :
             reader.feed(buf, static_cast<std::size_t>(n))) {
          if (!frame.ok()) continue;
          std::map<std::string, std::string> kv;
          try {
            kv = serve::parse_response(frame.text);
          } catch (const std::exception&) {
            continue;  // not ours to enforce; wait for a terminal frame
          }
          const std::string& event = kv["event"];
          if (event == "accepted") continue;
          if (event == "overloaded") {
            hint_ms = kv.count("retry-ms") ? std::strtoll(kv["retry-ms"].c_str(), nullptr, 10)
                                           : 0;
            if (hint_ms < 0) {
              // Drain sentinel: the daemon is going away, stop retrying.
              err << "client: server draining, giving up on request " << (i + 1) << "\n";
              attempt = policy.max_attempts;
            } else if (!quiet) {
              err << "client: overloaded, retry " << attempt << "/"
                  << (policy.max_attempts - 1) << " after "
                  << policy.delay_ms(attempt, hint_ms) << " ms\n";
            }
            disconnected = true;  // leave the read loop, back off, resubmit
            break;
          }
          if (event == "result" || event == "error") {
            out << frame.text << "\n";
            terminal = true;
            const std::string status = kv.count("status") ? kv["status"] : "";
            if (event == "error" || status == "invalid_input" ||
                status == "internal_error") {
              ++failed;
            }
            break;
          }
        }
      }
      if (!terminal && attempt < policy.max_attempts) backoff();
    }
    if (!terminal) {
      err << "client: request " << (i + 1) << " got no terminal frame after "
          << policy.max_attempts << " attempt(s)\n";
      ++failed;
    }
  }
  if (fd >= 0) ::close(fd);
  return failed > 0 ? 1 : 0;
}

std::string help_text() {
  return R"(mimdmap_cli — critical-edge task mapping for MIMD computers (Yang/Bic/Nicolau 1991)

usage: mimdmap_cli <command> [--flag value ...]

commands:
  generate  make a problem graph
            --workload layered|erdos|series-parallel|fork-join|pipeline|
                       diamond|fft|gaussian|cholesky|lu     (default layered)
            size flags per workload: --tasks --layers --depth --width --stages
            --length --rows --cols --points --order --tiles
            --node-min/--node-max --edge-min/--edge-max --seed
            [--dot] [--out file]
  topology  make a system graph
            --spec hypercube-3|mesh-4x4|torus-3x3|ring-8|star-8|chain-6|
                   complete-6|tree-2x3|random-N-PCT-SEED|mesh3d-2x2x2|
                   debruijn-4|ccc-3|chordal-12-4|bipartite-3x4
            [--dot] [--out file]
  cluster   partition a problem graph
            --problem file --clusters N
            [--strategy random|round-robin|block|level|list|edge-zeroing|linear]
            [--seed S] [--out file]
  map       run the full mapping pipeline
            --problem file (--system file | --spec topo)
            [--clustering file | --strategy name --seed S]
            [--trials N] [--refine-seed S] [--threads T (0 = auto)]
            [--width W (candidates per SoA wave; 0 = auto / MIMDMAP_EVAL_WIDTH)]
            [--contention] [--serialize] [--weighted-links] [--extended-critical] [--gantt]
            [--random-trials N --random-seed S]   (adds the paper's baseline)
            [--multilevel]      (coarsen-map-refine for huge instances)
            [--coarsen-target N (stop coarsening at N tasks; 0 = auto)]
            [--level-trials K   (refinement trials per uncoarsen level; -1 = ns)]
            [--deadline-ms MS]  (wall budget; on expiry prints the best
                                 incumbent with a degraded status)
            [--trace out.json]  (Chrome trace-event spans; open in Perfetto)
            [--out file]
  eval      evaluate an explicit assignment
            --problem file (--system file | --spec topo) --clustering file
            --assignment 0,2,3,1  [--contention] [--serialize] [--gantt]
  batch     map a manifest of instances concurrently (MapService)
            --manifest file  [--lanes L (0 = auto)] [--jobs J (0 = auto)]
            [--timeout MS (per-job deadline default)] [--progress] [--csv]
            [--trace out.json (per-job span trace; open in Perfetto)]
            [--out file]
            SIGINT cancels in-flight jobs, drains, and prints partial
            results with per-job statuses.
            manifest: one job per line of key=value tokens (# comments):
              problem=<file> (spec=<topo> | system=<file>)
              [clustering=<file> | strategy=<name> seed=<S>] [name=<label>]
              [trials=N] [refine-seed=S] [serialize] [contention]
              [weighted-links] [extended-critical]
              [multilevel] [coarsen-target=N] [level-trials=K]
              [random-trials=N] [random-seed=S]
              [deadline-ms=MS (overrides --timeout; -1 = no deadline)]
  serve     run the streaming mapping daemon (warm MapService, shared
            thread pool + topology cache across all clients)
            (--socket /path/to.sock | --stdio)
            [--lanes L] [--jobs J] [--queue N (shed beyond; default 256)]
            [--queue-tasks T (shed when queued size hints exceed T)]
            [--timeout MS (default per-job deadline)]
            [--max-inflight N (per-client running-job cap)]
            [--fifo (disable the priority scheduler; for A/B benching)]
            [--drain-mode finish|cancel] [--quiet]
            [--metrics-dump (print the metrics registry exposition on exit)]
            [--journal DIR (write-ahead request journal: accepted submits
                            are logged before the accepted frame; on
                            restart, unfinished ones replay with
                            replayed=1 results)]
            [--journal-fsync always|batch|none (durability vs throughput;
                            default batch)]
            [--journal-repair (truncate a corrupt journal record instead
                            of refusing to start)]
            [--journal-rotate-bytes N (compact once idle and larger)]
            [--cache-bytes N (idempotent result cache budget; repeat
                            identical-fingerprint submits answer cached=1
                            without re-running; 0 = off)]
            protocol: newline-framed key=value frames (manifest grammar).
            requests:  [op=submit] problem=<file>|gen=<kind> gen-a/gen-b/
                       gen-seed spec=|system= [id=] [priority=] [size-hint=]
                       [deadline-ms=] + all batch manifest keys
                       op=cancel id=... | op=stats | op=metrics |
                       op=ping | op=drain [mode=finish|cancel]
            responses: event=accepted|result|overloaded|error|stats|
                       metrics|pong|draining|bye
            SIGTERM/SIGINT drains per --drain-mode (second signal cancels
            in-flight); every accepted job gets exactly one result frame.
  client    submit requests to a running daemon with retry/backoff
            --socket /path/to.sock (--request "LINE" | --manifest file)
            [--retries N (total tries; default 5)] [--base-ms MS]
            [--cap-ms MS] [--seed S (jitter stream)] [--quiet]
            Overloaded answers honor the server's retry-ms hint under a
            capped exponential backoff with deterministic jitter; dropped
            connections reconnect and resubmit (idempotent by fingerprint
            against a --cache-bytes daemon). Prints each terminal frame;
            exits nonzero if any request fails.
  info      print statistics
            (--problem file | --system file | --spec topo)
  help      this text
)";
}

int run(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << help_text();
    return 2;
  }
  const std::string command = argv[1];
  try {
    Flags flags(argc, argv, 2);
    if (command == "generate") return cmd_generate(flags, out, err);
    if (command == "topology") return cmd_topology(flags, out, err);
    if (command == "cluster") return cmd_cluster(flags, out, err);
    if (command == "map") return cmd_map(flags, out, err);
    if (command == "batch") return cmd_batch(flags, out, err);
    if (command == "serve") return cmd_serve(flags, out, err);
    if (command == "client") return cmd_client(flags, out, err);
    if (command == "eval") return cmd_eval(flags, out, err);
    if (command == "info") return cmd_info(flags, out, err);
    if (command == "help" || command == "--help") {
      out << help_text();
      return 0;
    }
    err << "unknown command '" << command << "'\n\n" << help_text();
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace mimdmap::cli
