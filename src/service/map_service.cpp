#include "service/map_service.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/eval_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/fault_injection.hpp"

namespace mimdmap {

namespace {

/// Registry instruments for the scheduler, resolved once. Gauges use
/// add() so concurrent services (tests spin up several) stay additive.
struct ServiceMetrics {
  obs::Counter& submitted =
      obs::registry().counter("mimdmap_service_jobs_submitted_total");
  obs::Counter& completed =
      obs::registry().counter("mimdmap_service_jobs_completed_total");
  obs::Counter& shed = obs::registry().counter("mimdmap_service_jobs_shed_total");
  obs::Counter& cancelled_queued =
      obs::registry().counter("mimdmap_service_jobs_cancelled_queued_total");
  obs::Gauge& queue_depth = obs::registry().gauge("mimdmap_service_queue_depth");
  obs::Gauge& active = obs::registry().gauge("mimdmap_service_active_jobs");
  obs::Histogram& queue_wait =
      obs::registry().histogram("mimdmap_service_queue_wait_us");
  obs::Histogram& wall = obs::registry().histogram("mimdmap_service_job_wall_us");
  /// Windowed completion rate: the batch progress line (and any metrics
  /// consumer) reads jobs/sec live instead of diffing counter snapshots.
  obs::Rate& jobs_per_sec = obs::registry().rate("mimdmap_service_jobs_per_sec");
};

ServiceMetrics& service_metrics() {
  static ServiceMetrics metrics;
  return metrics;
}

/// Fold the per-search delta-engine counters of a delivered report into
/// process-wide totals (the per-report DeltaStats stays on the report).
void fold_delta_stats(const MappingReport& report) {
  static obs::Counter& trials =
      obs::registry().counter("mimdmap_delta_trials_total");
  static obs::Counter& commits =
      obs::registry().counter("mimdmap_delta_commits_total");
  static obs::Counter& fallbacks =
      obs::registry().counter("mimdmap_delta_full_fallbacks_total");
  if (report.delta.trials > 0) trials.add(static_cast<std::uint64_t>(report.delta.trials));
  if (report.delta.commits > 0) commits.add(static_cast<std::uint64_t>(report.delta.commits));
  if (report.delta.full_fallbacks > 0) {
    fallbacks.add(static_cast<std::uint64_t>(report.delta.full_fallbacks));
  }
}

}  // namespace

MapJobResult run_map_job(const MapJob& job, const std::shared_ptr<ThreadPool>& pool,
                         int lanes, TopologyCache* topo_cache) {
  if (job.instance == nullptr && !job.build) {
    throw std::invalid_argument("run_map_job: job has neither an instance nor a builder");
  }
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();

  MapperOptions options = job.options;
  if (job.seed != 0) options.refine.seed = job.seed;
  // lanes > 0 is a service sharding decision and overrides the job's own
  // inner thread count; lanes == 0 (direct sequential callers) leaves the
  // job's RefineOptions::num_threads in charge.
  if (lanes > 0) options.refine.num_threads = lanes;

  // Effective cancellation channel: the job's own token, with a local
  // deadline chained on top when the job carries one. The service consumes
  // deadline_ms at admission (queue wait counts against the budget) and
  // hands the job over with deadline_ms < 0; a direct sequential caller's
  // deadline starts here instead.
  CancelToken cancel = job.cancel;
  std::optional<CancelSource> deadline_source;
  if (job.deadline_ms > 0) {
    deadline_source.emplace(cancel);
    deadline_source->set_deadline_after_ms(job.deadline_ms);
    cancel = deadline_source->token();
  }
  options.refine.cancel = cancel;

  MapJobResult result;
  result.name = job.name;

  // The fault-injection stall precedes the start check, so a job cancelled
  // while held there is skipped like any other not-yet-started job.
  fault_sleep_runner(cancel);

  // A signal that lands before execution starts (a cancelled or expired
  // queued job) skips the job entirely: there is no incumbent to degrade
  // to, so the report stays empty and only the status carries information.
  if (cancel.signalled()) {
    result.status = cancel.status();
    result.report.status = result.status;
    result.wall_ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
    return result;
  }

  obs::Span job_span("job", "job");

  // Deferred jobs materialize here and release at function exit — before
  // the result reaches the caller — so the alive-instance footprint of a
  // batch is one per busy runner.
  std::optional<MappingInstance> owned;
  const MappingInstance* instance = job.instance;
  if (instance == nullptr) {
    const obs::Span build_span("build", "job");
    const auto b0 = clock::now();
    fault_point_build();
    owned.emplace(job.build());
    instance = &*owned;
    result.stages.build_ms =
        std::chrono::duration<double, std::milli>(clock::now() - b0).count();
  }
  job_span.set_arg("np", static_cast<std::int64_t>(instance->num_tasks()));

  // Topology-table sharing: instances already carrying shared tables (a
  // cache-aware submitter, e.g. the CLI batch manifest) are adopted by the
  // engine automatically and share everything including the distance
  // matrix; otherwise the service cache supplies tables keyed by the
  // machine's structure, so only the first job per topology builds the
  // routing tables the engine adopts (the instance computed its own
  // distance matrix before reaching this point — that part is only
  // amortized by cache-aware construction).
  bool cache_hit = false;
  std::shared_ptr<const TopologyTables> tables = instance->shared_tables();
  if (topo_cache != nullptr && tables == nullptr) {
    const auto c0 = clock::now();
    tables = topo_cache->acquire(instance->system(), instance->distance_model(), &cache_hit);
    result.stages.topo_ms =
        std::chrono::duration<double, std::milli>(clock::now() - c0).count();
  }

  const EvalEngine engine(*instance, pool);
  if (tables) engine.adopt_topology(tables);
  result.topology_cache_hit = cache_hit;
  result.system_name = instance->system().name();
  result.np = instance->num_tasks();
  result.ns = instance->num_processors();
  fault_point_mapper();
  {
    const obs::Span map_span("mapper", "job");
    const auto m0 = clock::now();
    result.report = map_instance(engine, options);
    result.stages.map_ms =
        std::chrono::duration<double, std::milli>(clock::now() - m0).count();
  }
  fold_delta_stats(result.report);
  result.status = result.report.status;
  // Resolved width, not the request: with lanes == 0 the job's own setting
  // ran, which may itself have been 0 ("auto"); the resolution is cached
  // by now, so this is a lookup.
  result.lanes = lanes > 0
                     ? lanes
                     : engine.resolve_num_threads(options.refine.num_threads,
                                                  options.refine.eval);
  if (job.random_trials > 0 && !cancel.signalled()) {
    // Same engine: the baseline replays on the already-warm tables instead
    // of building a second engine per job like the legacy serial loop did.
    // Skipped when the job is already out of budget — the mapped result is
    // the part worth shipping degraded; an unpaired baseline is not.
    const obs::Span random_span("random_baseline", "job", "trials", job.random_trials);
    const auto r0 = clock::now();
    result.random =
        evaluate_random_mappings(engine, job.random_trials, job.random_seed, options.refine.eval);
    result.stages.random_ms =
        std::chrono::duration<double, std::milli>(clock::now() - r0).count();
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  return result;
}

MapService::MapService(MapServiceOptions options)
    : pool_(options.pool ? std::move(options.pool) : ThreadPool::shared()) {
  lane_budget_ = options.lanes > 0 ? options.lanes : pool_->lane_limit();
  lane_budget_ = std::max(1, lane_budget_);
  max_runners_ = options.max_concurrent_jobs > 0 ? options.max_concurrent_jobs : lane_budget_;
  max_runners_ = std::max(1, max_runners_);
  max_queue_ = options.max_queue;
  admission_ = options.admission;
  default_deadline_ms_ = options.default_deadline_ms;
  scheduler_ = options.scheduler;
  small_job_tasks_ = options.small_job_tasks;
  bulk_job_tasks_ = options.bulk_job_tasks;
  interactive_deadline_ms_ = options.interactive_deadline_ms;
  max_inflight_per_client_ = std::max(0, options.max_inflight_per_client);
  max_queued_size_hint_ = options.max_queued_size_hint;
}

MapService::~MapService() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& t : runners_) t.join();
}

std::map<MapService::SchedKey, MapService::QueuedJob>::iterator
MapService::pop_candidate_locked() {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    const std::uint64_t client = it->second.job.client_id;
    if (client != 0 && max_inflight_per_client_ > 0) {
      const auto cit = clients_.find(client);
      // The cap counts RUNNING jobs only: a capped client always has a
      // job on a runner, so progress (and eventual eligibility of its
      // queued backlog) is guaranteed even at shutdown.
      if (cit != clients_.end() && cit->second.running >= max_inflight_per_client_) {
        continue;
      }
    }
    return it;
  }
  return queue_.end();
}

MapService::QueuedJob MapService::extract_locked(std::map<SchedKey, QueuedJob>::iterator it) {
  QueuedJob queued = std::move(it->second);
  queue_index_.erase(queued.id);
  queued_size_sum_ -= std::min(queued_size_sum_, queued.job.size_hint);
  rank_floor_ = std::max(rank_floor_, it->first.fair_rank);
  queue_.erase(it);
  service_metrics().queue_depth.add(-1);
  const auto cit = clients_.find(queued.job.client_id);
  if (cit != clients_.end() && cit->second.queued > 0) --cit->second.queued;
  return queued;
}

void MapService::release_client_locked(std::uint64_t client_id) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  if (it->second.running > 0) --it->second.running;
  if (it->second.forgotten && it->second.running == 0 && it->second.queued == 0) {
    clients_.erase(it);
  }
}

void MapService::runner_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [&] {
      return (shutdown_ && queue_.empty()) || pop_candidate_locked() != queue_.end();
    });
    const auto candidate = pop_candidate_locked();
    if (candidate == queue_.end()) {
      if (shutdown_ && queue_.empty()) return;  // drained: queued jobs finish even on shutdown
      continue;
    }
    QueuedJob queued = extract_locked(candidate);
    ++active_;
    const auto cit = clients_.find(queued.job.client_id);
    if (cit != clients_.end()) ++cit->second.running;
    // Scheduler observability: admission -> start wait, per priority.
    const double wait_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - queued.admitted)
                               .count();
    PriorityAgg& agg = priority_stats_[queued.job.priority];
    ++agg.started;
    agg.total_wait_ms += wait_ms;
    agg.max_wait_ms = std::max(agg.max_wait_ms, wait_ms);
    service_metrics().active.add(1);
    service_metrics().queue_wait.record(static_cast<std::int64_t>(wait_ms * 1000.0));
    if (obs::tracer().enabled()) {
      // The wait spans admission (another thread) to this pop; recorded
      // here as an explicit-time event ending now.
      obs::TraceEvent ev;
      ev.name = "queue_wait";
      ev.cat = "service";
      ev.end_ns = obs::Tracer::now_ns();
      ev.start_ns = ev.end_ns - static_cast<std::int64_t>(wait_ms * 1e6);
      ev.arg_name = "priority";
      ev.arg = queued.job.priority;
      obs::tracer().record(ev);
    }
    // Sharding policy: split the lane budget across everything running or
    // about to run. Small jobs flood the runners and each maps with one
    // lane; a job starting into an empty service (a lone submission, or
    // the batch tail) gets wide chunks.
    const int sharers = std::min(max_runners_, active_ + static_cast<int>(queue_.size()));
    const int lanes = std::max(1, lane_budget_ / std::max(1, sharers));
    lock.unlock();
    space_cv_.notify_one();

    // Error isolation: whatever the job does — invalid input, a throwing
    // deferred build(), an injected fault, an allocation failure in the
    // topology-cache fill — it is captured into this job's status and the
    // runner lives on. The future always gets a value, never an exception,
    // so one bad job cannot poison map_batch's drain or the progress
    // stream for its siblings.
    MapJobResult result;
    try {
      result = run_map_job(queued.job, pool_, lanes, &topo_cache_);
    } catch (const std::invalid_argument& e) {
      result = MapJobResult{};
      result.name = queued.job.name;
      result.status = MapStatus::kInvalidInput;
      result.error = e.what();
    } catch (const std::exception& e) {
      result = MapJobResult{};
      result.name = queued.job.name;
      result.status = MapStatus::kInternalError;
      result.error = e.what();
    } catch (...) {
      result = MapJobResult{};
      result.name = queued.job.name;
      result.status = MapStatus::kInternalError;
      result.error = "unknown exception";
    }
    result.queue_ms = wait_ms;
    service_metrics().wall.record(static_cast<std::int64_t>(result.wall_ms * 1000.0));
    if (queued.on_done) {
      // A throwing progress callback must not cost the job its result
      // delivery (the batch would deadlock waiting on the future).
      try {
        queued.on_done(result);
      } catch (...) {
      }
    }
    queued.promise.set_value(std::move(result));

    service_metrics().active.add(-1);
    service_metrics().completed.inc();
    service_metrics().jobs_per_sec.record();

    lock.lock();
    --active_;
    ++stat_completed_;
    sources_.erase(queued.id);
    release_client_locked(queued.job.client_id);
    // A freed client slot may make a passed-over queued job eligible.
    if (max_inflight_per_client_ > 0) work_cv_.notify_all();
  }
}

std::future<MapJobResult> MapService::enqueue_locked(
    std::unique_lock<std::mutex>& lock, MapJob job,
    std::function<void(const MapJobResult&)> on_done, const char* caller, JobId* id_out) {
  if (shutdown_) {
    throw std::logic_error(std::string(caller) + ": service is shutting down");
  }
  // Admission bounds: queue depth and the queued-size estimate. A lone
  // oversized job is always admitted into an EMPTY queue — the size bound
  // sheds load, it must not make a job undeliverable at any queue state.
  const auto over_limit = [&] {
    if (max_queue_ > 0 && queue_.size() >= max_queue_) return true;
    if (max_queued_size_hint_ > 0 && !queue_.empty() &&
        queued_size_sum_ + job.size_hint > max_queued_size_hint_) {
      return true;
    }
    return false;
  };
  const obs::Span admission_span("admission", "service");
  if (over_limit()) {
    if (admission_ == AdmissionPolicy::kReject) {
      ++stat_shed_;
      service_metrics().shed.inc();
      throw AdmissionRejectedError(std::string(caller) + ": admission queue is full (" +
                                   std::to_string(queue_.size()) + " jobs, " +
                                   std::to_string(queued_size_sum_) + " queued tasks)");
    }
    // Backpressure: wait for a slot. The lock is released while waiting,
    // so runners keep draining; a bulk enqueue that hits this loses its
    // single-lock atomicity, which only affects lane sharding, never
    // results.
    space_cv_.wait(lock, [&] { return shutdown_ || !over_limit(); });
    if (shutdown_) {
      throw std::logic_error(std::string(caller) + ": service is shutting down");
    }
  }

  QueuedJob queued;
  queued.job = std::move(job);
  queued.id = next_id_++;
  queued.on_done = std::move(on_done);
  queued.admitted = std::chrono::steady_clock::now();

  // Per-job cancellation channel, chained under the submitter's token, with
  // the queue-inclusive deadline armed now. The job carries the chained
  // token from here on; deadline_ms is consumed.
  CancelSource source(queued.job.cancel);
  const std::int64_t deadline_ms =
      queued.job.deadline_ms != 0 ? queued.job.deadline_ms : default_deadline_ms_;
  if (deadline_ms > 0) source.set_deadline_after_ms(deadline_ms);
  queued.job.cancel = source.token();
  queued.job.deadline_ms = -1;
  sources_.emplace(queued.id, std::move(source));

  // Urgency key (DESIGN.md 16.2). Everything is computed at admission and
  // immutable after: scheduling order never feeds back into job results,
  // so any pop order yields bit-identical per-job outputs.
  SchedKey key;
  key.seq = next_seq_++;
  key.deadline_ns = CancelShared::kNoDeadline;
  ClientState& client = clients_[queued.job.client_id];
  client.forgotten = false;
  ++client.submitted;
  ++client.queued;
  if (scheduler_ == SchedulerPolicy::kPriority) {
    key.priority = queued.job.priority;
    // Urgency class: tight wall budgets and small jobs are interactive,
    // large jobs bulk, unknown sizes normal. The deadline test uses the
    // REQUESTED budget, not the clock — admission-order deterministic.
    if (deadline_ms > 0 && deadline_ms <= interactive_deadline_ms_) {
      key.klass = 0;
    } else if (queued.job.size_hint == 0) {
      key.klass = 1;
    } else if (queued.job.size_hint <= small_job_tasks_) {
      key.klass = 0;
    } else if (queued.job.size_hint >= bulk_job_tasks_) {
      key.klass = 2;
    } else {
      key.klass = 1;
    }
    if (deadline_ms > 0) {
      key.deadline_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              (queued.admitted + std::chrono::milliseconds(deadline_ms)).time_since_epoch())
              .count();
    }
    // Start-time fair queuing: each client's next job ranks one past its
    // previous, floored at the rank of the last job popped — so a client
    // waking from idle competes level with the backlog's head instead of
    // carrying unbounded credit, and a flooding client's queue interleaves
    // one-per-round with everyone else's.
    key.fair_rank = std::max(client.next_rank, rank_floor_);
    client.next_rank = key.fair_rank + 1;
  } else {
    key.priority = 0;
    key.klass = 1;
    key.fair_rank = 0;
  }

  if (id_out != nullptr) *id_out = queued.id;
  queued_size_sum_ += queued.job.size_hint;
  ++stat_submitted_;
  service_metrics().submitted.inc();
  service_metrics().queue_depth.add(1);
  const JobId id = queued.id;
  queue_index_.emplace(id, key);
  auto [it, inserted] = queue_.emplace(std::move(key), std::move(queued));
  (void)inserted;  // seq is unique, keys never collide
  std::future<MapJobResult> future = it->second.promise.get_future();
  // Lazy runner spawn: one per job until the cap, so a service used for a
  // single submission never fields an idle army.
  const int wanted = std::min(max_runners_, active_ + static_cast<int>(queue_.size()));
  while (static_cast<int>(runners_.size()) < wanted) {
    runners_.emplace_back([this] { runner_main(); });
  }
  return future;
}

std::future<MapJobResult> MapService::submit(MapJob job, JobId* id,
                                             std::function<void(const MapJobResult&)> on_done) {
  if (job.instance == nullptr && !job.build) {
    throw std::invalid_argument("MapService::submit: job has neither an instance nor a builder");
  }
  std::future<MapJobResult> future;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    future = enqueue_locked(lock, std::move(job), std::move(on_done), "MapService::submit", id);
  }
  work_cv_.notify_one();
  return future;
}

void MapService::deliver_cancelled(std::vector<QueuedJob>& drained) {
  for (QueuedJob& queued : drained) {
    MapJobResult result;
    result.name = queued.job.name;
    // First cause wins: a deadline that expired while the job sat queued
    // beats the cancel that drained it.
    result.status = queued.job.cancel.signalled() ? queued.job.cancel.status()
                                                  : MapStatus::kCancelled;
    if (result.status == MapStatus::kOk) result.status = MapStatus::kCancelled;
    result.report.status = result.status;
    if (queued.on_done) {
      try {
        queued.on_done(result);
      } catch (...) {
      }
    }
    queued.promise.set_value(std::move(result));
  }
  if (!drained.empty()) space_cv_.notify_all();
}

bool MapService::cancel(JobId id) {
  std::vector<QueuedJob> drained;
  bool found = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sources_.find(id);
    if (it != sources_.end()) {
      it->second.request_cancel();
      found = true;
    }
    const auto idx = queue_index_.find(id);
    if (idx != queue_index_.end()) {
      const auto qit = queue_.find(idx->second);
      if (qit != queue_.end()) {
        drained.push_back(extract_locked(qit));
        sources_.erase(id);
        ++stat_cancelled_queued_;
        service_metrics().cancelled_queued.inc();
      }
    }
  }
  deliver_cancelled(drained);
  if (!drained.empty()) work_cv_.notify_all();
  return found;
}

std::size_t MapService::cancel_all() {
  std::vector<QueuedJob> drained;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, source] : sources_) source.request_cancel();
    drained.reserve(queue_.size());
    while (!queue_.empty()) {
      QueuedJob queued = extract_locked(queue_.begin());
      sources_.erase(queued.id);
      ++stat_cancelled_queued_;
      service_metrics().cancelled_queued.inc();
      drained.push_back(std::move(queued));
    }
  }
  deliver_cancelled(drained);
  if (!drained.empty()) work_cv_.notify_all();
  return drained.size();
}

ServiceStats MapService::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  ServiceStats s;
  s.submitted = stat_submitted_;
  s.completed = stat_completed_;
  s.shed = stat_shed_;
  s.cancelled_queued = stat_cancelled_queued_;
  s.queue_depth = queue_.size();
  s.queued_size_hint = queued_size_sum_;
  s.active = active_;
  s.priorities.reserve(priority_stats_.size());
  for (const auto& [priority, agg] : priority_stats_) {
    s.priorities.push_back({priority, agg.started, agg.total_wait_ms, agg.max_wait_ms});
  }
  for (const auto& [client_id, state] : clients_) {
    if (client_id == 0) continue;  // the anonymous shared stream is not a client
    s.clients.push_back({client_id, state.queued + state.running, state.submitted});
  }
  return s;
}

void MapService::forget_client(std::uint64_t client_id) {
  if (client_id == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  if (it->second.queued == 0 && it->second.running == 0) {
    clients_.erase(it);
  } else {
    it->second.forgotten = true;
  }
}

std::vector<MapJobResult> MapService::map_batch(
    std::vector<MapJob> jobs, const std::function<void(const BatchProgress&)>& progress) {
  struct BatchState {
    std::mutex mutex;
    std::size_t completed = 0;
  };
  const auto state = std::make_shared<BatchState>();
  const std::size_t total = jobs.size();

  for (const MapJob& job : jobs) {
    if (job.instance == nullptr && !job.build) {
      throw std::invalid_argument(
          "MapService::map_batch: job has neither an instance nor a builder");
    }
  }

  std::vector<std::future<MapJobResult>> futures;
  futures.reserve(jobs.size());
  std::exception_ptr admission_error;
  try {
    // One lock for the whole batch: the first runner must not pop a job
    // before the rest are queued, or the sharding policy would see an
    // empty queue and grant the head job the full lane budget. (A full
    // admission queue under kBlock waives the atomicity — see
    // enqueue_locked.)
    std::unique_lock<std::mutex> lock(mutex_);
    for (MapJob& job : jobs) {
      std::function<void(const MapJobResult&)> on_done;
      if (progress) {
        // By value: if map_batch unwinds (admission rejected), closures of
        // still-queued jobs must not dangle into the caller's frame.
        on_done = [state, total, progress](const MapJobResult& result) {
          const std::lock_guard<std::mutex> batch_lock(state->mutex);
          BatchProgress p;
          p.completed = ++state->completed;
          p.total = total;
          p.last = &result;
          progress(p);
        };
      }
      futures.push_back(
          enqueue_locked(lock, std::move(job), std::move(on_done), "MapService::map_batch", nullptr));
      if (max_queue_ > 0 && queue_.size() >= max_queue_) {
        // The next enqueue would block holding every earlier job hostage;
        // release the dam so runners start on what is already queued.
        lock.unlock();
        work_cv_.notify_all();
        lock.lock();
      }
    }
  } catch (...) {
    // Admission rejected (or shutdown) mid-batch: the jobs already
    // admitted borrow caller-owned instances, so they must deliver before
    // this frame unwinds.
    admission_error = std::current_exception();
  }
  work_cv_.notify_all();

  // Drain every future before returning: submitted jobs borrow
  // caller-owned instances, so map_batch must not unwind into the caller's
  // frame while runners still execute against it. Per-job failures arrive
  // as statuses inside the results, so the drain itself never throws.
  std::vector<MapJobResult> results;
  results.reserve(futures.size());
  for (std::future<MapJobResult>& future : futures) {
    results.push_back(future.get());
  }
  if (admission_error) std::rethrow_exception(admission_error);
  return results;
}

}  // namespace mimdmap
