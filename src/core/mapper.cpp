#include "core/mapper.hpp"

#include "obs/trace.hpp"

namespace mimdmap {

std::int64_t MappingReport::percent_over_lower_bound() const {
  if (lower_bound <= 0) return 0;
  return (schedule.total_time * 100 + lower_bound / 2) / lower_bound;
}

MappingReport map_instance(const MappingInstance& instance, const MapperOptions& options) {
  const EvalEngine engine(instance);
  return map_instance(engine, options);
}

MappingReport map_instance(const EvalEngine& engine, const MapperOptions& options) {
  if (options.multilevel.enabled) return map_multilevel(engine, options);
  return detail::map_flat(engine, options);
}

MappingReport detail::map_flat(const EvalEngine& engine, const MapperOptions& options) {
  const MappingInstance& instance = engine.instance();
  MappingReport report;
  {
    const obs::Span span("ideal_schedule", "mapper");
    report.ideal = compute_ideal_schedule(instance);
  }
  report.lower_bound = report.ideal.lower_bound;
  {
    const obs::Span span("find_critical", "mapper");
    report.critical = find_critical(instance, report.ideal, options.critical);
  }

  obs::Span initial_span("initial_assignment", "mapper");
  const InitialAssignmentResult initial = initial_assignment(instance, report.critical);
  report.initial_assignment = initial.assignment;
  report.pinned = initial.pinned;
  initial_span.end();

  // Stage boundary: a signal that lands before refinement starts skips it
  // entirely and ships the initial assignment as the (degraded but valid)
  // final result. Non-counting poll — the deterministic per-move counters
  // only start inside the refinement loops.
  if (options.refine.cancel.signalled()) {
    report.assignment = initial.assignment;
    report.schedule = engine.evaluate(initial.assignment, options.refine.eval);
    report.initial_total = report.schedule.total_time;
    report.reached_lower_bound = report.schedule.total_time == report.lower_bound;
    report.status = options.refine.cancel.status();
    report.eval_width =
        engine.resolve_batch_width(options.refine.eval_width, options.refine.eval);
    return report;
  }

  const obs::Span refine_span("refine", "mapper");
  // refine scores the initial assignment first; its total is the report's.
  const RefineResult refined = refine(engine, report.ideal, initial, options.refine);
  report.initial_total = refined.initial_total;
  report.assignment = refined.assignment;
  report.schedule = refined.schedule;
  report.reached_lower_bound = refined.reached_lower_bound;
  report.terminated_early = refined.terminated_early;
  report.refinement_trials = refined.trials_used;
  report.improvements = refined.improvements;
  report.delta = refined.delta;
  report.status = refined.status;
  report.eval_width = engine.resolve_batch_width(options.refine.eval_width, options.refine.eval);
  return report;
}

}  // namespace mimdmap
