#include "core/refinement.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/trace.hpp"
#include "workload/rng.hpp"

namespace mimdmap {

RefineResult refine(const EvalEngine& engine, const IdealSchedule& ideal,
                    const InitialAssignmentResult& initial, const RefineOptions& options) {
  const MappingInstance& instance = engine.instance();
  if (!initial.assignment.complete()) {
    throw std::invalid_argument("refine: initial assignment is incomplete");
  }

  RefineResult result;
  result.assignment = initial.assignment;
  result.schedule = engine.evaluate(result.assignment, options.eval);
  result.lower_bound = ideal.lower_bound;
  result.initial_total = result.schedule.total_time;

  // Step 3: the initial assignment may already be optimal (the paper's
  // running example, Fig. 24).
  if (options.use_termination_condition &&
      result.schedule.total_time == result.lower_bound) {
    result.reached_lower_bound = true;
    result.terminated_early = true;
    return result;
  }

  // The movable clusters and the processors they occupy. Pinned (critical)
  // clusters never move, so the free processor set is fixed.
  const NodeId n = instance.num_processors();
  std::vector<NodeId> free_clusters;
  std::vector<NodeId> free_procs;
  for (NodeId c = 0; c < n; ++c) {
    if (options.respect_pinned && initial.pinned[idx(c)]) continue;
    free_clusters.push_back(c);
    free_procs.push_back(initial.assignment.host_of(c));
  }

  const std::int64_t budget =
      options.max_trials >= 0 ? options.max_trials : static_cast<std::int64_t>(n);

  if (free_clusters.size() < 2) {
    // Pin saturation: on dense abstract graphs nearly every cluster can be
    // a critical abstract node, leaving refinement nothing to move — a case
    // the paper never discusses. Fall back to moving everything; the
    // keep-iff-better rule still guarantees the result never regresses
    // below the initial assignment (DESIGN.md section 6).
    free_clusters.clear();
    free_procs.clear();
    for (NodeId c = 0; c < n; ++c) {
      free_clusters.push_back(c);
      free_procs.push_back(initial.assignment.host_of(c));
    }
    if (free_clusters.size() < 2) {
      result.reached_lower_bound = result.schedule.total_time == result.lower_bound;
      return result;
    }
  }

  Rng rng(options.seed);
  std::vector<NodeId> shuffled = free_clusters;

  // Step 4a: the candidate re-placements depend only on the RNG stream
  // (the paper re-places the free clusters afresh each trial, not relative
  // to the current assignment), so candidates can be generated ahead of
  // their scan — but only one chunk at a time, reusing the same scratch
  // host vectors, so memory stays O(chunk) instead of O(budget * n) and
  // early termination skips the trailing chunks entirely. Every pinned
  // slot keeps its initial host and every free slot is rewritten each
  // trial, so recycling a scratch vector never leaks a previous candidate.
  // A chunk is evaluated as SoA waves of `width` candidates (one topo walk
  // per wave, per-lane early exit against the incumbent); 4 waves per lane
  // keep the pool's work stealing fed. Width 1 degenerates to the scalar
  // kernel, chunk size 1 when sequential (fully lazy).
  const int threads = std::max(1, engine.resolve_num_threads(options.num_threads, options.eval));
  const int width = std::max(1, engine.resolve_batch_width(options.eval_width, options.eval));
  const std::size_t chunk_capacity =
      (threads > 1 ? static_cast<std::size_t>(threads) * 4 : std::size_t{1}) *
      static_cast<std::size_t>(width);
  const std::vector<NodeId>& initial_host = initial.assignment.host_of_vector();
  std::vector<std::vector<NodeId>> chunk(chunk_capacity, initial_host);
  std::vector<Weight> totals(chunk_capacity, 0);
  const std::span<const Weight> tail = engine.ideal_tail();

  std::vector<NodeId> best_host = initial_host;
  Weight best_total = result.initial_total;
  bool improved_any = false;

  for (std::int64_t done = 0; done < budget;) {
    // Cancellation point (one counting poll per chunk; sequential mode's
    // chunk is a single wave). A tripped token ends the search here with
    // the incumbent-so-far — the epilogue below materializes it exactly as
    // a budget exhaustion would.
    if (options.cancel.stop_requested()) {
      result.status = options.cancel.status();
      break;
    }
    const std::size_t m = static_cast<std::size_t>(
        std::min<std::int64_t>(static_cast<std::int64_t>(chunk_capacity), budget - done));
    for (std::size_t i = 0; i < m; ++i) {
      rng.shuffle(shuffled);
      std::vector<NodeId>& host = chunk[i];
      for (std::size_t k = 0; k < shuffled.size(); ++k) {
        host[idx(shuffled[k])] = free_procs[k];
      }
    }

    // Step 4b: evaluate the chunk. Parallel mode fans SoA waves across the
    // engine's persistent worker pool; sequential mode evaluates wave by
    // wave so the early termination saves every skipped wave. The incumbent
    // best is passed as the waves' shared cutoff, with the ideal-graph tail
    // as potential: every candidate is a permutation (free clusters over
    // the processors they already hold), so each inter-cluster message
    // crosses at least one hop and end(v) + tail(v) never exceeds the
    // candidate's total. A lane whose sum reaches best early-exits and
    // reports a certified ">= best" bound, which the in-order scan below
    // rejects exactly as it would the exact value. The termination check
    // stays exact too: while it is live, best is strictly above the lower
    // bound (step 3 / 4c return on equality), so a lower-bound-reaching
    // candidate is never cut off and a cut-off lane's bound can never
    // equal the lower bound. Hence the whole scan is bit-identical for any
    // thread count and width.
    const obs::Span chunk_span("refine_chunk", "mapper", "candidates",
                               static_cast<std::int64_t>(m));
    engine.batch_total_times(std::span(chunk.data(), m), options.eval, threads, width,
                             std::span(totals.data(), m), best_total, tail, options.cancel);

    for (std::size_t i = 0; i < m; ++i) {
      ++result.trials_used;

      // Step 4c: termination condition.
      if (options.use_termination_condition && totals[i] == result.lower_bound) {
        result.assignment = Assignment::from_host_of(chunk[i]);
        result.schedule = engine.evaluate(result.assignment, options.eval);
        result.reached_lower_bound = true;
        result.terminated_early = result.trials_used < budget;
        ++result.improvements;
        return result;
      }

      // Step 4d: keep iff strictly better.
      if (totals[i] < best_total) {
        best_total = totals[i];
        best_host = chunk[i];
        improved_any = true;
        ++result.improvements;
      }
    }
    done += static_cast<std::int64_t>(m);
  }

  if (improved_any) {
    result.assignment = Assignment::from_host_of(best_host);
    result.schedule = engine.evaluate(result.assignment, options.eval);
  }
  result.reached_lower_bound = result.schedule.total_time == result.lower_bound;
  return result;
}

RefineResult refine(const MappingInstance& instance, const IdealSchedule& ideal,
                    const InitialAssignmentResult& initial, const RefineOptions& options) {
  const EvalEngine engine(instance);
  return refine(engine, ideal, initial, options);
}

}  // namespace mimdmap
