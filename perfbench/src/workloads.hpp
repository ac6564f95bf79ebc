// The three workloads. Each builds its inputs from the seed, runs its
// set-up and timed phase through the library's public calls, checks every
// output, and fills a WorkloadResult; main.cpp turns that into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

/// The program runs on 2 lanes: half of a 4-vCPU host, which leaves room
/// for the load generator and for steal.
inline constexpr int kLanes = 2;


struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Scratch directory of this run (journals, socket, trace file).
  std::string work_dir;
};

struct WorkloadResult {
  std::vector<double> setup_s;  // one sample per set-up repetition
  double timed_wall_s = 0.0;    // wall time of the timed phase
  std::int64_t attempted = 0;   // jobs or requests attempted
  std::int64_t ok = 0;          // ok results that passed every gate
  /// Every latency sample of the timed phase (p99 and the sample-count
  /// rule read these).
  std::vector<double> latency_ms;
  /// The timed phase split into windows (passes or time slices), each with
  /// the host steal measured over it. A run reports its timings over the
  /// quiet windows (quiet_windows): throughput is the median window rate
  /// when window_rates is set, and p50/p90 are percentiles of the pooled
  /// latency samples of the quiet windows.
  std::vector<double> window_rates;
  std::vector<double> rate_steal_pct;  // one per window_rates entry
  std::vector<std::vector<double>> window_latency_ms;
  std::vector<double> latency_steal_pct;  // one per window_latency_ms entry
  double quality_sum_pct = 0.0;  // sum of 100 * total / lower bound over ok results
  std::int64_t quality_n = 0;
  HostSample timed_begin;
  HostSample timed_end;
  /// Open-loop generator lateness (send time - due time), serve only.
  std::vector<double> generator_late_ms;
  /// Correctness-gate failures; any entry fails the run.
  std::vector<std::string> gate_failures;
  /// Per-layer metrics of the traced run (names from layer_metric_units()).
  std::map<std::string, double> layers;
  /// Extra human-readable lines printed before the result.
  std::vector<std::string> notes;

  void fail(const std::string& why) {
    if (gate_failures.size() < 20) gate_failures.push_back(why);
    else if (gate_failures.size() == 20) gate_failures.push_back("(further failures omitted)");
  }
};

/// Folds a traced run's spans into per-layer self times: every span named
/// "<layer>" becomes the metric "<layer><suffix>" (suffix "_ms" or ".ms"
/// as the metric table spells it), plus coverage.
void fold_into_layers(const SpanLog& spans, WorkloadResult& result);

WorkloadResult run_paper_batch(const RunConfig& config, SpanLog& spans);
WorkloadResult run_large_map(const RunConfig& config, SpanLog& spans);
WorkloadResult run_serve_durable(const RunConfig& config, SpanLog& spans);

/// Self-tests of the harness arithmetic; returns the number of failures.
int run_selftests();

}  // namespace perfbench
