// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload paper-batch --seed 1 --seconds 20 --trace 0 --work-dir DIR
//   perfbench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (the traced run also writes DIR/trace-<workload>.json).
// Exit code 0 when every correctness gate passed, 1 when one failed,
// 2 on bad arguments or a run that could not complete.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {

void fold_into_layers(const SpanLog& spans, WorkloadResult& result) {
  const SpanFold fold = fold_spans(spans.records());
  for (const auto& [name, unit] : layer_metric_units()) {
    if (unit != "ms" || name.size() < 4) continue;
    const std::string span_name = name.substr(0, name.size() - 3);  // drop "_ms" / ".ms"
    if (fold.self_ms.count(span_name) != 0) result.layers[name] = fold.self(span_name);
  }
  result.layers["harness.trace_coverage_pct"] = fold.coverage_pct();
  std::ostringstream note;
  note << "trace fold (self ms, calls, share of " << fmt(fold.root_ms)
       << " ms traced wall):";
  for (const auto& [name, ms] : fold.self_ms) {
    note << "\n  " << name << " " << fmt(ms) << " ms x" << fold.calls.at(name)
         << " (" << fmt(fold.root_ms > 0 ? 100.0 * ms / fold.root_ms : 0.0) << "%)";
  }
  note << "\n  coverage " << fmt(fold.coverage_pct()) << "%";
  result.notes.push_back(note.str());
}

namespace {

struct Printer {
  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
    std::cout << "  " << name << " = " << fmt(value) << " " << unit << "\n";
  }
};

/// Median of per-window values, over the quiet windows or over all.
double window_median(const std::vector<double>& values, const std::vector<double>& steal,
                     bool quiet_only) {
  if (!quiet_only) return median(values);
  std::vector<double> kept;
  for (const std::size_t k : quiet_windows(steal, kQuietShare)) kept.push_back(values[k]);
  return median(kept);
}

int run(const RunConfig& config) {
  SpanLog spans(config.trace);
  WorkloadResult r;
  if (config.workload == "paper-batch") {
    r = run_paper_batch(config, spans);
  } else if (config.workload == "large-map") {
    r = run_large_map(config, spans);
  } else if (config.workload == "serve-durable") {
    r = run_serve_durable(config, spans);
  } else {
    std::cerr << "unknown workload '" << config.workload << "'\n";
    return 2;
  }

  std::cout << "perfbench workload=" << config.workload << " seed=" << config.seed
            << " seconds=" << config.seconds << " trace=" << (config.trace ? 1 : 0) << "\n";
  for (const std::string& note : r.notes) std::cout << note << "\n";

  if (r.latency_steal_pct.size() != r.window_latency_ms.size() ||
      r.rate_steal_pct.size() != r.window_rates.size()) {
    throw std::logic_error("every window needs its steal");
  }
  // Latency percentiles pool the samples of the quiet windows, taking
  // enough windows that p90 would have ten samples beyond it even if each
  // held no more than the smallest. A tail percentile is only reported
  // when at least ten samples lie beyond it; a run too small for its p90
  // is a broken run, not a result.
  std::size_t smallest = r.window_latency_ms.empty() ? 0 : r.window_latency_ms[0].size();
  for (const std::vector<double>& window : r.window_latency_ms) {
    smallest = std::min(smallest, window.size());
  }
  const std::size_t tail_pool = 10 * kMinTailSamples;  // p90 leaves a tenth beyond it
  const std::vector<std::size_t> quiet_latency_windows = quiet_windows(
      r.latency_steal_pct, kQuietShare,
      smallest == 0 ? r.window_latency_ms.size()
                    : std::max(kMinQuietWindows, (tail_pool + smallest - 1) / smallest));
  std::vector<double> quiet_latency;
  for (const std::size_t k : quiet_latency_windows) {
    quiet_latency.insert(quiet_latency.end(), r.window_latency_ms[k].begin(),
                         r.window_latency_ms[k].end());
  }
  if (samples_beyond(quiet_latency.size(), 90.0) < kMinTailSamples) {
    r.fail("only " + std::to_string(quiet_latency.size()) +
           " latency samples in the quiet windows: p90 needs at least 10 beyond it");
  }
  if (r.attempted <= 0 || r.timed_wall_s <= 0.0 || r.setup_s.empty()) {
    r.fail("workload attempted no timed work");
  }
  const std::int64_t failed = std::max<std::int64_t>(0, r.attempted - r.ok);

  // Host-noise record, printed on every run.
  const double steal = steal_pct(r.timed_begin.cpu, r.timed_end.cpu);
  const double cpu_s = host_now().process_cpu_s;
  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "host: hardware_concurrency=" << hw << " steal_pct=" << fmt(steal)
            << " process_cpu_s=" << fmt(cpu_s);
  double late_p99 = 0.0;
  double late_max = 0.0;
  if (!r.generator_late_ms.empty()) {
    late_p99 = percentile(r.generator_late_ms, 99.0);
    late_max = percentile(r.generator_late_ms, 100.0);
    std::cout << " generator_late_p99_ms=" << fmt(late_p99)
              << " generator_late_max_ms=" << fmt(late_max);
  }
  std::cout << "\n";
  std::cout << "samples: setup_s";
  for (const double s : r.setup_s) std::cout << " " << fmt(s);
  std::cout << "; latency=" << r.latency_ms.size() << " in " << r.window_latency_ms.size()
            << " windows; rate windows=" << r.window_rates.size()
            << " attempted=" << r.attempted << " failed=" << failed << " (failed_pct "
            << fmt(r.attempted > 0 ? 100.0 * static_cast<double>(failed) /
                                            static_cast<double>(r.attempted)
                                      : 0.0)
            << ")\n";
  for (const std::string& why : r.gate_failures) std::cout << "GATE FAILED: " << why << "\n";

  const bool sized = !quiet_latency.empty() && !r.setup_s.empty() && r.attempted > 0;
  // Timings are taken over the quiet windows; the same timings over every
  // window are printed beside them, so the host's share stays visible.
  const auto latency_pct = [&](double p, bool quiet) {
    return percentile(quiet ? quiet_latency : r.latency_ms, p);
  };
  const auto throughput = [&r](bool quiet) {
    return r.window_rates.empty() ? static_cast<double>(r.ok) / r.timed_wall_s
                                  : window_median(r.window_rates, r.rate_steal_pct, quiet);
  };
  if (sized) {
    const auto kept = [](const std::vector<double>& steal, const std::vector<std::size_t>& quiet) {
      double cutoff = 0.0;
      for (const std::size_t k : quiet) cutoff = std::max(cutoff, steal[k]);
      return std::to_string(quiet.size()) + " of " + std::to_string(steal.size()) +
             " (steal <= " + fmt(cutoff) + "%)";
    };
    std::cout << "windows: latency over " << kept(r.latency_steal_pct, quiet_latency_windows)
              << " with " << quiet_latency.size() << " samples";
    if (!r.window_rates.empty()) {
      std::cout << ", rate over "
                << kept(r.rate_steal_pct, quiet_windows(r.rate_steal_pct, kQuietShare));
    }
    std::cout << "; over every window: throughput " << fmt(throughput(false)) << " jobs/s, p50 "
              << fmt(latency_pct(50.0, false)) << " ms, p90 " << fmt(latency_pct(90.0, false))
              << " ms\n";
  }
  Printer out;
  if (!config.trace && sized) {
    std::cout << "end-to-end:\n";
    out.add("setup_s", median(r.setup_s), "s");
    out.add("throughput_jobs_s", throughput(true), "jobs/s");
    out.add("latency_p50_ms", latency_pct(50.0, true), "ms");
    out.add("latency_p90_ms", latency_pct(90.0, true), "ms");
    out.add("quality_pct", r.quality_n > 0 ? r.quality_sum_pct / static_cast<double>(r.quality_n)
                                           : 0.0,
            "%");
    out.add("peak_rss_mb", peak_rss_mb(), "MiB");
    out.add("ok_pct", 100.0 * static_cast<double>(r.ok) / static_cast<double>(r.attempted), "%");
  } else if (config.trace && sized) {
    r.layers["harness.latency_p99_ms"] = percentile(r.latency_ms, 99.0);
    r.layers["harness.steal_pct"] = steal;
    r.layers["harness.cpu_s"] = cpu_s;
    r.layers["harness.hardware_concurrency"] = hw;
    r.layers["harness.generator_late_p99_ms"] = late_p99;
    r.layers["harness.generator_late_max_ms"] = late_max;
    std::cout << "per-layer:\n";
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = r.layers.find(name);
      out.add(name, it == r.layers.end() ? 0.0 : it->second, unit);
    }
    const std::string path = config.work_dir + "/trace-" + config.workload + ".json";
    std::ofstream file(path);
    spans.write_chrome_json(file);
    std::cout << "trace: " << spans.records().size() << " spans written to " << path << "\n";
  }

  const bool correct = r.gate_failures.empty();
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << std::max<std::int64_t>(1, r.attempted) << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    json << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << fmt(m.value)
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool selftest = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--selftest") {
        selftest = true;
      } else if (arg == "--workload") {
        config.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stoi(value());
      } else if (arg == "--trace") {
        config.trace = std::stoi(value()) != 0;
      } else if (arg == "--work-dir") {
        config.work_dir = value();
      } else {
        std::cerr << "unknown argument '" << arg << "'\n";
        return 2;
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << arg << "\n";
      return 2;
    }
  }
  if (selftest) {
    const int failures = run_selftests();
    std::cout << (failures == 0 ? "selftest: all passed" : "selftest: FAILED") << "\n";
    return failures == 0 ? 0 : 1;
  }
  if (!have_workload || config.seconds < 1 || config.work_dir.empty()) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n";
    return 2;
  }
  // The arithmetic the metrics rest on is checked on every run.
  if (run_selftests() != 0) {
    std::cerr << "harness self-tests failed\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(config.work_dir);
    return run(config);
  } catch (const std::exception& e) {
    std::cerr << "run aborted: " << e.what() << "\n";
    return 2;
  }
}
