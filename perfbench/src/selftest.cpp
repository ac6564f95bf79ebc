// Self-tests of the harness arithmetic on synthetic inputs. main.cpp runs
// them before every workload, and alone with --selftest.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "selftest failed: " << what << "\n";
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_selection() {
  std::vector<double> s;
  for (int i = 100; i >= 1; --i) s.push_back(i);  // 1..100, unsorted
  expect(near(percentile(s, 50.0), 50.0), "p50 of 1..100 is 50");
  expect(near(percentile(s, 90.0), 90.0), "p90 of 1..100 is 90");
  expect(near(percentile(s, 99.0), 99.0), "p99 of 1..100 is 99");
  expect(near(percentile(s, 100.0), 100.0), "p100 is the maximum");
  expect(near(percentile({7.0}, 90.0), 7.0), "any percentile of one sample is that sample");
  expect(near(percentile({1.0, 2.0, 3.0}, 50.0), 2.0), "nearest-rank p50 of three");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "even-sized median averages the middle");

  // At least ten samples must lie beyond a reported percentile.
  expect(samples_beyond(100, 90.0) == 10, "100 samples leave 10 beyond p90");
  expect(samples_beyond(99, 90.0) < kMinTailSamples, "99 samples are too few for p90");
  expect(samples_beyond(1000, 99.0) == 10, "1000 samples leave 10 beyond p99");
  expect(samples_beyond(999, 99.0) < kMinTailSamples, "999 samples are too few for p99");
  expect(samples_beyond(5, 100.0) == 0, "nothing lies beyond the maximum");
}

void open_loop_latency() {
  // Requests due every 1 ms; the generator stalls 50 ms before sending the
  // third, and the server answers each 0.5 ms after it was sent.
  const std::int64_t ms = 1'000'000;
  const std::vector<std::int64_t> due = {0, 1 * ms, 2 * ms, 3 * ms};
  const std::vector<std::int64_t> sent = {0, 1 * ms, 52 * ms, 52 * ms};
  std::vector<double> from_due;
  std::vector<double> from_send;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const std::int64_t done = sent[i] + ms / 2;
    from_due.push_back(open_loop_latency_ms(due[i], done));
    from_send.push_back(open_loop_latency_ms(sent[i], done));
  }
  expect(near(from_due[0], 0.5) && near(from_due[1], 0.5), "on-time requests: service time");
  expect(near(from_due[2], 50.5) && near(from_due[3], 49.5),
         "a stalled generator raises the latency of every request it delayed");
  expect(percentile(from_due, 90.0) > percentile(from_send, 90.0) + 40.0,
         "timing from the send would hide the stall");
}

SpanRecord span(const char* name, std::int64_t a, std::int64_t b, std::int32_t parent) {
  return SpanRecord{name, a * 1'000'000, b * 1'000'000, parent, -1};
}

void trace_fold() {
  // harness.job [0, 100) with children a [10, 40) and b [30, 60) that
  // overlap, and c [90, 120) that runs past its parent; a has child d
  // [15, 25). A second root harness.job [200, 210) has no children.
  std::vector<SpanRecord> spans = {
      span("harness.job", 0, 100, -1), span("layer.a", 10, 40, 0), span("layer.b", 30, 60, 0),
      span("layer.c", 90, 120, 0),     span("layer.d", 15, 25, 1), span("harness.job", 200, 210, -1),
  };
  const SpanFold fold = fold_spans(spans);
  // Root 1 covered by [10, 60) and [90, 100): self 100 - 60 = 40; root 2 self 10.
  expect(near(fold.self("harness.job"), 50.0), "root self time subtracts the union of children");
  expect(near(fold.self("layer.a"), 20.0), "child self time subtracts its own child");
  expect(near(fold.self("layer.b"), 30.0), "overlap with a sibling is not subtracted");
  expect(near(fold.self("layer.c"), 30.0), "a span's own duration is kept in full");
  expect(near(fold.self("layer.d"), 10.0), "a leaf's self time is its duration");
  expect(fold.calls.at("harness.job") == 2, "calls are counted per name");
  expect(near(fold.root_ms, 110.0), "root wall sums the root spans");
  // Layers: 20 + 30 + 30 + 10 = 90 of 110 ms.
  expect(near(fold.coverage_pct(), 100.0 * 90.0 / 110.0), "coverage is layer self time / wall");
}

void steal_parsing() {
  const std::string stat =
      "cpu  100 5 50 800 10 1 2 30 7 0\n"
      "cpu0 50 2 25 400 5 0 1 15 0 0\n"
      "intr 12345\n";
  const auto t = parse_proc_stat(stat);
  expect(t.has_value(), "the aggregate cpu line parses");
  if (t) {
    expect(t->total == 998, "total sums user..steal and leaves guest out");
    expect(t->steal == 30, "steal is the eighth field");
  }
  expect(!parse_proc_stat("cpu0 1 2 3 4 5 6 7 8\n").has_value(),
         "per-cpu lines are not the aggregate");
  expect(!parse_proc_stat("cpu  1 2 3\n").has_value(), "short lines are rejected");
  const CpuTimes a{1000, 10};
  const CpuTimes b{1400, 30};
  expect(near(steal_pct(a, b), 5.0), "steal share of the interval");
  expect(near(steal_pct(b, b), 0.0), "an empty interval has no steal");
}

void quiet_window_selection() {
  const std::vector<double> steal = {9.0, 0.5, 3.0, 0.5, 12.0, 1.0, 0.0, 7.0};
  expect(quiet_windows(steal, 0.25) == std::vector<std::size_t>{1, 3, 6},
         "a quarter of 8 windows is 2, raised to the minimum of 3");
  expect(quiet_windows(steal, 0.5) == std::vector<std::size_t>{1, 3, 5, 6},
         "the quietest half, in window order");
  expect(quiet_windows({2.0, 0.0, 0.0, 0.0, 0.0, 5.0}, 0.25) ==
             std::vector<std::size_t>{1, 2, 3, 4},
         "windows tied with the cutoff are all kept");
  expect(quiet_windows(std::vector<double>(40, 0.0), 0.25).size() == 40,
         "a run without steal keeps every window");
  expect(quiet_windows({5.0, 1.0}, 0.25) == std::vector<std::size_t>{0, 1},
         "fewer windows than the minimum keeps them all");
  std::vector<double> ramp(100);
  for (std::size_t k = 0; k < ramp.size(); ++k) ramp[k] = static_cast<double>(ramp.size() - k);
  const std::vector<std::size_t> tenth = quiet_windows(ramp, kQuietShare);
  expect(tenth.size() == 10 && tenth.front() == 90,
         "timings use the quietest tenth of 100 distinct windows");
  expect(quiet_windows(ramp, kQuietShare, 30).size() == 30,
         "a minimum above the share widens the selection");
}

}  // namespace

int run_selftests() {
  failures = 0;
  percentile_selection();
  open_loop_latency();
  trace_fold();
  steal_parsing();
  quiet_window_selection();
  return failures;
}

}  // namespace perfbench
