// Harness arithmetic shared by every workload: clocks, percentiles, host
// noise (steal, CPU time, peak RSS), the in-memory span log with its
// self-time fold and Chrome trace export, and the result report.
//
// Everything here is the benchmark's own code; the program under test is
// only ever called through its public headers. selftest.cpp checks the
// arithmetic on synthetic inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Steady-clock nanoseconds, the time base of every span.
[[nodiscard]] std::int64_t now_ns();

/// splitmix64 finalizer: the benchmark's own input generation, so inputs
/// depend only on --seed and never on the library's RNG.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded stream of integers for input generation.
class Prng {
 public:
  explicit Prng(std::uint64_t seed) : state_(mix64(seed)) {}
  std::uint64_t next() noexcept { return state_ = mix64(state_); }
  /// Uniform in [lo, hi] (inclusive).
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

// -- Sample statistics --------------------------------------------------

/// Nearest-rank percentile: the smallest sample such that at least p% of
/// all samples are <= it (p in (0, 100]). Throws on an empty sample.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// How many samples lie strictly beyond the nearest-rank p-th percentile
/// position of n samples: n - ceil(p * n / 100).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// A reported tail percentile needs at least this many samples beyond it.
inline constexpr std::size_t kMinTailSamples = 10;

[[nodiscard]] double median(std::vector<double> samples);

/// A measured value with all its significant digits (12), for output.
[[nodiscard]] std::string fmt(double v);
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Open-loop latency of one request: from the moment it was due to be
/// sent (not the moment the generator got round to sending it) to its
/// terminal frame, so a stalled generator shows up as latency.
[[nodiscard]] inline double open_loop_latency_ms(std::int64_t due_ns, std::int64_t done_ns) {
  return static_cast<double>(done_ns - due_ns) / 1e6;
}

// -- Host noise ---------------------------------------------------------

/// Aggregate jiffies of the first "cpu" line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;  // user..steal (guest time is already in user/nice)
  std::uint64_t steal = 0;
};

/// Parses the aggregate "cpu " line of /proc/stat text; nullopt when the
/// line is missing or has fewer than the eight classic fields.
[[nodiscard]] std::optional<CpuTimes> parse_proc_stat(const std::string& text);

/// Steal share of all CPU time between two readings, in percent.
[[nodiscard]] double steal_pct(const CpuTimes& before, const CpuTimes& after);

/// Share of a run's windows that its timings are taken from: the ones in
/// which the hypervisor stole the least CPU time. Steal comes in episodes
/// of seconds to minutes that slow every layer at once (serve p90 grows
/// fivefold at 15% steal), so a timing over all windows measures the
/// host; over the quietest it measures the program.
inline constexpr double kQuietShare = 0.1;
/// A timing is never taken over fewer windows than this (or all of them).
inline constexpr std::size_t kMinQuietWindows = 3;

/// Indices, in window order, of every window whose steal is at most that
/// of the k-th quietest, k = max(ceil(share * n), min_windows) capped at n.
/// Ties are all kept, so a run without steal keeps every window.
[[nodiscard]] std::vector<std::size_t> quiet_windows(const std::vector<double>& steal_pct,
                                                     double share,
                                                     std::size_t min_windows = kMinQuietWindows);

/// Snapshot of the host-noise counters at one instant.
struct HostSample {
  CpuTimes cpu;
  double process_cpu_s = 0.0;  // user + system time of this process so far
};
[[nodiscard]] HostSample host_now();
[[nodiscard]] double peak_rss_mb();

// -- Spans --------------------------------------------------------------

/// One finished span. Names are string literals owned by the program.
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
  std::int64_t id = -1;      // job or request id, -1 when none
};

/// In-memory span log of one thread. Disabled logs record nothing and
/// cost one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  std::int32_t open(const char* name, std::int64_t id = -1);
  void close(std::int32_t index);

  /// Adds a finished span with explicit times (splits reported by the
  /// server rather than measured here). Returns its index.
  std::int32_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                   std::int32_t parent, std::int64_t id = -1);

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept { return records_; }

  /// Appends another log's finished spans (parents re-indexed).
  void append(const SpanLog& other);

  /// Chrome trace-event JSON (complete "X" events, microsecond times),
  /// loadable in Perfetto.
  void write_chrome_json(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> records_;
  std::vector<std::int32_t> open_;
};

/// RAII span on a SpanLog.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::int64_t id = -1)
      : log_(log), index_(log.open(name, id)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Spans folded by name. Self time is a span's duration minus the part of
/// it that its children cover (overlapping children counted once).
struct SpanFold {
  std::map<std::string, double> self_ms;
  std::map<std::string, std::int64_t> calls;
  double root_ms = 0.0;  // summed duration of root spans
  /// Share of the root wall covered by self time of layer spans (every
  /// span whose name does not start with "harness."), in percent.
  [[nodiscard]] double coverage_pct() const;
  [[nodiscard]] double self(const std::string& name) const;
};
[[nodiscard]] SpanFold fold_spans(const std::vector<SpanRecord>& spans);

// -- Report -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics every traced run reports, in output order, with
/// their units. A workload that does not exercise a layer reports 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
