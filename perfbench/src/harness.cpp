#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return n - std::min(n, rank);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  const std::size_t n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::optional<CpuTimes> parse_proc_stat(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("cpu ", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    std::uint64_t v[8] = {};
    for (std::uint64_t& x : v) {
      if (!(fields >> x)) return std::nullopt;
    }
    CpuTimes t;
    for (const std::uint64_t x : v) t.total += x;
    t.steal = v[7];
    return t;
  }
  return std::nullopt;
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::vector<std::size_t> quiet_windows(const std::vector<double>& steal_pct, double share,
                                       std::size_t min_windows) {
  const std::size_t n = steal_pct.size();
  if (n == 0) return {};
  const auto want = static_cast<std::size_t>(std::ceil(share * static_cast<double>(n)));
  const std::size_t keep = std::min(n, std::max({want, min_windows, std::size_t{1}}));
  std::vector<double> sorted = steal_pct;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(keep - 1),
                   sorted.end());
  std::vector<std::size_t> quiet;
  for (std::size_t k = 0; k < n; ++k) {
    if (steal_pct[k] <= sorted[keep - 1]) quiet.push_back(k);
  }
  return quiet;
}

HostSample host_now() {
  HostSample s;
  std::ifstream stat("/proc/stat");
  std::ostringstream text;
  text << stat.rdbuf();
  s.cpu = parse_proc_stat(text.str()).value_or(CpuTimes{});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  s.process_cpu_s = secs(usage.ru_utime) + secs(usage.ru_stime);
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::int32_t SpanLog::open(const char* name, std::int64_t id) {
  if (!enabled_) return -1;
  SpanRecord r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.id = id;
  const auto index = static_cast<std::int32_t>(records_.size());
  open_.push_back(index);
  r.start_ns = now_ns();
  records_.push_back(r);
  return index;
}

void SpanLog::close(std::int32_t index) {
  if (index < 0) return;
  records_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Spans close innermost first; an out-of-order close drops everything
  // opened after it from the stack as well.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::int32_t SpanLog::add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                          std::int32_t parent, std::int64_t id) {
  if (!enabled_) return -1;
  records_.push_back(SpanRecord{name, start_ns, end_ns, parent, id});
  return static_cast<std::int32_t>(records_.size() - 1);
}

void SpanLog::append(const SpanLog& other) {
  if (!enabled_) return;
  const auto base = static_cast<std::int32_t>(records_.size());
  for (SpanRecord r : other.records_) {
    if (r.parent >= 0) r.parent += base;
    records_.push_back(r);
  }
}

void SpanLog::write_chrome_json(std::ostream& out) const {
  const std::int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%lld,\"parent\":%d}}",
                  i == 0 ? "" : ",", r.name, static_cast<double>(r.start_ns - origin) / 1e3,
                  static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                  static_cast<long long>(r.id), r.parent);
    out << buf;
  }
  out << "\n]}\n";
}

SpanFold fold_spans(const std::vector<SpanRecord>& spans) {
  // Children grouped by parent (CSR over the record indices).
  const std::size_t n = spans.size();
  std::vector<std::size_t> offset(n + 1, 0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) ++offset[static_cast<std::size_t>(s.parent) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) offset[i + 1] += offset[i];
  std::vector<std::size_t> child(offset[n]);
  std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) child[fill[static_cast<std::size_t>(spans[i].parent)]++] = i;
  }

  SpanFold fold;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    cover.clear();
    for (std::size_t k = offset[i]; k < offset[i + 1]; ++k) {
      const SpanRecord& c = spans[child[k]];
      const std::int64_t a = std::max(c.start_ns, s.start_ns);
      const std::int64_t b = std::min(c.end_ns, s.end_ns);
      if (b > a) cover.emplace_back(a, b);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = 0;
    bool open = false;
    for (const auto& [a, b] : cover) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    const std::int64_t dur = std::max<std::int64_t>(0, s.end_ns - s.start_ns);
    fold.self_ms[s.name] += static_cast<double>(dur - covered) / 1e6;
    fold.calls[s.name] += 1;
    if (s.parent < 0) fold.root_ms += static_cast<double>(dur) / 1e6;
  }
  return fold;
}

double SpanFold::self(const std::string& name) const {
  const auto it = self_ms.find(name);
  return it == self_ms.end() ? 0.0 : it->second;
}

double SpanFold::coverage_pct() const {
  if (root_ms <= 0.0) return 0.0;
  double layers = 0.0;
  for (const auto& [name, ms] : self_ms) {
    if (name.rfind("harness.", 0) != 0) layers += ms;
  }
  return 100.0 * layers / root_ms;
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"graph.graph_io.parse_ms", "ms"},
      {"topology.factory.build_ms", "ms"},
      {"graph.topology_cache.acquire_ms", "ms"},
      {"graph.topology_cache.hits", "count"},
      {"graph.topology_cache.misses", "count"},
      {"cluster.strategies.build_ms", "ms"},
      {"core.instance.build_ms", "ms"},
      {"core.eval_engine.build_ms", "ms"},
      {"core.ideal_graph.schedule_ms", "ms"},
      {"core.critical.find_ms", "ms"},
      {"core.initial_assignment.ms", "ms"},
      {"core.refinement.refine_ms", "ms"},
      {"core.refinement.candidates_per_s", "1/s"},
      {"core.refinement.trials", "count"},
      {"core.eval_engine.batch_width", "lanes"},
      {"baseline.random_mapping.ms", "ms"},
      {"service.map_service.job_ms", "ms"},
      {"service.map_service.unattributed_ms", "ms"},
      {"service.map_service.lane_busy_pct", "%"},
      {"service.map_service.queue_wait_ms", "ms"},
      {"service.thread_pool.chunks", "count"},
      {"service.thread_pool.sequential_chunks", "count"},
      {"service.thread_pool.indices_stolen", "count"},
      {"service.server.job_ms", "ms"},
      {"service.server.overhead_ms", "ms"},
      {"service.server.computed_latency_p50_ms", "ms"},
      {"service.result_cache.hit_latency_p50_ms", "ms"},
      {"service.result_cache.hit_ratio", "ratio"},
      {"service.journal.recover_ms", "ms"},
      {"service.journal.recovered_records", "count"},
      {"service.journal.appends", "count"},
      {"service.journal.fsyncs", "count"},
      {"service.journal.append_us", "us"},
      {"service.wire.parse_us", "us"},
      {"service.wire.fingerprint_us", "us"},
      {"workload.gen_ms", "ms"},
      {"service.server.shed", "count"},
      {"service.server.parse_errors", "count"},
      {"harness.latency_p99_ms", "ms"},
      {"harness.steal_pct", "%"},
      {"harness.cpu_s", "s"},
      {"harness.hardware_concurrency", "count"},
      {"harness.generator_late_p99_ms", "ms"},
      {"harness.generator_late_max_ms", "ms"},
      {"harness.trace_overhead_pct", "%"},
      {"harness.trace_coverage_pct", "%"},
  };
  return kUnits;
}

}  // namespace perfbench
