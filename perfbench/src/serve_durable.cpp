// serve-durable: the daemon restarted over its own journal, then driven
// open loop over a Unix socket, with the journal (fsync policy batch) and
// the result cache on.
//
// 1. First session (not timed): a seeded request set is sent closed loop,
//    at full speed, over 2 connections; the daemon then drains.
// 2. Set-up: restarts over a copy of that journal — recovery, cache warm
//    load and listen — timed kSetupReps times. The journal holds thousands
//    of request pairs, so recovery dominates process jitter.
// 3. Timed session: a fixed-rate schedule over 2 connections of gen=
//    layered, diamond and fork-join requests of one size class (100-600
//    tasks, ns 8-16); about a quarter are exact repeats of earlier
//    requests from either session. Latency runs from each request's due
//    time to its terminal frame, in quarter-second windows of the
//    schedule, each with its own host steal.
//
// One client thread sends and reads for both connections, so the load
// generator adds a single runnable thread to the daemon's.
//
// Why: wire parsing, admission and queueing, per-request server overhead,
// journal appends with batched fsync, and result-cache reads beside
// writes — none of which the other workloads reach.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cli/manifest.hpp"
#include "cluster/strategies.hpp"
#include "core/instance.hpp"
#include "graph/topology_cache.hpp"
#include "obs/metrics.hpp"
#include "service/journal.hpp"
#include "service/map_service.hpp"
#include "service/server.hpp"
#include "service/thread_pool.hpp"
#include "service/wire.hpp"
#include "topology/factory.hpp"
#include "workload/random_dag.hpp"
#include "workload/structured.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace mimdmap;
using namespace mimdmap::serve;

/// Timed-session arrival rate. A constant, not calibrated to the host, so
/// every commit is offered the same load: about a quarter of what 2 lanes
/// of a 4-vCPU KVM host sustain on this request mix (a computed request
/// holds a lane for about 0.46 ms, a cached one none).
constexpr double kRate = 1200.0;
/// Latency windows: slices of the schedule this long. Each holds 300
/// requests, so its p90 has 30 beyond it, and steal is measured per slice.
constexpr double kWindowS = 0.25;
constexpr int kConnections = 2;
/// First-session requests: enough journaled pairs that recovery, at
/// roughly 13 us a pair, dominates the restart.
constexpr int kFirstSession = 8000;
/// Outstanding requests per connection in the closed-loop first session.
constexpr int kWindow = 2;
/// Share of timed requests that repeat an earlier request.
constexpr double kRepeatShare = 0.25;
/// A timed repeat of a timed request reuses one due at least this long
/// before it, so its first run has normally finished.
constexpr double kRepeatLagS = 0.2;
constexpr std::uint64_t kCacheBytes = 64ULL << 20;
/// Restarts per run (median reported): two before the timed session (the
/// second serves it) and three after it, so they sample the host's speed
/// at different moments instead of one burst.
constexpr int kSetupReps = 5;
constexpr int kRestartsBefore = 2;
/// Jobs per in-process check batch.
constexpr std::size_t kCheckBatch = 500;
constexpr const char* kMachines[] = {"hypercube-3", "mesh-2x5", "mesh-3x4",
                                     "torus-3x4",   "mesh-4x4", "hypercube-4"};

/// One request's submit keys after op= and id=.
std::string make_body(Prng& rng) {
  std::ostringstream os;
  switch (rng.range(0, 2)) {
    case 0:
      os << "gen=layered gen-a=" << rng.range(100, 600) << " gen-b=" << rng.range(6, 20);
      break;
    case 1: {
      const std::int64_t rows = rng.range(8, 24);
      os << "gen=diamond gen-a=" << rows << " gen-b="
         << rng.range((98 + rows - 1) / rows, std::min<std::int64_t>(598 / rows, 40));
      break;
    }
    default: {
      const std::int64_t stages = rng.range(2, 8);
      os << "gen=fork-join gen-a="
         << rng.range((99 - stages + stages - 1) / stages, (599 - stages) / stages)
         << " gen-b=" << stages;
      break;
    }
  }
  os << " gen-seed=" << rng.range(1, 1 << 30)
     << " spec=" << kMachines[rng.range(0, std::size(kMachines) - 1)]
     << " strategy=block seed=" << rng.range(1, 1 << 20)
     << " refine-seed=" << rng.range(1, 1 << 30);
  return os.str();
}

/// Client tag of request i: "w<i>" in the first session, "t<i>" in the
/// timed one.
std::string tag_of(char session, std::size_t i) {
  std::string tag = std::to_string(i);
  tag.insert(tag.begin(), session);
  return tag;
}

std::string submit_line(const std::string& tag, const std::string& body) {
  return "op=submit id=" + tag + " " + body + "\n";
}

/// The gen= generator the daemon runs for a request (the same calls with
/// the same weights as the server's job construction).
TaskGraph generate(const std::map<std::string, std::string>& kv) {
  const auto a = static_cast<NodeId>(cli::manifest_seed(kv, "gen-a", 4, 0));
  const auto b = static_cast<NodeId>(cli::manifest_seed(kv, "gen-b", 4, 0));
  const std::uint64_t seed = cli::manifest_seed(kv, "gen-seed", 1, 0);
  const StructuredWeights weights{{1, 9}, {1, 9}, seed};
  const std::string& kind = kv.at("gen");
  if (kind == "diamond") return make_diamond(a, b, weights);
  if (kind == "fork-join") return make_fork_join(a, b, weights);
  LayeredDagParams params;
  params.num_tasks = a;
  params.num_layers = b;
  params.node_weight = weights.node_weight;
  params.edge_weight = weights.edge_weight;
  return make_layered_dag(params, seed);
}

/// The same request mapped in-process, as the daemon's job would be.
MapJob in_process_job(const std::map<std::string, std::string>& kv, TopologyCache& cache) {
  MapJob job;
  job.build = [kv, &cache] {
    TaskGraph problem = generate(kv);
    SystemGraph machine = make_topology(kv.at("spec"));
    Clustering clustering = make_clustering(kv.at("strategy"), problem, machine.node_count(),
                                            cli::manifest_seed(kv, "seed", 1, 0));
    auto tables = cache.acquire(machine, DistanceModel::kHops);
    return MappingInstance(std::move(problem), std::move(clustering), std::move(machine),
                           std::move(tables));
  };
  job.options.refine.seed = cli::manifest_seed(kv, "refine-seed", 0x9e3779b97f4a7c15ULL, 0);
  return job;
}

/// One client connection over the daemon's Unix socket.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      const int saved = errno;
      ::close(fd_);
      throw std::runtime_error("connect " + path + ": " + std::strerror(saved));
    }
    // A daemon that stops answering ends the read loops instead of
    // hanging the run; the missing frames then fail the gates.
    timeval timeout{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& frame) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next frame line; false at EOF or after 60 s of silence.
  bool read(std::string& line) {
    while (lines_.empty()) {
      char buf[16384];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      for (FrameReader::Line& l : reader_.feed(buf, static_cast<std::size_t>(n))) {
        lines_.push_back(std::move(l.text));
      }
    }
    line = std::move(lines_.front());
    lines_.pop_front();
    return true;
  }

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Appends the frame lines completed by the bytes waiting on the socket
  /// (one non-blocking recv); false once the peer has closed.
  bool read_ready(std::vector<std::string>& out) {
    char buf[16384];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n < 0) return errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK;
    if (n == 0) return false;
    for (FrameReader::Line& l : reader_.feed(buf, static_cast<std::size_t>(n))) {
      out.push_back(std::move(l.text));
    }
    return true;
  }

  /// Sends one request and returns its answer frame (op=stats / metrics).
  std::map<std::string, std::string> ask(const std::string& frame, const std::string& event) {
    send(frame);
    std::string line;
    while (read(line)) {
      auto kv = parse_response(line);
      if (kv["event"] == event) return kv;
    }
    throw std::runtime_error("connection closed before event=" + event);
  }

 private:
  int fd_ = -1;
  FrameReader reader_{1 << 24};
  std::deque<std::string> lines_;
};

/// Terminal frame of one request as the client saw it.
struct Answer {
  std::string event;  // result | overloaded | error
  std::map<std::string, std::string> kv;
  std::int64_t done_ns = 0;
  int terminals = 0;
  int accepted = 0;
};

/// Records one frame against its request tag: accepted frames are counted,
/// the first terminal frame (result, overloaded or error) is kept and later
/// ones only counted. Returns whether the frame was terminal.
bool record(const std::string& line, std::unordered_map<std::string, Answer>& out) {
  const std::int64_t now = now_ns();
  auto kv = parse_response(line);
  const std::string event = kv["event"];
  const bool terminal = event == "result" || event == "overloaded" || event == "error";
  Answer& a = out[kv["id"]];
  if (event == "accepted") ++a.accepted;
  if (terminal && ++a.terminals == 1) {
    a.event = event;
    a.kv = std::move(kv);
    a.done_ns = now;
  }
  return terminal;
}

/// The load generator: kConnections connections driven from one thread,
/// so generating load and reading answers never compete for a CPU.
/// Request i goes out on connection i % kConnections.
class Clients {
 public:
  explicit Clients(const std::string& socket) {
    for (int c = 0; c < kConnections; ++c) {
      conns_.push_back(std::make_unique<Connection>(socket));
      fds_.push_back({conns_.back()->fd(), POLLIN, 0});
    }
  }

  void send(std::size_t i, const std::string& line) { conns_[i % conns_.size()]->send(line); }

  /// Waits up to wait_ns for frames and records those that arrive, adding
  /// each connection's terminal frames to done[c]. Throws when a
  /// connection closes, or when nothing arrives within a wait of kSilenceNs.
  void pump(std::int64_t wait_ns, std::unordered_map<std::string, Answer>& out,
            std::vector<std::size_t>& done) {
    const timespec wait{static_cast<time_t>(wait_ns / 1'000'000'000),
                        static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(fds_.data(), fds_.size(), &wait, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("poll failed");
    if (ready == 0 && wait_ns >= kSilenceNs) throw std::runtime_error("no frame for 60 s");
    for (std::size_t c = 0; ready > 0 && c < fds_.size(); ++c) {
      if (fds_[c].revents == 0) continue;
      if (!conns_[c]->read_ready(frames_)) throw std::runtime_error("daemon closed a connection");
      for (const std::string& frame : frames_) done[c] += record(frame, out) ? 1 : 0;
      frames_.clear();
    }
  }

  static constexpr std::int64_t kSilenceNs = 60'000'000'000;

 private:
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<pollfd> fds_;
  std::vector<std::string> frames_;
};

std::size_t sum(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{0});
}

/// Closed loop with kWindow requests in flight per connection.
void closed_loop(const std::string& socket, const std::vector<std::string>& lines,
                 std::unordered_map<std::string, Answer>& out) {
  Clients clients(socket);
  std::vector<std::size_t> sent(kConnections, 0);
  std::vector<std::size_t> done(kConnections, 0);
  while (sum(done) < lines.size()) {
    for (std::size_t c = 0; c < sent.size(); ++c) {
      for (std::size_t i = c + sent[c] * sent.size();
           i < lines.size() && sent[c] - done[c] < kWindow; i += sent.size(), ++sent[c]) {
        clients.send(i, lines[i]);
      }
    }
    clients.pump(Clients::kSilenceNs, out, done);
  }
}

/// Open loop: request i is sent at due[i] (sent[i] records when it was),
/// and frames are read whenever no send is due. window_cpu gets a host
/// sample as the first request of every window of window_n has gone out.
void open_loop(const std::string& socket, const std::vector<std::string>& lines,
               const std::vector<std::int64_t>& due, std::vector<std::int64_t>& sent,
               std::unordered_map<std::string, Answer>& out, std::size_t window_n,
               std::vector<CpuTimes>& window_cpu) {
  Clients clients(socket);
  std::vector<std::size_t> done(kConnections, 0);
  std::size_t next = 0;
  while (sum(done) < lines.size()) {
    std::int64_t now = now_ns();
    for (; next < lines.size() && due[next] <= now; ++next) {
      sent[next] = now;
      clients.send(next, lines[next]);
      if (next % window_n == 0) window_cpu.push_back(host_now().cpu);
      now = now_ns();
    }
    clients.pump(next < lines.size() ? due[next] - now : Clients::kSilenceNs, out, done);
  }
}

std::uint64_t metric_value(const std::string& exposition, const std::string& name) {
  std::istringstream lines(exposition);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(name + " ", 0) == 0) return std::stoull(line.substr(name.size() + 1));
  }
  return 0;
}

struct Outcome {
  std::string total;
  std::string lower_bound;
  std::string trials;
  bool operator==(const Outcome&) const = default;
};

Outcome outcome_of(const std::map<std::string, std::string>& kv) {
  const auto get = [&](const char* k) {
    const auto it = kv.find(k);
    return it == kv.end() ? std::string() : it->second;
  };
  return {get("total"), get("lower-bound"), get("trials")};
}

double field(const std::map<std::string, std::string>& kv, const char* key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::stod(it->second);
}

ServerOptions server_options(const std::string& journal, const std::shared_ptr<ThreadPool>& pool) {
  ServerOptions opts;
  opts.service.lanes = kLanes;
  opts.service.pool = pool;
  opts.journal_dir = journal;
  opts.journal_fsync = FsyncPolicy::kBatch;
  opts.cache_bytes = kCacheBytes;
  // Never compact, so every restart replays the full request history.
  opts.journal_rotate_bytes = std::uint64_t{1} << 40;
  return opts;
}

}  // namespace

WorkloadResult run_serve_durable(const RunConfig& config, SpanLog& spans) {
  namespace fs = std::filesystem;
  WorkloadResult r;
  const std::string dir = config.work_dir + "/serve";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string socket = dir + "/s.sock";
  if (socket.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("work directory path too long for a Unix socket");
  }
  // The pool outlives every daemon incarnation, as a warm process would.
  const std::shared_ptr<ThreadPool> pool = ThreadPool::shared();

  // Inputs.
  Prng rng(config.seed ^ 0x7365727665ULL);
  std::vector<std::string> first(kFirstSession);
  for (std::string& body : first) body = make_body(rng);
  const auto timed_n = static_cast<std::size_t>(kRate * config.seconds);
  std::vector<std::string> timed(timed_n);
  std::vector<bool> repeat(timed_n, false);
  const auto lag = static_cast<std::size_t>(kRate * kRepeatLagS);
  for (std::size_t i = 0; i < timed_n; ++i) {
    const bool rep = static_cast<double>(rng.next() % 1000) < kRepeatShare * 1000.0;
    if (rep) {
      // Either session, in proportion to what has been sent before.
      const std::size_t pool_size = first.size() + (i > lag ? i - lag : 0);
      const auto pick = static_cast<std::size_t>(rng.next() % pool_size);
      timed[i] = pick < first.size() ? first[pick] : timed[pick - first.size()];
      repeat[i] = true;
    } else {
      timed[i] = make_body(rng);
    }
  }

  // 1. First session, closed loop, then drain.
  std::unordered_map<std::string, Answer> first_answers;
  {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < first.size(); ++i) {
      lines.push_back(submit_line(tag_of('w', i), first[i]));
    }
    auto server = std::make_unique<MapServer>(server_options(dir + "/journal", pool));
    server->listen_unix(socket);
    try {
      closed_loop(socket, lines, first_answers);
    } catch (const std::exception& e) {
      r.fail(std::string("first-session client: ") + e.what());
    }
    server->request_drain(DrainMode::kFinish);
    server->wait();
  }

  // 2. Set-up: restart over a fresh copy of the first session's journal.
  std::vector<double> recover_ms;
  const auto restart = [&] {
    const std::string journal = dir + "/restart-" + std::to_string(r.setup_s.size());
    fs::copy(dir + "/journal", journal, fs::copy_options::recursive);
    const auto t0 = Clock::now();
    auto restarted = std::make_unique<MapServer>(server_options(journal, pool));
    const auto t1 = Clock::now();
    restarted->listen_unix(socket);
    const auto t2 = Clock::now();
    r.setup_s.push_back(ms_between(t0, t2) / 1e3);
    recover_ms.push_back(ms_between(t0, t1));
    return restarted;
  };
  const auto stop = [](std::unique_ptr<MapServer>& daemon) {
    daemon->request_drain(DrainMode::kFinish);
    daemon->wait();
    daemon.reset();
  };
  std::unique_ptr<MapServer> server;
  for (int rep = 0; rep < kRestartsBefore; ++rep) {
    if (server) stop(server);
    server = restart();
  }

  // 3. Timed session, open loop. Dirty pages from the first session and
  // the journal copies are written back first, so background writeback
  // does not land on the session's fsyncs.
  if (const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC); dir_fd >= 0) {
    ::syncfs(dir_fd);
    ::close(dir_fd);
  }
  std::string metrics_before;
  {
    Connection probe(socket);
    metrics_before = unescape(probe.ask("op=metrics\n", "metrics")["data"]);
  }
  std::vector<std::string> timed_lines;
  for (std::size_t i = 0; i < timed_n; ++i) {
    timed_lines.push_back(submit_line(tag_of('t', i), timed[i]));
  }
  std::vector<std::int64_t> due(timed_n);
  std::vector<std::int64_t> sent(timed_n);
  std::unordered_map<std::string, Answer> answers;
  const std::int64_t start = now_ns() + 20'000'000;  // connections open first
  const double gap_ns = 1e9 / kRate;
  for (std::size_t i = 0; i < timed_n; ++i) {
    due[i] = start + static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
  }
  const auto window_n = static_cast<std::size_t>(kRate * kWindowS);
  const std::size_t windows = (timed_n + window_n - 1) / window_n;
  std::vector<CpuTimes> window_cpu;
  r.timed_begin = host_now();
  try {
    open_loop(socket, timed_lines, due, sent, answers, window_n, window_cpu);
  } catch (const std::exception& e) {
    r.fail(std::string("open-loop client: ") + e.what());
  }
  r.timed_end = host_now();
  // A session cut short by a client failure leaves its last windows unsampled.
  while (window_cpu.size() <= windows) window_cpu.push_back(r.timed_end.cpu);
  for (std::size_t k = 0; k < windows; ++k) {
    r.latency_steal_pct.push_back(steal_pct(window_cpu[k], window_cpu[k + 1]));
  }
  const std::int64_t session_end = now_ns();
  r.timed_wall_s = static_cast<double>(session_end - start) / 1e9;

  std::map<std::string, std::string> stats;
  std::string metrics_after;
  {
    Connection probe(socket);
    stats = probe.ask("op=stats\n", "stats");
    metrics_after = unescape(probe.ask("op=metrics\n", "metrics")["data"]);
  }
  stop(server);
  while (static_cast<int>(r.setup_s.size()) < kSetupReps) {
    server = restart();
    stop(server);
  }

  // Gates. Every computed ok result defines the answer for its fingerprint;
  // cached answers and recomputations must agree with it.
  std::map<std::string, Outcome> computed;
  const auto record_computed = [&](const Answer& a, const std::string& tag) {
    if (a.event != "result" || a.kv.at("status") != "ok" || a.kv.count("cached") != 0) return;
    const std::string& fp = a.kv.at("fingerprint");
    const auto [it, fresh] = computed.emplace(fp, outcome_of(a.kv));
    if (!fresh && !(it->second == outcome_of(a.kv))) {
      r.fail(tag + ": recomputed result differs for fingerprint " + fp);
    }
  };
  for (std::size_t i = 0; i < first.size(); ++i) {
    const std::string tag = tag_of('w', i);
    const auto it = first_answers.find(tag);
    if (it == first_answers.end() || it->second.terminals != 1 ||
        it->second.event != "result" || it->second.kv.at("status") != "ok") {
      r.fail("first session " + tag + ": no single ok result");
      continue;
    }
    record_computed(it->second, tag);
  }
  for (std::size_t i = 0; i < timed_n; ++i) {
    const auto it = answers.find(tag_of('t', i));
    if (it != answers.end()) record_computed(it->second, it->first);
  }

  std::vector<double> computed_latency;
  std::vector<double> hit_latency;
  std::vector<double> queue_ms;
  std::vector<double> job_ms;
  std::vector<double> overhead_ms;
  std::int64_t repeats = 0;
  std::int64_t hits = 0;
  // Computed requests to map again in-process: fingerprint and submit keys.
  std::set<std::string> check_fps;
  std::vector<std::pair<std::string, std::map<std::string, std::string>>> to_check;
  std::vector<bool> was_computed(timed_n, false);
  r.window_latency_ms.resize(windows);
  for (std::size_t i = 0; i < timed_n; ++i) {
    const std::string tag = tag_of('t', i);
    ++r.attempted;
    repeats += repeat[i] ? 1 : 0;
    r.generator_late_ms.push_back(static_cast<double>(sent[i] - due[i]) / 1e6);
    const auto it = answers.find(tag);
    const bool answered = it != answers.end() && it->second.terminals > 0;
    if (answered && it->second.terminals > 1) {
      r.fail(tag + ": " + std::to_string(it->second.terminals) + " terminal frames");
    }
    if (answered && it->second.accepted > 1) r.fail(tag + ": accepted more than once");
    const bool ok = answered && it->second.event == "result" && it->second.kv.at("status") == "ok";
    if (!ok) {
      // A lost, shed or failed request misses every latency limit.
      r.latency_ms.push_back(open_loop_latency_ms(due[i], session_end));
      r.window_latency_ms[i / window_n].push_back(r.latency_ms.back());
      if (!answered) r.fail(tag + ": no terminal frame");
      continue;
    }
    const Answer& a = it->second;
    if (a.accepted != 1) r.fail(tag + ": result without exactly one accepted frame");
    const double latency = open_loop_latency_ms(due[i], a.done_ns);
    r.latency_ms.push_back(latency);
    r.window_latency_ms[i / window_n].push_back(latency);
    const std::string& fp = a.kv.at("fingerprint");
    const Outcome got = outcome_of(a.kv);
    const auto ref = computed.find(fp);
    if (a.kv.count("cached") != 0) {
      ++hits;
      hit_latency.push_back(latency);
      if (ref == computed.end() || !(ref->second == got)) {
        r.fail(tag + ": cached result differs from the computed one for " + fp);
        continue;
      }
    } else {
      computed_latency.push_back(latency);
      was_computed[i] = true;
      const double q = field(a.kv, "queue-ms");
      const double w = field(a.kv, "wall-ms");
      queue_ms.push_back(q);
      job_ms.push_back(w);
      overhead_ms.push_back(latency - q - w);
      if (check_fps.insert(fp).second) {
        to_check.emplace_back(fp, parse_request(submit_line(tag, timed[i])).kv);
      }
    }
    ++r.ok;
    r.quality_sum_pct += 100.0 * std::stod(got.total) / std::stod(got.lower_bound);
    ++r.quality_n;
  }

  // quality_pct must match the same requests mapped in-process. Batches
  // are bounded so the checker's results do not inflate peak RSS.
  {
    TopologyCache cache;
    MapServiceOptions opts;
    opts.lanes = kLanes;
    opts.pool = pool;
    MapService service(std::move(opts));
    for (std::size_t begin = 0; begin < to_check.size(); begin += kCheckBatch) {
      const std::size_t end = std::min(to_check.size(), begin + kCheckBatch);
      std::vector<MapJob> jobs;
      for (std::size_t k = begin; k < end; ++k) {
        jobs.push_back(in_process_job(to_check[k].second, cache));
      }
      const std::vector<MapJobResult> results = service.map_batch(std::move(jobs));
      for (std::size_t k = begin; k < end; ++k) {
        const MapJobResult& res = results[k - begin];
        const Outcome mine{std::to_string(res.report.total_time()),
                           std::to_string(res.report.lower_bound),
                           std::to_string(res.report.refinement_trials)};
        const std::string& fp = to_check[k].first;
        if (!res.ok() || !(computed.at(fp) == mine)) {
          r.fail("in-process mapping of " + fp + " gives total " + mine.total + ", daemon " +
                 computed.at(fp).total);
        }
      }
    }
  }

  const double shed = field(stats, "shed");
  const double parse_errors = field(stats, "parse-errors");
  std::ostringstream note;
  note << "serve-durable: " << first.size() << " first-session requests, " << timed_n
       << " timed at " << kRate << "/s over " << kConnections << " connections; " << repeats
       << " repeats, " << hits << " cached answers; computed p50 "
       << (computed_latency.empty() ? 0.0 : percentile(computed_latency, 50.0)) << " ms, hit p50 "
       << (hit_latency.empty() ? 0.0 : percentile(hit_latency, 50.0)) << " ms; recover ms";
  for (const double ms : recover_ms) note << " " << ms;
  note << "; journal-recovered " << stats["journal-recovered"] << "; shed " << shed
       << ", parse errors " << parse_errors;
  r.notes.push_back(note.str());

  if (config.trace) {
    // Per-request split from the server's own queue-ms and wall-ms; the
    // remainder of the client latency is server overhead (wire, journal,
    // frames) and is left unattributed.
    for (std::size_t i = 0; i < timed_n; ++i) {
      const auto it = answers.find(tag_of('t', i));
      if (it == answers.end() || it->second.event != "result") continue;
      const Answer& a = it->second;
      const auto id = static_cast<std::int64_t>(i);
      const std::int32_t root = spans.add("harness.request", due[i], a.done_ns, -1, id);
      if (a.kv.count("cached") != 0) continue;
      const auto q = static_cast<std::int64_t>(field(a.kv, "queue-ms") * 1e6);
      const auto w = static_cast<std::int64_t>(field(a.kv, "wall-ms") * 1e6);
      spans.add("service.map_service.queue_wait", a.done_ns - w - q, a.done_ns - w, root, id);
      spans.add("service.server.job", a.done_ns - w, a.done_ns, root, id);
    }
    fold_into_layers(spans, r);

    // Replays of the wire, journal and gen= calls on this run's inputs,
    // untraced and traced in alternation (the difference is the tracing
    // overhead).
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < timed_n; ++i) {
      std::string line = submit_line(tag_of('t', i), timed[i]);
      line.pop_back();
      lines.push_back(std::move(line));
    }
    SpanLog replays(true);
    SpanLog quiet(false);
    double traced_ms = 0.0;
    double untraced_ms = 0.0;
    const std::string journal = dir + "/replay-journal";
    // Round 0 warms caches and is discarded; round 1 runs untraced, round 2 traced.
    for (int round = 0; round < 3; ++round) {
      SpanLog& log = round == 2 ? replays : quiet;
      fs::remove_all(journal);
      Journal wal(journal, FsyncPolicy::kBatch, false);
      const auto t0 = Clock::now();
      const Scoped root(log, "harness.replay");
      for (std::size_t i = 0; i < lines.size(); ++i) {
        const auto id = static_cast<std::int64_t>(i);
        std::optional<WireRequest> req;
        {
          const Scoped span(log, "service.wire.parse", id);
          req.emplace(parse_request(lines[i]));
        }
        std::string fp;
        {
          const Scoped span(log, "service.wire.fingerprint", id);
          fp = request_fingerprint(req->kv);
        }
        if (was_computed[i]) {
          const Scoped span(log, "workload.gen", id);
          (void)generate(req->kv);
        }
        JournalEntry entry;
        entry.jid = static_cast<std::uint64_t>(i + 1);
        entry.id = req->id;
        entry.fingerprint = fp;
        entry.request = lines[i];
        {
          const Scoped span(log, "service.journal.append", id);
          wal.append(encode_entry(entry));
        }
      }
      (round == 2 ? traced_ms : untraced_ms) = ms_between(t0, Clock::now());
    }
    const SpanFold fold = fold_spans(replays.records());
    const double n = static_cast<double>(lines.size());
    r.layers["service.wire.parse_us"] = fold.self("service.wire.parse") * 1e3 / n;
    r.layers["service.wire.fingerprint_us"] = fold.self("service.wire.fingerprint") * 1e3 / n;
    r.layers["service.journal.append_us"] = fold.self("service.journal.append") * 1e3 / n;
    r.layers["workload.gen_ms"] = fold.self("workload.gen");
    r.layers["harness.trace_overhead_pct"] = 100.0 * (traced_ms / untraced_ms - 1.0);
    spans.append(replays);

    r.layers["service.map_service.queue_wait_ms"] = mean(queue_ms);
    r.layers["service.server.job_ms"] = mean(job_ms);
    r.layers["service.server.overhead_ms"] = mean(overhead_ms);
    r.layers["service.server.computed_latency_p50_ms"] =
        computed_latency.empty() ? 0.0 : percentile(computed_latency, 50.0);
    r.layers["service.result_cache.hit_latency_p50_ms"] =
        hit_latency.empty() ? 0.0 : percentile(hit_latency, 50.0);
    r.layers["service.result_cache.hit_ratio"] =
        repeats > 0 ? static_cast<double>(hits) / static_cast<double>(repeats) : 0.0;
    r.layers["service.journal.recover_ms"] = median(recover_ms);
    r.layers["service.journal.recovered_records"] = field(stats, "journal-recovered");
    r.layers["service.journal.appends"] =
        static_cast<double>(metric_value(metrics_after, "mimdmap_journal_appends_total") -
                            metric_value(metrics_before, "mimdmap_journal_appends_total"));
    r.layers["service.journal.fsyncs"] =
        static_cast<double>(metric_value(metrics_after, "mimdmap_journal_fsyncs_total") -
                            metric_value(metrics_before, "mimdmap_journal_fsyncs_total"));
    r.layers["service.server.shed"] = shed;
    r.layers["service.server.parse_errors"] = parse_errors;
  }
  fs::remove_all(dir);
  return r;
}

}  // namespace perfbench
