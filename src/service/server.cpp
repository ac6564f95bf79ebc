#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "cli/manifest.hpp"
#include "cluster/cluster_io.hpp"
#include "cluster/strategies.hpp"
#include "core/eval_engine.hpp"
#include "graph/graph_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topology/factory.hpp"
#include "workload/random_dag.hpp"
#include "workload/structured.hpp"

namespace mimdmap::serve {
namespace {

/// Registry instruments for the wire layer, resolved once. The per-op
/// latency histograms measure handle_request dispatch (parse excluded),
/// i.e. the server-side cost of answering each op.
struct ServerMetrics {
  obs::Counter& frames = obs::registry().counter("mimdmap_server_frames_read_total");
  obs::Counter& parse_errors =
      obs::registry().counter("mimdmap_server_parse_errors_total");
  obs::Counter& accepted = obs::registry().counter("mimdmap_server_accepted_total");
  obs::Counter& terminals =
      obs::registry().counter("mimdmap_server_terminal_frames_total");
  obs::Counter& shed = obs::registry().counter("mimdmap_server_shed_total");
  obs::Counter& disconnect_cancels =
      obs::registry().counter("mimdmap_server_disconnect_cancels_total");
  obs::Counter& connections =
      obs::registry().counter("mimdmap_server_connections_total");
  obs::Histogram& op_submit =
      obs::registry().histogram("mimdmap_wire_request_us", {{"op", "submit"}});
  obs::Histogram& op_cancel =
      obs::registry().histogram("mimdmap_wire_request_us", {{"op", "cancel"}});
  obs::Histogram& op_stats =
      obs::registry().histogram("mimdmap_wire_request_us", {{"op", "stats"}});
  obs::Histogram& op_metrics =
      obs::registry().histogram("mimdmap_wire_request_us", {{"op", "metrics"}});
  obs::Histogram& op_ping =
      obs::registry().histogram("mimdmap_wire_request_us", {{"op", "ping"}});
  obs::Histogram& op_drain =
      obs::registry().histogram("mimdmap_wire_request_us", {{"op", "drain"}});

  obs::Histogram& for_op(RequestOp op) noexcept {
    switch (op) {
      case RequestOp::kSubmit:
        return op_submit;
      case RequestOp::kCancel:
        return op_cancel;
      case RequestOp::kStats:
        return op_stats;
      case RequestOp::kMetrics:
        return op_metrics;
      case RequestOp::kPing:
        return op_ping;
      case RequestOp::kDrain:
        return op_drain;
    }
    return op_ping;
  }
};

ServerMetrics& server_metrics() {
  static ServerMetrics metrics;
  return metrics;
}

TaskGraph build_problem(const std::map<std::string, std::string>& kv) {
  const auto gen_it = kv.find("gen");
  if (gen_it == kv.end()) return task_graph_from_text(cli::read_file(kv.at("problem")));
  const auto a = static_cast<NodeId>(cli::manifest_seed(kv, "gen-a", 4, 0));
  const auto b = static_cast<NodeId>(cli::manifest_seed(kv, "gen-b", 4, 0));
  const std::uint64_t seed = cli::manifest_seed(kv, "gen-seed", 1, 0);
  const StructuredWeights weights{{1, 9}, {1, 9}, seed};
  const std::string& kind = gen_it->second;
  if (kind == "diamond") return make_diamond(a, b, weights);
  if (kind == "fork-join") return make_fork_join(a, b, weights);
  if (kind == "pipeline") return make_pipeline(a, weights);
  LayeredDagParams params;
  params.num_tasks = a;
  params.num_layers = b;
  params.node_weight = weights.node_weight;
  params.edge_weight = weights.edge_weight;
  return make_layered_dag(params, seed);
}

/// Deferred per-job materialization: runs on whichever runner executes the
/// job, so a missing file or malformed graph is that job's
/// invalid_input/internal_error result — never a connection error, never a
/// server crash. Pure function of (kv, cache): the cache returns
/// bit-identical tables for a repeated machine, so determinism of the job
/// result is preserved.
MappingInstance build_instance(const std::map<std::string, std::string>& kv,
                               TopologyCache& topo_cache) {
  TaskGraph problem = build_problem(kv);
  SystemGraph machine = kv.count("system") ? system_graph_from_text(cli::read_file(kv.at("system")))
                                           : make_topology(kv.at("spec"));
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  };
  Clustering clustering =
      kv.count("clustering")
          ? clustering_from_text(cli::read_file(kv.at("clustering")))
          : make_clustering(get("strategy", "block"), problem, machine.node_count(),
                            cli::manifest_seed(kv, "seed", 1, 0));
  const DistanceModel model = cli::manifest_bool(kv, "weighted-links")
                                  ? DistanceModel::kWeightedLinks
                                  : DistanceModel::kHops;
  std::shared_ptr<const TopologyTables> tables = topo_cache.acquire(machine, model);
  return MappingInstance(std::move(problem), std::move(clustering), std::move(machine),
                         std::move(tables));
}

/// WireRequest -> MapJob with the exact engine-option mapping of the batch
/// manifest (same keys, same defaults — one grammar, one semantics).
MapJob make_job(const WireRequest& request, std::uint64_t client_id, CancelToken cancel,
                TopologyCache* topo_cache) {
  MapJob job;
  const auto kv = std::make_shared<const std::map<std::string, std::string>>(request.kv);
  job.build = [kv, topo_cache] { return build_instance(*kv, *topo_cache); };
  job.options.refine.eval.serialize_within_processor = cli::manifest_bool(*kv, "serialize");
  job.options.refine.eval.link_contention = cli::manifest_bool(*kv, "contention");
  job.options.refine.seed =
      cli::manifest_seed(*kv, "refine-seed", 0x9e3779b97f4a7c15ULL, 0);
  job.options.refine.max_trials = static_cast<std::int64_t>(
      cli::manifest_seed(*kv, "trials", static_cast<std::uint64_t>(-1), 0));
  job.options.critical.propagate_through_intra_cluster =
      cli::manifest_bool(*kv, "extended-critical");
  job.options.multilevel.enabled = cli::manifest_bool(*kv, "multilevel");
  job.options.multilevel.coarsen_target =
      static_cast<NodeId>(cli::manifest_seed(*kv, "coarsen-target", 0, 0));
  job.options.multilevel.level_trials = cli::manifest_int(*kv, "level-trials", -1, 0);
  job.random_trials =
      static_cast<std::int64_t>(cli::manifest_seed(*kv, "random-trials", 0, 0));
  job.random_seed = cli::manifest_seed(*kv, "random-seed", 99, 0);
  job.deadline_ms = request.deadline_ms;
  job.cancel = std::move(cancel);
  job.priority = request.priority;
  job.size_hint = request.size_hint;
  job.client_id = client_id;
  return job;
}

}  // namespace

/// One client. The mutex guards every field below it AND every byte
/// written to write_fd — frames from the reader (accepted, error,
/// overloaded, pong, stats) and from runner threads (result) interleave
/// whole-frame, never mid-line. Closing/teardown also happens under it, so
/// no write can race a close onto a recycled fd number.
struct MapServer::Connection {
  std::uint64_t client_id = 0;
  /// Chained under every job this connection submits: tripping it (peer
  /// vanished, drain kCancel) cancels them all wherever they are.
  CancelSource cancel;

  std::mutex mutex;
  int read_fd = -1;
  int write_fd = -1;
  bool owns_fd = false;  // accepted socket: closed by the server side
  /// Peer unreachable (write failed / reader saw EOF) — all further
  /// writes are dropped. Terminal frames are still COUNTED for the
  /// invariant; they just have nowhere to go.
  bool dead = false;
  bool abandoned = false;   // disconnect cancellation already ran
  bool bye_sent = false;    // drain teardown said goodbye; reader exits
  std::uint64_t auto_tag = 0;
  std::uint64_t accepted = 0;
  std::uint64_t terminals = 0;
  /// Live jobs: tag -> service id. Entries leave in deliver_result.
  std::unordered_map<std::string, MapService::JobId> jobs;

  /// Writes one complete frame; false = peer gone (and dead is latched).
  /// send() with MSG_NOSIGNAL on sockets; plain write() for pipes, where
  /// the CLI ignores SIGPIPE.
  bool write_frame_locked(const std::string& frame) {
    if (dead || write_fd < 0) return false;
    const char* p = frame.data();
    std::size_t left = frame.size();
    while (left > 0) {
      ssize_t n = ::send(write_fd, p, left, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) n = ::write(write_fd, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        dead = true;
        return false;
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
    return true;
  }

  bool write_frame(const std::string& frame) {
    std::lock_guard<std::mutex> lock(mutex);
    return write_frame_locked(frame);
  }

  void close_fds_locked() {
    if (owns_fd && read_fd >= 0) ::close(read_fd);
    read_fd = -1;
    write_fd = -1;
    dead = true;
  }
};

MapServer::MapServer(ServerOptions options)
    : options_(std::move(options)), cache_(options_.cache_bytes) {
  MapServiceOptions service_options = options_.service;
  // The accept loop must never block on a full queue: shed instead. A
  // daemon without an explicit bound still gets one — unbounded admission
  // would turn overload into unbounded memory, the opposite of shedding.
  service_options.admission = AdmissionPolicy::kReject;
  if (service_options.max_queue == 0) service_options.max_queue = 256;
  service_ = std::make_unique<MapService>(std::move(service_options));
  if (!options_.journal_dir.empty()) {
    // Throws JournalError on a corrupt non-tail record unless
    // options_.journal_repair truncates it — refusing to start beats
    // silently serving with holes in the durability story.
    journal_ = std::make_unique<Journal>(options_.journal_dir, options_.journal_fsync,
                                         options_.journal_repair);
    recover_from_journal();
  }
}

MapServer::~MapServer() {
  request_drain(DrainMode::kCancel);
  wait();
  if (drainer_.joinable()) drainer_.join();
}

void MapServer::listen_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("unusable socket path '" + socket_path + "'");
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(): ") + std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());  // stale socket from a crashed daemon
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("bind(" + socket_path + "): " + std::strerror(saved));
  }
  if (::listen(fd, 64) != 0) {
    const int saved = errno;
    ::close(fd);
    throw std::runtime_error("listen(" + socket_path + "): " + std::strerror(saved));
  }
  listen_fd_ = fd;
  socket_path_ = socket_path;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    threads_.emplace_back([this] { accept_main(); });
  }
  log_line("listening on " + socket_path);
}

void MapServer::accept_main() {
  // Poll with a short timeout instead of blocking in accept(): the drain
  // flag is observed within ~100ms without signals or self-pipes.
  while (!draining_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN) continue;
      break;
    }
    auto conn = std::make_shared<Connection>();
    conn->read_fd = fd;
    conn->write_fd = fd;
    conn->owns_fd = true;
    if (!register_connection(conn, /*spawn_reader=*/true)) {
      // Drain raced the accept: one answer, never served.
      const std::string frame = overloaded_frame("-", -1);
      (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      ::close(fd);
      break;
    }
    log_line("client " + std::to_string(conn->client_id) + " connected");
  }
}

void MapServer::serve_fd(int read_fd, int write_fd) {
  auto conn = std::make_shared<Connection>();
  conn->read_fd = read_fd;
  conn->write_fd = write_fd;
  if (!register_connection(conn, /*spawn_reader=*/false)) {
    // Drain began first: the session ends as a drained one would.
    (void)conn->write_frame(bye_frame(0, 0));
    return;
  }
  log_line("client " + std::to_string(conn->client_id) + " connected (fd pair)");
  connection_main(conn);
}

bool MapServer::register_connection(const std::shared_ptr<Connection>& conn, bool spawn_reader) {
  // drain_main snapshots connections_ (and threads_) under mutex_, and
  // draining_ is set before the drainer starts. Checking it under the
  // same lock means a connection is either in the snapshot, and gets its
  // bye, or turned away here; never left polling after the drain.
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_.load(std::memory_order_acquire)) return false;
  conn->client_id = next_client_id_++;
  connections_.push_back(conn);
  ++stats_.connections_opened;
  server_metrics().connections.inc();
  if (spawn_reader) threads_.emplace_back([this, conn] { connection_main(conn); });
  return true;
}

void MapServer::connection_main(const std::shared_ptr<Connection>& conn) {
  FrameReader reader(options_.max_line_bytes);
  char buf[4096];
  bool drain_exit = false;
  bool half_close = false;  // pipe pair: EOF on input is not a disconnect
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    half_close = conn->read_fd != conn->write_fd;
  }
  while (true) {
    int read_fd = -1;
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      if (conn->bye_sent) {
        // Teardown already flushed the last result and said bye — this is
        // a drain exit, NOT a disconnect: the client's jobs (there are
        // none left) must not be cancelled and teardown owns the fd.
        drain_exit = true;
        break;
      }
      if (conn->dead) break;  // writes failed: the peer is gone
      read_fd = conn->read_fd;
    }
    pollfd pfd{};
    pfd.fd = read_fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) continue;
    if ((pfd.revents & POLLNVAL) != 0) break;
    const ssize_t n = ::read(read_fd, buf, sizeof(buf));
    if (n == 0) {
      // EOF. On a duplex socket the peer is gone — disconnect path below.
      // On a distinct read/write pair (stdio) a closed stdin only means
      // "no more requests": live jobs must still flush their results out
      // the write side, so the reader retires WITHOUT abandoning and the
      // caller (cmd_serve) drains.
      if (half_close) {
        if (const std::optional<FrameReader::Line> last = reader.finish()) {
          handle_line(conn, *last);
        }
        drain_exit = true;
        log_line("client " + std::to_string(conn->client_id) +
                 " input closed (write side stays open for results)");
      }
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (const FrameReader::Line& line : reader.feed(buf, static_cast<std::size_t>(n))) {
      handle_line(conn, line);
    }
  }
  if (!drain_exit) {
    // Disconnect: a truncated trailing frame must not execute half a
    // request — it is reported (to a peer that likely can't hear) and
    // dropped; then every live job of this client is cancelled.
    if (const std::optional<FrameReader::Line> last = reader.finish()) {
      handle_line(conn, *last);
    }
    abandon_connection(conn);
    {
      std::lock_guard<std::mutex> lock(conn->mutex);
      conn->close_fds_locked();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.connections_closed;
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [&](const std::shared_ptr<Connection>& c) { return c == conn; }),
          connections_.end());
    }
    drain_cv_.notify_all();
  }
  log_line("client " + std::to_string(conn->client_id) +
           (drain_exit ? " released (drain)" : " disconnected"));
}

void MapServer::handle_line(const std::shared_ptr<Connection>& conn,
                            const FrameReader::Line& line) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.frames_read;
  }
  server_metrics().frames.inc();
  if (!line.ok()) {
    const char* reason = line.overflow  ? "line exceeds the frame byte cap"
                         : line.reject ? "frame contains NUL bytes"
                                       : "truncated frame at end of stream";
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.parse_errors;
    }
    server_metrics().parse_errors.inc();
    conn->write_frame(error_frame("", reason));
    return;
  }
  // Blank lines and #-comments are free (humans drive this over nc/socat).
  const std::size_t first = line.text.find_first_not_of(" \t");
  if (first == std::string::npos || line.text[first] == '#') return;
  handle_request(conn, line.text);
}

void MapServer::handle_request(const std::shared_ptr<Connection>& conn,
                               const std::string& line) {
  WireRequest request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.parse_errors;
    }
    server_metrics().parse_errors.inc();
    // Best effort: echo the id when one survives tokenization, so the
    // client can match the reject to its request.
    std::string id;
    try {
      const auto kv = cli::parse_manifest_line(line, 0);
      const auto it = kv.find("id");
      if (it != kv.end()) id = escape(it->second);
    } catch (...) {
    }
    conn->write_frame(error_frame(id, e.what()));
    return;
  }

  // Per-op wire latency: dispatch cost of a validated request (submit
  // measures admission + accepted-frame, not job execution).
  const auto op_t0 = std::chrono::steady_clock::now();
  const auto record_op = [&] {
    server_metrics().for_op(request.op).record(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - op_t0)
            .count());
  };
  switch (request.op) {
    case RequestOp::kSubmit:
      submit_request(conn, std::move(request), line);
      record_op();
      return;
    case RequestOp::kCancel: {
      MapService::JobId job_id = 0;
      bool known = false;
      {
        std::lock_guard<std::mutex> lock(conn->mutex);
        const auto it = conn->jobs.find(request.id);
        if (it != conn->jobs.end()) {
          known = true;
          job_id = it->second;
        }
      }
      if (!known) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.parse_errors;
      }
      if (known) {
        // No ack frame: the job's terminal result (status=cancelled, or
        // whatever beat the cancel) IS the answer — anything else would
        // break exactly-one-terminal-frame. Runs outside the connection
        // lock because a queued job delivers synchronously through
        // on_done, which takes it.
        (void)service_->cancel(job_id);
      } else {
        conn->write_frame(error_frame(request.id, "unknown or already finished job id"));
      }
      record_op();
      return;
    }
    case RequestOp::kStats:
      conn->write_frame(build_stats_frame());
      record_op();
      return;
    case RequestOp::kMetrics:
      conn->write_frame(metrics_frame(obs::registry().render_prometheus()));
      record_op();
      return;
    case RequestOp::kPing:
      conn->write_frame(pong_frame());
      record_op();
      return;
    case RequestOp::kDrain:
      conn->write_frame(draining_frame());
      request_drain(request.drain_finish ? DrainMode::kFinish : DrainMode::kCancel);
      record_op();
      return;
  }
}

void MapServer::submit_request(const std::shared_ptr<Connection>& conn,
                               WireRequest&& request, const std::string& raw_line) {
  // The fingerprint (which may hash problem files) is computed before any
  // lock — it is pure input work, and only when durability wants it.
  JobTicket ticket;
  if (durable()) ticket.fingerprint = request_fingerprint(request.kv);

  MapJob job = make_job(request, conn->client_id, conn->cancel.token(),
                        &service_->topology_cache());

  // The lock is held across the admission call AND the accepted frame so
  // no runner can slip a result frame in between (on_done takes this
  // lock). Holding a lock over submit is safe precisely because admission
  // is kReject: it never blocks. Lock order: connection -> service.
  std::unique_lock<std::mutex> lock(conn->mutex);
  const std::string tag =
      request.id.empty() ? "j" + std::to_string(++conn->auto_tag) : request.id;
  if (conn->jobs.count(tag) != 0) {
    {
      std::lock_guard<std::mutex> slock(mutex_);
      ++stats_.parse_errors;
    }
    server_metrics().parse_errors.inc();
    conn->write_frame_locked(error_frame(tag, "duplicate job id"));
    return;
  }
  job.name = tag;

  // Order matters: outstanding is raised BEFORE the drain check, and
  // wait() reads it AFTER raising the drain flag (both seq_cst). Either
  // this submit sees the flag and sheds, or wait() sees the job and waits
  // for its terminal frame — an accepted job can never slip past teardown.
  outstanding_.fetch_add(1);
  if (draining_.load()) {
    {
      std::lock_guard<std::mutex> slock(mutex_);
      ++stats_.shed;
    }
    server_metrics().shed.inc();
    conn->write_frame_locked(overloaded_frame(tag, -1));
    retire_outstanding();
    return;
  }

  // Idempotent repeat: an identical fingerprint with a cached ok result is
  // answered accepted + cached=1 result immediately — the pool, the queue
  // and the scheduler are never touched. Both frames ride the same lock
  // hold, so nothing can interleave between promise and redemption.
  if (!ticket.fingerprint.empty()) {
    if (const std::optional<CachedResult> hit = cache_.lookup(ticket.fingerprint)) {
      ticket.jid = next_jid_.fetch_add(1);
      ResultFrame frame;
      frame.id = tag;
      frame.status = hit->status;
      frame.total = hit->total;
      frame.lower_bound = hit->lower_bound;
      frame.pct = hit->pct;
      frame.trials = hit->trials;
      frame.lanes = hit->lanes;
      frame.fingerprint = ticket.fingerprint;
      frame.cached = true;
      if (journal_) {
        // Uniform WAL discipline even for hits: accepted before the
        // accepted frame, result right behind it — a crash between the
        // two replays into another cache hit.
        JournalEntry acc;
        acc.kind = JournalEntry::Kind::kAccepted;
        acc.jid = ticket.jid;
        acc.id = tag;
        acc.fingerprint = ticket.fingerprint;
        acc.client = conn->client_id;
        acc.request = raw_line;
        try {
          std::lock_guard<std::mutex> jlock(journal_mutex_);
          journal_->append(encode_entry(acc));
          ++journal_pending_;
          journal_result_locked(ticket, frame, /*cached=*/true);
        } catch (const std::exception& e) {
          log_line(std::string("journal append failed (serving anyway): ") + e.what());
        }
      }
      ++conn->accepted;
      ++conn->terminals;
      {
        std::lock_guard<std::mutex> slock(mutex_);
        ++stats_.accepted;
        ++stats_.terminal_frames;
        ++stats_.cached_results;
      }
      server_metrics().accepted.inc();
      server_metrics().terminals.inc();
      (void)conn->write_frame_locked(accepted_frame(
          tag, ticket.jid, service_->stats().queue_depth, ticket.fingerprint));
      (void)conn->write_frame_locked(result_frame(frame));
      retire_outstanding();
      return;
    }
  }

  MapService::JobId job_id = 0;
  try {
    std::shared_ptr<Connection> self = conn;
    std::string tag_copy = tag;
    if (journal_) ticket.jid = next_jid_.fetch_add(1);
    (void)service_->submit(std::move(job), &job_id,
                           [this, self = std::move(self), tag_copy = std::move(tag_copy),
                            ticket](const MapJobResult& result) {
                             deliver_result(self, tag_copy, ticket, result);
                           });
  } catch (const AdmissionRejectedError&) {
    {
      std::lock_guard<std::mutex> slock(mutex_);
      ++stats_.shed;
    }
    server_metrics().shed.inc();
    // Deterministic per-client jitter: synchronized clients shed in the
    // same overload event back off at spread-out times instead of
    // re-stampeding in lockstep (the hint itself is backlog-global).
    conn->write_frame_locked(overloaded_frame(
        tag, jittered_retry_ms(retry_hint_ms(), conn->client_id, options_.min_retry_ms,
                               options_.max_retry_ms)));
    retire_outstanding();
    return;
  } catch (const std::exception& e) {
    // Submitter-contract violations (no instance/builder) can't happen —
    // make_job always sets build — but captured anyway: one error frame,
    // the connection lives.
    {
      std::lock_guard<std::mutex> slock(mutex_);
      ++stats_.parse_errors;
    }
    server_metrics().parse_errors.inc();
    conn->write_frame_locked(error_frame(tag, e.what()));
    retire_outstanding();
    return;
  }

  if (journal_) {
    // WAL: the accepted record is durable (per policy) BEFORE the client
    // sees event=accepted. The job may already be running, but its
    // on_done blocks on conn->mutex (held here), so the result record
    // cannot precede this accepted record in the journal.
    JournalEntry acc;
    acc.kind = JournalEntry::Kind::kAccepted;
    acc.jid = ticket.jid;
    acc.id = tag;
    acc.fingerprint = ticket.fingerprint;
    acc.client = conn->client_id;
    acc.request = raw_line;
    try {
      std::lock_guard<std::mutex> jlock(journal_mutex_);
      journal_->append(encode_entry(acc));
      ++journal_pending_;
    } catch (const std::exception& e) {
      log_line(std::string("journal append failed (serving anyway): ") + e.what());
      ticket.jid = 0;  // its result record would dangle; skip it too
    }
  }

  conn->jobs.emplace(tag, job_id);
  ++conn->accepted;
  {
    std::lock_guard<std::mutex> slock(mutex_);
    ++stats_.accepted;
  }
  server_metrics().accepted.inc();
  conn->write_frame_locked(
      accepted_frame(tag, job_id, service_->stats().queue_depth, ticket.fingerprint));
}

void MapServer::deliver_result(const std::shared_ptr<Connection>& conn,
                               const std::string& tag, const JobTicket& ticket,
                               const MapJobResult& result) {
  note_wall_ms(result.wall_ms);
  ResultFrame frame;
  frame.id = ticket.display_id.empty() ? tag : ticket.display_id;
  frame.status = to_string(result.status);
  frame.total = result.report.total_time();
  frame.lower_bound = result.report.lower_bound;
  frame.pct = result.report.percent_over_lower_bound();
  frame.trials = result.report.refinement_trials;
  frame.wall_ms = result.wall_ms;
  frame.queue_ms = result.queue_ms;
  frame.lanes = result.lanes;
  frame.error = result.error;
  frame.fingerprint = ticket.fingerprint;
  frame.replayed = ticket.replayed;

  // Fill the cache before the frame goes out: a client retrying the same
  // fingerprint right after this result hits. Only clean ok results are
  // idempotent (degraded/cancelled/error outcomes must re-run).
  if (cache_.enabled() && !ticket.fingerprint.empty() &&
      result.status == MapStatus::kOk && result.error.empty()) {
    CachedResult entry;
    entry.status = frame.status;
    entry.total = frame.total;
    entry.lower_bound = frame.lower_bound;
    entry.pct = frame.pct;
    entry.trials = frame.trials;
    entry.lanes = frame.lanes;
    cache_.insert(ticket.fingerprint, entry);
  }
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    conn->jobs.erase(tag);
    ++conn->terminals;
    if (journal_ && ticket.jid != 0) {
      try {
        std::lock_guard<std::mutex> jlock(journal_mutex_);
        journal_result_locked(ticket, frame, /*cached=*/false);
      } catch (const std::exception& e) {
        log_line(std::string("journal append failed (delivering anyway): ") + e.what());
      }
    }
    (void)conn->write_frame_locked(result_frame(frame));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.terminal_frames;
    if (ticket.replayed) ++stats_.replayed;
  }
  server_metrics().terminals.inc();
  retire_outstanding();
}

void MapServer::retire_outstanding() {
  // Under mutex_, the lock drain_main evaluates its predicate under: the
  // decrement cannot slip between that check and the wait (a lost
  // wakeup), and drain_main — hence ~MapServer — cannot get past its wait
  // while this thread is still inside notify_all.
  std::lock_guard<std::mutex> lock(mutex_);
  outstanding_.fetch_sub(1);
  drain_cv_.notify_all();
}

void MapServer::journal_result_locked(const JobTicket& ticket, const ResultFrame& frame,
                                      bool cached) {
  JournalEntry rec;
  rec.kind = JournalEntry::Kind::kResult;
  rec.jid = ticket.jid;
  rec.id = frame.id;
  rec.fingerprint = ticket.fingerprint;
  rec.status = frame.status;
  rec.total = frame.total;
  rec.lower_bound = frame.lower_bound;
  rec.pct = frame.pct;
  rec.trials = frame.trials;
  rec.wall_ms = frame.wall_ms;
  rec.lanes = frame.lanes;
  rec.error = frame.error;
  rec.replayed = ticket.replayed;
  rec.cached = cached;
  journal_->append(encode_entry(rec));
  if (journal_pending_ > 0) --journal_pending_;
  maybe_compact_locked();
}

void MapServer::maybe_compact_locked() {
  if (journal_pending_ != 0) return;  // an accepted record would be dropped
  if (journal_->bytes() < options_.journal_rotate_bytes) return;
  // Live state worth carrying across the rotation: the cache contents as
  // jid=0 result records, so the next recovery warm-loads the same cache.
  std::vector<std::string> live;
  for (const auto& [fingerprint, cached] : cache_.snapshot()) {
    JournalEntry rec;
    rec.kind = JournalEntry::Kind::kResult;
    rec.jid = 0;
    rec.fingerprint = fingerprint;
    rec.status = cached.status;
    rec.total = cached.total;
    rec.lower_bound = cached.lower_bound;
    rec.pct = cached.pct;
    rec.trials = cached.trials;
    rec.lanes = cached.lanes;
    live.push_back(encode_entry(rec));
  }
  journal_->compact(live);
  log_line("journal compacted (" + std::to_string(live.size()) + " live records)");
}

void MapServer::recover_from_journal() {
  obs::Span span("journal_recover", "serve", "records",
                 static_cast<std::int64_t>(journal_->recovered().size()));

  // One pass over the recovered payloads: pair accepted records with their
  // terminal records by jid, warm the cache from every clean ok result
  // (including jid=0 compaction snapshots), and keep the unfinished
  // accepted records in journal order for replay.
  std::vector<JournalEntry> accepted;
  std::unordered_map<std::uint64_t, std::size_t> accepted_by_jid;
  std::unordered_map<std::uint64_t, bool> done;
  std::uint64_t max_jid = 0;
  std::uint64_t undecodable = 0;
  for (const std::string& payload : journal_->recovered()) {
    const std::optional<JournalEntry> entry = decode_entry(payload);
    if (!entry) {
      ++undecodable;
      continue;
    }
    max_jid = std::max(max_jid, entry->jid);
    if (entry->kind == JournalEntry::Kind::kAccepted) {
      // First record wins: a duplicate jid (hand-edited or replayed
      // journal) must not double-submit the job.
      if (accepted_by_jid.emplace(entry->jid, accepted.size()).second) {
        accepted.push_back(*entry);
      }
    } else {
      if (entry->jid != 0) done[entry->jid] = true;
      if (cache_.enabled() && !entry->fingerprint.empty() && entry->status == "ok" &&
          entry->error.empty()) {
        CachedResult warm;
        warm.status = entry->status;
        warm.total = entry->total;
        warm.lower_bound = entry->lower_bound;
        warm.pct = entry->pct;
        warm.trials = entry->trials;
        warm.lanes = entry->lanes;
        cache_.insert(entry->fingerprint, warm);
      }
    }
  }
  next_jid_.store(max_jid + 1);

  std::vector<const JournalEntry*> todo;
  for (const JournalEntry& entry : accepted) {
    if (done.count(entry.jid) == 0) todo.push_back(&entry);
  }
  {
    std::lock_guard<std::mutex> jlock(journal_mutex_);
    journal_pending_ = static_cast<std::int64_t>(todo.size());
  }
  if (undecodable > 0) {
    log_line("journal recovery: skipped " + std::to_string(undecodable) +
             " undecodable record(s)");
  }
  if (todo.empty()) {
    if (!journal_->recovered().empty()) {
      log_line("journal recovery: all " + std::to_string(accepted.size()) +
               " journaled job(s) already terminal");
    }
    return;
  }

  // Replayed jobs belong to a synthetic connection whose peer is gone by
  // definition: frames are counted for the exactly-one-terminal-frame
  // invariant but written nowhere, and drain teardown accounts for it like
  // any other connection.
  recovery_conn_ = std::make_shared<Connection>();
  recovery_conn_->client_id = 0;
  recovery_conn_->dead = true;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections_.push_back(recovery_conn_);
    ++stats_.connections_opened;
  }
  server_metrics().connections.inc();
  log_line("journal recovery: replaying " + std::to_string(todo.size()) +
           " unfinished job(s)");
  for (const JournalEntry* entry : todo) replay_entry(*entry);
}

void MapServer::replay_entry(const JournalEntry& entry) {
  JobTicket ticket;
  ticket.fingerprint = entry.fingerprint;
  ticket.jid = entry.jid;
  ticket.replayed = true;
  ticket.display_id = entry.id;
  // Unique internal tag: two clients may have used the same tag ("j1" is
  // every auto-tagged client's first job). The terminal frame still shows
  // the original tag via display_id.
  const std::string tag = "recover-" + std::to_string(entry.jid);

  const auto fail_inline = [&](const std::string& reason) {
    // The journaled request can no longer run (unparsable after a repair,
    // or admission rejected with no inline fallback). Close its promise
    // with a synthetic internal_error terminal record — the invariant is
    // one terminal per accepted, not one success.
    ResultFrame frame;
    frame.id = ticket.display_id;
    frame.status = "internal_error";
    frame.fingerprint = ticket.fingerprint;
    frame.replayed = true;
    frame.error = reason;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.accepted;
      ++stats_.terminal_frames;
      ++stats_.replayed;
    }
    server_metrics().accepted.inc();
    server_metrics().terminals.inc();
    try {
      std::lock_guard<std::mutex> jlock(journal_mutex_);
      journal_result_locked(ticket, frame, /*cached=*/false);
    } catch (const std::exception& e) {
      log_line(std::string("journal append failed during recovery: ") + e.what());
    }
    log_line("journal recovery: jid " + std::to_string(entry.jid) +
             " closed with internal_error (" + reason + ")");
  };

  WireRequest request;
  try {
    request = parse_request(entry.request);
  } catch (const std::exception& e) {
    fail_inline(std::string("journaled request no longer parses: ") + e.what());
    return;
  }

  // Cache hit during replay: redeem the journaled promise from the cache
  // (an identical-fingerprint job completed before the crash, or the warm
  // load above already has the answer). No pool work, no frame to a peer —
  // just the terminal record that closes the jid.
  if (const std::optional<CachedResult> hit = cache_.lookup(ticket.fingerprint)) {
    ResultFrame frame;
    frame.id = ticket.display_id;
    frame.status = hit->status;
    frame.total = hit->total;
    frame.lower_bound = hit->lower_bound;
    frame.pct = hit->pct;
    frame.trials = hit->trials;
    frame.lanes = hit->lanes;
    frame.fingerprint = ticket.fingerprint;
    frame.cached = true;
    frame.replayed = true;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.accepted;
      ++stats_.terminal_frames;
      ++stats_.replayed;
      ++stats_.cached_results;
    }
    server_metrics().accepted.inc();
    server_metrics().terminals.inc();
    try {
      std::lock_guard<std::mutex> jlock(journal_mutex_);
      journal_result_locked(ticket, frame, /*cached=*/true);
    } catch (const std::exception& e) {
      log_line(std::string("journal append failed during recovery: ") + e.what());
    }
    return;
  }

  MapJob job = make_job(request, /*client_id=*/0, recovery_conn_->cancel.token(),
                        &service_->topology_cache());
  job.name = tag;
  outstanding_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.accepted;
  }
  server_metrics().accepted.inc();
  std::shared_ptr<Connection> self = recovery_conn_;
  try {
    MapService::JobId job_id = 0;
    (void)service_->submit(std::move(job), &job_id,
                           [this, self, tag, ticket](const MapJobResult& result) {
                             deliver_result(self, tag, ticket, result);
                           });
    std::lock_guard<std::mutex> lock(recovery_conn_->mutex);
    recovery_conn_->jobs.emplace(tag, job_id);
    ++recovery_conn_->accepted;
  } catch (const AdmissionRejectedError&) {
    // A crash backlog larger than the admission queue must still drain:
    // run the job inline on this (startup) thread instead of dropping it.
    MapJob inline_job = make_job(request, /*client_id=*/0, recovery_conn_->cancel.token(),
                                 &service_->topology_cache());
    inline_job.name = tag;
    {
      std::lock_guard<std::mutex> lock(recovery_conn_->mutex);
      ++recovery_conn_->accepted;
    }
    const MapJobResult result = run_map_job(inline_job, service_->pool(),
                                            service_->lane_budget(),
                                            &service_->topology_cache());
    deliver_result(recovery_conn_, tag, ticket, result);
  } catch (const std::exception& e) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --stats_.accepted;
    }
    fail_inline(std::string("replay submit failed: ") + e.what());
    retire_outstanding();
  }
}

void MapServer::abandon_connection(const std::shared_ptr<Connection>& conn) {
  std::vector<MapService::JobId> live;
  {
    std::lock_guard<std::mutex> lock(conn->mutex);
    if (conn->abandoned) return;
    conn->abandoned = true;
    conn->dead = true;  // nothing written to a vanished peer
    live.reserve(conn->jobs.size());
    for (const auto& [tag, id] : conn->jobs) live.push_back(id);
  }
  std::size_t cancelled = 0;
  if (!live.empty()) {
    // Trip the connection source first (running jobs observe it at their
    // next poll), then drain the queued ones — each still produces its
    // one terminal frame, counted against a peer that left.
    conn->cancel.request_cancel();
    for (const MapService::JobId id : live) {
      if (service_->cancel(id)) ++cancelled;
    }
  }
  if (cancelled > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.disconnect_cancels += cancelled;
    }
    server_metrics().disconnect_cancels.add(cancelled);
  }
  service_->forget_client(conn->client_id);
}

void MapServer::request_drain(DrainMode mode) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  drain_cancel_.store(mode == DrainMode::kCancel);
  log_line(mode == DrainMode::kCancel ? "drain requested (cancel in-flight)"
                                      : "drain requested (finish in-flight)");
  if (mode == DrainMode::kCancel) {
    std::vector<std::shared_ptr<Connection>> snapshot;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      snapshot = connections_;
    }
    for (const std::shared_ptr<Connection>& conn : snapshot) conn->cancel.request_cancel();
    (void)service_->cancel_all();
  }
  // The winning caller owns spawning the drainer — possibly from a reader
  // thread (op=drain): the drainer later joins that reader, never itself.
  drainer_ = std::thread([this] { drain_main(); });
  drain_cv_.notify_all();
}

void MapServer::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return drained_; });
}

void MapServer::drain_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [this] { return outstanding_.load() == 0; });
  std::vector<std::shared_ptr<Connection>> conns = connections_;
  connections_.clear();
  std::vector<std::thread> threads = std::move(threads_);
  threads_.clear();
  stats_.connections_closed += conns.size();
  lock.unlock();

  // Goodbyes go out while readers may still be polling; bye_sent makes
  // them exit (within one poll tick) without the disconnect path, so no
  // spurious cancellation and no frame after bye.
  for (const std::shared_ptr<Connection>& conn : conns) {
    std::lock_guard<std::mutex> clock(conn->mutex);
    (void)conn->write_frame_locked(bye_frame(conn->accepted, conn->terminals));
    conn->bye_sent = true;
    conn->dead = true;
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  for (const std::shared_ptr<Connection>& conn : conns) {
    std::lock_guard<std::mutex> clock(conn->mutex);
    conn->close_fds_locked();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
  }
  log_line("drain complete");
  {
    std::lock_guard<std::mutex> relock(mutex_);
    drained_ = true;
  }
  drain_cv_.notify_all();
}

ServerStats MapServer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::int64_t MapServer::retry_hint_ms() const {
  const ServiceStats s = service_->stats();
  const std::int64_t wall_ms =
      std::max<std::int64_t>(1, ewma_wall_us_.load(std::memory_order_relaxed) / 1000);
  const int runners = std::max(1, service_->max_concurrent_jobs());
  const auto backlog = static_cast<std::int64_t>(s.queue_depth) + s.active;
  const std::int64_t hint = backlog * wall_ms / runners;
  return std::clamp(hint, options_.min_retry_ms, options_.max_retry_ms);
}

void MapServer::note_wall_ms(double wall_ms) {
  const auto us = static_cast<std::int64_t>(wall_ms * 1000.0);
  // Lossy under concurrent updates by design — the EWMA feeds an advisory
  // backoff hint, not a correctness decision.
  const std::int64_t prev = ewma_wall_us_.load(std::memory_order_relaxed);
  const std::int64_t next = prev == 0 ? us : (prev * 7 + us) / 8;
  ewma_wall_us_.store(next, std::memory_order_relaxed);
}

std::string MapServer::build_stats_frame() const {
  const ServiceStats s = service_->stats();
  ServerStats server;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    server = stats_;
  }
  std::vector<std::pair<std::string, std::string>> fields;
  const auto add = [&fields](const char* key, auto value) {
    fields.emplace_back(key, std::to_string(value));
  };
  add("connections", server.connections_opened - server.connections_closed);
  add("accepted", server.accepted);
  add("results", server.terminal_frames);
  add("outstanding", outstanding_.load());
  add("shed", server.shed);
  add("parse-errors", server.parse_errors);
  add("disconnect-cancels", server.disconnect_cancels);
  add("queue-depth", s.queue_depth);
  add("queued-size", s.queued_size_hint);
  add("active", s.active);
  add("service-submitted", s.submitted);
  add("service-completed", s.completed);
  add("service-shed", s.shed);
  add("cancelled-queued", s.cancelled_queued);
  add("topo-hits", service_->topology_cache().hits());
  add("topo-misses", service_->topology_cache().misses());
  add("pool-lanes", service_->pool()->lane_limit());
  add("replayed", server.replayed);
  add("cached-results", server.cached_results);
  if (cache_.enabled()) {
    const ResultCacheStats c = cache_.stats();
    add("cache-hits", c.hits);
    add("cache-misses", c.misses);
    add("cache-evictions", c.evictions);
    add("cache-entries", c.entries);
    add("cache-bytes", c.bytes);
  }
  if (journal_) {
    const JournalStats j = journal_->stats();
    std::int64_t pending = 0;
    {
      std::lock_guard<std::mutex> jlock(journal_mutex_);
      pending = journal_pending_;
    }
    add("journal-pending", pending);
    add("journal-appends", j.appends);
    add("journal-recovered", j.recovered_records);
    add("journal-rotations", j.rotations);
    add("journal-bytes", journal_->bytes());
  }
  for (const ServiceStats::PriorityLane& lane : s.priorities) {
    const std::string prefix = "prio" + std::to_string(lane.priority);
    fields.emplace_back(prefix + "-started", std::to_string(lane.started));
    const double avg = lane.started > 0 ? lane.total_wait_ms / static_cast<double>(lane.started)
                                        : 0.0;
    std::ostringstream wait;
    wait << avg << "/" << lane.max_wait_ms;
    fields.emplace_back(prefix + "-wait-ms", wait.str());
  }
  for (const ServiceStats::ClientGauge& client : s.clients) {
    fields.emplace_back("client" + std::to_string(client.client_id) + "-inflight",
                        std::to_string(client.inflight));
  }
  return stats_frame(fields);
}

void MapServer::log_line(const std::string& text) const {
  if (options_.log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mutex_);
  *options_.log << "serve: " << text << "\n";
  options_.log->flush();
}

}  // namespace mimdmap::serve
