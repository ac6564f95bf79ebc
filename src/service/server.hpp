// MapServer: the crash-safe streaming mapping daemon (`mimdmap_cli serve`).
//
// A long-lived front-end over one warm process-wide MapService: any number
// of concurrent clients connect over a Unix-domain socket (or a single
// stdin/stdout pipe), stream newline-framed key=value job requests
// (service/wire.hpp) and receive per-job status/result frames back. All
// jobs share the service's ThreadPool and TopologyCache — the daemon stays
// warm across requests, which is the entire point.
//
// Robustness contract (DESIGN.md section 16; chaos-tested under
// MIMDMAP_FAULT storms and TSan):
//
//  * EXACTLY ONE terminal frame per accepted job. `event=accepted` is the
//    promise; `event=result` (status ok / cancelled / deadline_exceeded /
//    invalid_input / internal_error) is the one redemption. Requests that
//    are never accepted get exactly one non-accept answer instead
//    (`event=error` for protocol violations, `event=overloaded` for shed
//    load) — nothing is ever silently dropped, nothing answered twice.
//  * malformed input never kills the server: oversized lines, NUL bytes,
//    truncated frames and unparsable requests each cost one `event=error`
//    and the connection keeps serving. File/graph resolution runs inside
//    the job (deferred build), so a bad problem file is that job's
//    invalid_input result, not a connection error.
//  * overload is shed, not queued to death: admission runs the service's
//    bounded queue under AdmissionPolicy::kReject; rejected submits answer
//    `event=overloaded` with an advisory retry-ms backoff hint scaled to
//    the current backlog. The accept loop never blocks on a full queue.
//  * a dropped connection cancels its jobs: the per-connection
//    CancelSource is chained under every job the connection submitted, so
//    EOF/write failure trips them all (queued ones drain, running ones
//    stop within one evaluation wave) and the client's fairness state is
//    forgotten.
//  * graceful drain: request_drain() (SIGTERM/SIGINT in the CLI, or an
//    op=drain frame) stops accepting connections and submits, finishes or
//    cancels in-flight work per DrainMode, flushes every pending terminal
//    frame, says `event=bye` on each live connection and only then closes.
//    wait() returns with zero lost results.
//
// Threading: one accept thread (socket mode), one reader thread per
// connection, result frames written by whichever runner completes the job
// (MapService submit on_done) under a per-connection write mutex. Lock
// order is connection -> service; completion callbacks take only the
// connection lock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "service/journal.hpp"
#include "service/map_service.hpp"
#include "service/result_cache.hpp"
#include "service/wire.hpp"

namespace mimdmap::serve {

enum class DrainMode {
  /// Stop accepting, let queued + running jobs finish, flush, close.
  kFinish,
  /// Stop accepting, cancel queued + running jobs (they flush degraded
  /// terminal results), close.
  kCancel,
};

struct ServerOptions {
  /// Service configuration. The server forces admission to
  /// AdmissionPolicy::kReject (shedding; the accept loop must never
  /// block) and applies a bounded queue when none is configured.
  MapServiceOptions service;
  /// Per-line byte cap of the wire reader.
  std::size_t max_line_bytes = 64 * 1024;
  /// Clamp for the overload backoff hint.
  std::int64_t min_retry_ms = 10;
  std::int64_t max_retry_ms = 2000;
  /// Optional log sink for connection lifecycle lines (the CLI passes
  /// stderr); null = silent.
  std::ostream* log = nullptr;

  // -- Durability (DESIGN.md section 19) ----------------------------------
  /// Write-ahead journal directory; empty = no journal. With a journal,
  /// accepted submits are logged before the accepted frame and the
  /// constructor replays accepted-but-unfinished requests from a previous
  /// run (results marked replayed=1). A corrupt non-tail record makes the
  /// constructor throw JournalError unless journal_repair truncates it.
  std::string journal_dir;
  FsyncPolicy journal_fsync = FsyncPolicy::kBatch;
  bool journal_repair = false;
  /// Byte budget of the idempotent result cache (0 = disabled): repeat
  /// submits with an identical fingerprint answer cached=1 terminal
  /// frames without touching the pool.
  std::uint64_t cache_bytes = 0;
  /// Compact the journal (rewrite live cache state, drop old segments)
  /// once every journaled job is terminal and the segment exceeds this.
  std::uint64_t journal_rotate_bytes = 1u << 20;
};

/// Monotonic server-side counters (all frames ever written / read).
struct ServerStats {
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_read = 0;
  std::uint64_t parse_errors = 0;   // event=error answers
  std::uint64_t accepted = 0;       // event=accepted frames
  std::uint64_t terminal_frames = 0;  // event=result frames (incl. to dead peers)
  std::uint64_t shed = 0;           // event=overloaded answers
  std::uint64_t disconnect_cancels = 0;  // jobs cancelled by a vanished client
  std::uint64_t replayed = 0;       // journal-recovered jobs brought to terminal
  std::uint64_t cached_results = 0; // terminal frames served from the result cache
};

class MapServer {
 public:
  explicit MapServer(ServerOptions options = {});
  /// Drains (kCancel) if still serving.
  ~MapServer();

  MapServer(const MapServer&) = delete;
  MapServer& operator=(const MapServer&) = delete;

  /// Socket mode: binds + listens on `socket_path` (unlinking a stale
  /// socket file first) and starts the accept thread. Throws
  /// std::runtime_error on bind/listen failure.
  void listen_unix(const std::string& socket_path);

  /// Pipe mode / tests: serves one already-open duplex connection on the
  /// CALLING thread until the peer closes, a fatal read error, or drain.
  /// read_fd/write_fd may be the same fd (a socketpair end) or a pipe
  /// pair (0/1 for stdio). The fds are not closed (callers own them).
  void serve_fd(int read_fd, int write_fd);

  /// Initiates drain (idempotent; the first mode wins). Non-blocking: an
  /// internal drainer thread finishes the teardown, so a drain triggered
  /// by an op=drain frame (from a reader thread) or a signal watcher
  /// completes even when no thread is parked in wait().
  void request_drain(DrainMode mode);

  /// Blocks until a requested drain has fully completed: no outstanding
  /// jobs, every terminal frame flushed, bye sent, all connection threads
  /// joined. (Call request_drain first, or rely on an op=drain frame.)
  void wait();

  [[nodiscard]] bool draining() const noexcept {
    return draining_.load(std::memory_order_acquire);
  }

  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] MapService& service() noexcept { return *service_; }
  /// Socket path bound by listen_unix (empty in pipe mode).
  [[nodiscard]] const std::string& socket_path() const noexcept { return socket_path_; }

 private:
  struct Connection;

  /// Per-job durability context captured into the on_done closure: what
  /// deliver_result needs to journal the terminal record, fill the cache,
  /// and flag the frame — without any lookup.
  struct JobTicket {
    std::string fingerprint;  // empty when durability is off
    std::uint64_t jid = 0;    // journal job id; 0 = not journaled
    bool replayed = false;    // job re-submitted from the journal
    std::string display_id;   // original client tag of a replayed job
  };

  void accept_main();
  /// Adds `conn` to the served set (starting its reader thread when
  /// `spawn_reader`); false, with nothing registered, once a drain has begun.
  bool register_connection(const std::shared_ptr<Connection>& conn, bool spawn_reader);
  /// Reader loop of one connection; returns when the peer closes, read
  /// fails, or the server drains.
  void connection_main(const std::shared_ptr<Connection>& conn);
  void handle_line(const std::shared_ptr<Connection>& conn, const FrameReader::Line& line);
  void handle_request(const std::shared_ptr<Connection>& conn, const std::string& line);
  void submit_request(const std::shared_ptr<Connection>& conn, WireRequest&& request,
                      const std::string& raw_line);
  /// on_done of every accepted job: writes THE terminal frame (even to a
  /// dead peer — the invariant is counted, not best-effort) and retires
  /// the job from the drain count.
  void deliver_result(const std::shared_ptr<Connection>& conn, const std::string& tag,
                      const JobTicket& ticket, const MapJobResult& result);
  /// Retires one accepted-or-shed submit from the drain count once its
  /// terminal frame is written: decrements outstanding_ and wakes the
  /// drainer, both under mutex_.
  void retire_outstanding();
  /// Cancels every live job of the connection and forgets its client
  /// state (disconnect path). Idempotent.
  void abandon_connection(const std::shared_ptr<Connection>& conn);
  /// Body of the drainer thread: waits for outstanding_ to hit zero, then
  /// runs the teardown (bye frames, thread joins, socket cleanup) and
  /// flips drained_.
  void drain_main();
  /// Advisory backoff for overloaded answers: backlog scaled by the
  /// exponentially-smoothed job wall time, clamped to the options.
  [[nodiscard]] std::int64_t retry_hint_ms() const;
  void note_wall_ms(double wall_ms);
  [[nodiscard]] std::string build_stats_frame() const;
  void log_line(const std::string& text) const;

  /// Durability is on when either the journal or the cache is configured;
  /// fingerprints are computed (and echoed on frames) only then, so plain
  /// daemons keep byte-identical wire output.
  [[nodiscard]] bool durable() const noexcept {
    return journal_ != nullptr || cache_.enabled();
  }
  /// Constructor tail when journal_dir is set: scans the recovered
  /// records, warms the cache from journaled ok results, and re-submits
  /// every accepted-but-unfinished request through the normal scheduler.
  void recover_from_journal();
  void replay_entry(const JournalEntry& entry);
  /// Appends a terminal record and, when every journaled job is terminal
  /// and the segment is large, compacts. Caller holds journal_mutex_.
  void journal_result_locked(const JobTicket& ticket, const ResultFrame& frame,
                             bool cached);
  void maybe_compact_locked();

  ServerOptions options_;
  std::unique_ptr<MapService> service_;
  std::string socket_path_;
  int listen_fd_ = -1;

  /// Durability state. journal_mutex_ serializes the append/pending/
  /// compact protocol (lock order: connection -> journal; the journal's
  /// own mutex nests innermost). journal_pending_ counts journaled jobs
  /// whose terminal record is not yet written — compaction requires zero.
  std::unique_ptr<Journal> journal_;
  ResultCache cache_;
  mutable std::mutex journal_mutex_;
  std::int64_t journal_pending_ = 0;
  std::atomic<std::uint64_t> next_jid_{1};
  /// Synthetic connection owning replayed jobs: its peer is gone by
  /// definition, so frames are counted but written nowhere.
  std::shared_ptr<Connection> recovery_conn_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> drain_cancel_{false};
  /// Jobs accepted but not yet terminal — drain waits for zero.
  std::atomic<std::int64_t> outstanding_{0};
  /// EWMA of completed-job wall time, in microseconds (atomic for the
  /// lock-free retry hint).
  std::atomic<std::int64_t> ewma_wall_us_{0};

  mutable std::mutex log_mutex_;  // serializes log sink lines only
  mutable std::mutex mutex_;  // connections_, threads_, stats_, drain cv
  std::condition_variable drain_cv_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> threads_;  // accept + per-connection readers
  std::thread drainer_;  // spawned once by the winning request_drain
  std::uint64_t next_client_id_ = 1;
  ServerStats stats_;
  bool drained_ = false;  // the drainer finished the teardown
};

}  // namespace mimdmap::serve
