// End-to-end tests of the serving layer (service/server.hpp +
// service/wire.hpp): wire-protocol unit contracts, then a real MapServer
// driven over socketpairs, pipes and a Unix-domain socket — the same
// transports `mimdmap_cli serve` uses. The robustness contract under test
// is the one in server.hpp: exactly one terminal frame per accepted job,
// malformed input costs one error frame and never kills the connection,
// overload is shed with a retry hint, a vanished client's jobs are
// cancelled, and drain loses nothing.
#include "service/server.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/fault_injection.hpp"
#include "service/wire.hpp"

namespace mimdmap::serve {
namespace {

// -- wire unit tests ------------------------------------------------------

TEST(WireTest, EscapeRoundTripsArbitraryBytes) {
  const std::string nasty = "a b\tc\nd=e%f\rg#h";
  const std::string escaped = escape(nasty);
  // Escaped text must travel as ONE whitespace-free token.
  for (const char c : escaped) {
    EXPECT_FALSE(c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '=') << escaped;
  }
  EXPECT_EQ(unescape(escaped), nasty);
  EXPECT_EQ(unescape(escape("")), "");
  EXPECT_EQ(unescape(escape("plain")), "plain");
  // Lenient unescape: malformed escapes pass through instead of throwing.
  EXPECT_NO_THROW((void)unescape("%"));
  EXPECT_NO_THROW((void)unescape("%zz"));
}

TEST(WireTest, FrameReaderIsChunkingInvariant) {
  const std::string stream = "one\ntwo\r\nthree\n";
  const auto lines_of = [&](std::size_t chunk) {
    FrameReader reader(64);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < stream.size(); i += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - i);
      for (const FrameReader::Line& line : reader.feed(stream.data() + i, n)) {
        EXPECT_TRUE(line.ok());
        lines.push_back(line.text);
      }
    }
    EXPECT_FALSE(reader.finish().has_value());  // stream ended on a '\n'
    return lines;
  };
  const std::vector<std::string> want = {"one", "two", "three"};
  EXPECT_EQ(lines_of(1), want);
  EXPECT_EQ(lines_of(2), want);
  EXPECT_EQ(lines_of(stream.size()), want);
}

TEST(WireTest, FrameReaderOverflowCostsOneRecordAndResyncs) {
  FrameReader reader(8);
  const std::string input = std::string(100, 'x') + "\nok\n";
  std::vector<FrameReader::Line> lines;
  // Feed byte-by-byte: the oversized line must still surface as ONE record.
  for (const char c : input) {
    for (FrameReader::Line& line : reader.feed(&c, 1)) lines.push_back(std::move(line));
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(lines[0].overflow);
  EXPECT_FALSE(lines[0].ok());
  EXPECT_LE(lines[0].text.size(), 8u);  // bounded memory: a truncated prefix
  EXPECT_TRUE(lines[1].ok());
  EXPECT_EQ(lines[1].text, "ok");
}

TEST(WireTest, FrameReaderPoisonsNulAndFlagsTruncatedEof) {
  FrameReader reader(64);
  const char nul_line[] = "op=ping\0junk\n";
  auto lines = reader.feed(nul_line, sizeof(nul_line) - 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].reject);
  EXPECT_FALSE(lines[0].ok());

  lines = reader.feed("partial frame", 13);
  EXPECT_TRUE(lines.empty());
  const std::optional<FrameReader::Line> tail = reader.finish();
  ASSERT_TRUE(tail.has_value());
  EXPECT_TRUE(tail->truncated);
  EXPECT_FALSE(tail->ok());
  EXPECT_EQ(tail->text, "partial frame");
}

TEST(WireTest, ParseRequestAcceptsRepresentativeSubmits) {
  const WireRequest file_backed = parse_request(
      "id=a problem=p.graph spec=hypercube-3 strategy=block seed=3 trials=50 "
      "deadline-ms=250 priority=-2 size-hint=40");
  EXPECT_EQ(file_backed.op, RequestOp::kSubmit);
  EXPECT_EQ(file_backed.id, "a");
  EXPECT_EQ(file_backed.priority, -2);
  EXPECT_EQ(file_backed.size_hint, 40u);
  EXPECT_EQ(file_backed.deadline_ms, 250);

  const WireRequest gen = parse_request("gen=diamond gen-a=5 gen-b=4 spec=mesh-2x2");
  EXPECT_EQ(gen.op, RequestOp::kSubmit);
  EXPECT_TRUE(gen.id.empty());  // server assigns a tag
  EXPECT_EQ(gen.size_hint, 5u * 4u + 2u);  // defaulted from the gen estimate

  EXPECT_EQ(parse_request("op=ping").op, RequestOp::kPing);
  EXPECT_EQ(parse_request("op=stats").op, RequestOp::kStats);
  const WireRequest cancel = parse_request("op=cancel id=j7");
  EXPECT_EQ(cancel.op, RequestOp::kCancel);
  EXPECT_EQ(cancel.id, "j7");
  EXPECT_TRUE(parse_request("op=drain").drain_finish);
  EXPECT_TRUE(parse_request("op=drain mode=finish").drain_finish);
  EXPECT_FALSE(parse_request("op=drain mode=cancel").drain_finish);
}

TEST(WireTest, ParseRequestRejectsGarbage) {
  for (const char* junk : {
           "",                                         // empty frame
           "op=frobnicate",                            // unknown op
           "gen=diamond spec=mesh-2x2 bogus-key=1",    // unknown key
           "spec=mesh-2x2",                            // no problem/gen
           "problem=p gen=diamond spec=mesh-2x2",      // both
           "gen=escher spec=mesh-2x2",                 // unknown gen kind
           "gen=diamond gen-a=0 spec=mesh-2x2",        // zero dimension
           "gen=diamond gen-a=2000 gen-b=2000 spec=mesh-2x2",  // too large
           "gen-a=3 problem=p spec=mesh-2x2",          // gen-a without gen
           "problem=p",                                // no spec/system
           "problem=p spec=h system=m",                // both machines
           "problem=p spec=h clustering=c strategy=s", // conflict
           "problem=p spec=h trials=abc",              // bad numeric
           "problem=p spec=h priority=9999999",        // priority range
           "op=cancel",                                // cancel without id
           "op=drain mode=sideways",                   // bad drain mode
           "id=has space problem=p spec=h",            // id is two tokens -> 'space' bad
       }) {
    EXPECT_THROW((void)parse_request(junk), std::invalid_argument) << junk;
  }
  const std::string nul_frame = std::string("op=ping") + '\0' + "x";
  EXPECT_THROW((void)parse_request(nul_frame), std::invalid_argument);
}

TEST(WireTest, GenSizeEstimateMatchesWorkloadShapes) {
  const auto estimate = [](const std::string& line) {
    return gen_size_estimate(parse_request(line + " spec=mesh-2x2").kv);
  };
  EXPECT_EQ(estimate("gen=diamond gen-a=5 gen-b=4"), 22u);
  EXPECT_EQ(estimate("gen=layered gen-a=120 gen-b=8"), 120u);
  EXPECT_EQ(estimate("gen=pipeline gen-a=9"), 9u);
  EXPECT_EQ(estimate("gen=fork-join gen-a=6 gen-b=3"), 6u * 3u + 3u + 1u);
  EXPECT_EQ(gen_size_estimate(parse_request("problem=p.graph spec=mesh-2x2").kv), 0u);
}

TEST(WireTest, ResponseFramesReparse) {
  const auto accepted = parse_response(accepted_frame("j1", 42, 3));
  EXPECT_EQ(accepted.at("event"), "accepted");
  EXPECT_EQ(accepted.at("id"), "j1");
  EXPECT_EQ(accepted.at("seq"), "42");
  EXPECT_EQ(accepted.at("queue"), "3");

  ResultFrame ok;
  ok.id = "j1";
  ok.status = "ok";
  ok.total = 120;
  ok.lower_bound = 100;
  ok.pct = 20;
  const auto result = parse_response(result_frame(ok));
  EXPECT_EQ(result.at("event"), "result");
  EXPECT_EQ(result.at("status"), "ok");
  EXPECT_EQ(result.at("total"), "120");

  ResultFrame failed;
  failed.id = "j2";
  failed.status = "internal_error";
  failed.error = "bad thing: spaces = trouble\n";
  const auto error_result = parse_response(result_frame(failed));
  EXPECT_EQ(unescape(error_result.at("error")), "bad thing: spaces = trouble\n");

  const auto shed = parse_response(overloaded_frame("j3", 150));
  EXPECT_EQ(shed.at("event"), "overloaded");
  EXPECT_EQ(shed.at("retry-ms"), "150");

  EXPECT_EQ(parse_response(pong_frame()).at("event"), "pong");
  EXPECT_EQ(parse_response(draining_frame()).at("event"), "draining");
  const auto bye = parse_response(bye_frame(7, 7));
  EXPECT_EQ(bye.at("event"), "bye");
  EXPECT_EQ(bye.at("accepted"), "7");
  EXPECT_EQ(bye.at("results"), "7");

  EXPECT_THROW((void)parse_response("id=1 status=ok"), std::invalid_argument);
}

// -- server e2e harness ---------------------------------------------------

/// Blocking frame client over one fd; every read is bounded by a 30 s poll
/// so a server bug fails the test instead of hanging the suite.
class TestClient {
 public:
  explicit TestClient(int fd) : fd_(fd) {}

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::write(fd_, framed.data() + off, framed.size() - off);
      ASSERT_GT(n, 0) << "client write failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// Next parsed frame; nullopt on EOF or timeout (timeout also fails).
  std::optional<std::map<std::string, std::string>> next_frame() {
    while (lines_.empty()) {
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, 30000);
      if (rc <= 0) {
        ADD_FAILURE() << "client timed out waiting for a frame";
        return std::nullopt;
      }
      char buf[4096];
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n == 0) return std::nullopt;  // EOF
      if (n < 0) {
        ADD_FAILURE() << "client read failed: " << std::strerror(errno);
        return std::nullopt;
      }
      for (const FrameReader::Line& line : reader_.feed(buf, static_cast<std::size_t>(n))) {
        if (line.ok() && !line.text.empty()) lines_.push_back(line.text);
      }
    }
    const std::string text = lines_.front();
    lines_.pop_front();
    return parse_response(text);
  }

  /// Next frame, asserting its event type.
  std::map<std::string, std::string> expect_event(const std::string& event) {
    const auto frame = next_frame();
    if (!frame.has_value()) {
      ADD_FAILURE() << "expected event=" << event << ", got EOF/timeout";
      return {};
    }
    EXPECT_EQ(frame->at("event"), event) << "frame: " << to_text(*frame);
    return *frame;
  }

  static std::string to_text(const std::map<std::string, std::string>& frame) {
    std::string out;
    for (const auto& [k, v] : frame) out += k + "=" + v + " ";
    return out;
  }

 private:
  int fd_;
  FrameReader reader_{64 * 1024};
  std::deque<std::string> lines_;
};

/// One MapServer over a socketpair: the server end is served by serve_fd on
/// a background thread (duplex, so EOF from the client is a disconnect),
/// the client end is wrapped in a TestClient.
class PipeHarness {
 public:
  explicit PipeHarness(ServerOptions options = {}) : server_(std::move(options)) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server_fd_ = sv[0];
    client_fd_ = sv[1];
    thread_ = std::thread([this] { server_.serve_fd(server_fd_, server_fd_); });
    client_ = std::make_unique<TestClient>(client_fd_);
  }

  ~PipeHarness() {
    server_.request_drain(DrainMode::kCancel);
    server_.wait();
    if (thread_.joinable()) thread_.join();
    if (client_fd_ >= 0) ::close(client_fd_);
    ::close(server_fd_);  // serve_fd does not own caller fds
  }

  /// Closes the client end (an abrupt disconnect from the server's view).
  void disconnect() {
    ::close(client_fd_);
    client_fd_ = -1;
  }

  MapServer& server() { return server_; }
  TestClient& client() { return *client_; }

 private:
  MapServer server_;
  int server_fd_ = -1;
  int client_fd_ = -1;
  std::thread thread_;
  std::unique_ptr<TestClient> client_;
};

/// Stats whose terminal counter is bumped AFTER the result frame is
/// written — a client that just read a result may race it, so settle.
ServerStats settled_stats(MapServer& server, std::uint64_t want_terminals) {
  for (int i = 0; i < 500; ++i) {
    const ServerStats stats = server.stats();
    if (stats.terminal_frames >= want_terminals) return stats;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return server.stats();
}

constexpr const char* kFastJob = "gen=diamond gen-a=3 gen-b=3 spec=mesh-2x2 seed=5";
/// The job the lifecycle tests cancel, shed behind or drain. They hold it
/// with HeldJobs, so its own running time (a few ms) never decides what
/// they observe.
constexpr const char* kSlowJob =
    "gen=layered gen-a=2000 gen-b=20 gen-seed=1 spec=hypercube-3 seed=9 "
    "trials=200000 deadline-ms=-1";

/// Holds every job at runner start (the fault-injection stall) until
/// release() or destruction restores the previous fault config. A held
/// job counts as running; cancelling it ends the stall and the job ends
/// `cancelled`.
class HeldJobs {
 public:
  HeldJobs() : saved_(set_fault_config({.slow_runner_ms = 60000})) {}
  ~HeldJobs() { release(); }
  HeldJobs(const HeldJobs&) = delete;
  HeldJobs& operator=(const HeldJobs&) = delete;

  void release() {
    if (released_) return;
    released_ = true;
    (void)set_fault_config(saved_);
  }

 private:
  FaultConfig saved_;
  bool released_ = false;
};

TEST(ServeTest, PingSubmitResultLifecycle) {
  PipeHarness h;
  h.client().send_line("op=ping");
  h.client().expect_event("pong");

  h.client().send_line(std::string("id=alpha ") + kFastJob);
  const auto accepted = h.client().expect_event("accepted");
  EXPECT_EQ(accepted.at("id"), "alpha");
  const auto result = h.client().expect_event("result");
  EXPECT_EQ(result.at("id"), "alpha");
  EXPECT_EQ(result.at("status"), "ok");
  EXPECT_GT(std::stoll(result.at("total")), 0);
  EXPECT_GT(std::stoll(result.at("lower-bound")), 0);
  EXPECT_GE(std::stod(result.at("wall-ms")), 0.0);

  // A tagless submit gets a server-assigned tag, echoed on both frames.
  h.client().send_line(kFastJob);
  const auto auto_accepted = h.client().expect_event("accepted");
  EXPECT_EQ(auto_accepted.at("id"), "j1");
  EXPECT_EQ(h.client().expect_event("result").at("id"), "j1");

  const ServerStats stats = settled_stats(h.server(), 2);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.terminal_frames, 2u);
}

TEST(ServeTest, MalformedLinesCostOneErrorEachAndServingContinues) {
  ServerOptions options;
  options.max_line_bytes = 128;
  PipeHarness h(std::move(options));

  // Unknown key, oversized line, NUL byte, truncated... each answers one
  // event=error; blank lines and comments answer nothing.
  h.client().send_line("frobnicate=1 spec=mesh-2x2");
  auto error = h.client().expect_event("error");
  EXPECT_NE(unescape(error.at("error")).find("unknown"), std::string::npos);

  h.client().send_line("");
  h.client().send_line("# a comment, silently skipped");
  h.client().send_line(std::string(500, 'x'));
  error = h.client().expect_event("error");
  EXPECT_NE(unescape(error.at("error")).find("byte cap"), std::string::npos);

  h.client().send_line(std::string("op=ping") + '\0' + "tail");
  h.client().expect_event("error");

  // The connection is still alive and still serves jobs.
  h.client().send_line(std::string("id=ok ") + kFastJob);
  h.client().expect_event("accepted");
  EXPECT_EQ(h.client().expect_event("result").at("status"), "ok");
  EXPECT_EQ(h.server().stats().parse_errors, 3u);
}

TEST(ServeTest, DuplicateTagRejectedWhileFirstDelivers) {
  HeldJobs held;
  PipeHarness h;
  h.client().send_line(std::string("id=twin ") + kSlowJob);
  h.client().expect_event("accepted");
  h.client().send_line(std::string("id=twin ") + kFastJob);
  const auto error = h.client().expect_event("error");
  EXPECT_EQ(error.at("id"), "twin");
  EXPECT_NE(unescape(error.at("error")).find("duplicate"), std::string::npos);

  // Exactly one terminal for the original job.
  h.client().send_line("op=cancel id=twin");
  const auto result = h.client().expect_event("result");
  EXPECT_EQ(result.at("id"), "twin");
  EXPECT_EQ(result.at("status"), "cancelled");
  EXPECT_EQ(settled_stats(h.server(), 1).terminal_frames, 1u);
}

TEST(ServeTest, CancelDeliversOneDegradedTerminal) {
  HeldJobs held;
  PipeHarness h;
  h.client().send_line(std::string("id=victim ") + kSlowJob);
  h.client().expect_event("accepted");
  h.client().send_line("op=cancel id=victim");
  const auto result = h.client().expect_event("result");
  EXPECT_EQ(result.at("id"), "victim");
  EXPECT_EQ(result.at("status"), "cancelled");

  // Cancelling an unknown (or already-delivered) tag is a protocol error,
  // not a crash and not a second terminal.
  h.client().send_line("op=cancel id=victim");
  h.client().expect_event("error");
  h.client().send_line("op=cancel id=never-was");
  h.client().expect_event("error");
  EXPECT_EQ(settled_stats(h.server(), 1).terminal_frames, 1u);
}

TEST(ServeTest, StatsFrameReportsSchedulerObservability) {
  PipeHarness h;
  h.client().send_line(std::string("id=one priority=2 ") + kFastJob);
  h.client().expect_event("accepted");
  h.client().expect_event("result");
  // The counters trail the frame write — settle both layers before asking.
  (void)settled_stats(h.server(), 1);
  for (int i = 0; i < 500 && h.server().service().stats().completed < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  h.client().send_line("op=stats");
  const auto stats = h.client().expect_event("stats");
  EXPECT_EQ(stats.at("accepted"), "1");
  EXPECT_EQ(stats.at("results"), "1");
  EXPECT_EQ(stats.at("outstanding"), "0");
  EXPECT_EQ(stats.at("connections"), "1");
  EXPECT_EQ(stats.at("service-completed"), "1");
  // The job ran at priority 2: its lane appears with a wait-time column.
  EXPECT_EQ(stats.at("prio2-started"), "1");
  EXPECT_TRUE(stats.count("prio2-wait-ms"));
  EXPECT_TRUE(stats.count("queue-depth"));
  // Cache and pool observability ride on the same frame: the fast job's
  // topology was a miss (fresh cache) and the pool granted >= 1 lane.
  EXPECT_TRUE(stats.count("topo-hits"));
  EXPECT_GE(std::stoll(stats.at("topo-misses")), 1);
  EXPECT_GE(std::stoll(stats.at("pool-lanes")), 1);
}

TEST(ServeTest, MetricsFrameExposesRegistryAcrossLayers) {
  PipeHarness h;
  h.client().send_line(std::string("id=m1 ") + kFastJob);
  h.client().expect_event("accepted");
  h.client().expect_event("result");
  (void)settled_stats(h.server(), 1);

  h.client().send_line("op=metrics");
  const auto frame = h.client().expect_event("metrics");
  ASSERT_TRUE(frame.count("data"));
  const std::string text = unescape(frame.at("data"));

  // One exposition, every layer: wire, scheduler, pool, cache — counters,
  // gauges, and at least one latency histogram with quantile series.
  EXPECT_NE(text.find("mimdmap_server_accepted_total"), std::string::npos);
  EXPECT_NE(text.find("mimdmap_server_frames_read_total"), std::string::npos);
  EXPECT_NE(text.find("mimdmap_service_jobs_completed_total"), std::string::npos);
  EXPECT_NE(text.find("mimdmap_service_queue_depth"), std::string::npos);
  EXPECT_NE(text.find("mimdmap_pool_chunks_total"), std::string::npos);
  EXPECT_NE(text.find("mimdmap_topo_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("mimdmap_wire_request_us_count{op=\"submit\"}"), std::string::npos);
  EXPECT_NE(text.find("quantile=\"0.99\""), std::string::npos);
  EXPECT_NE(text.find("# TYPE"), std::string::npos);

  // Registry values agree with the server's own ledger (both saw >= the
  // one accepted job; other tests in this process may have added more).
  std::istringstream lines(text);
  std::string line;
  long long accepted_total = -1;
  while (std::getline(lines, line)) {
    if (line.rfind("mimdmap_server_accepted_total ", 0) == 0) {
      accepted_total = std::stoll(line.substr(line.find(' ') + 1));
    }
  }
  EXPECT_GE(accepted_total, 1);
}

TEST(ServeTest, OverloadShedsWithBackoffHint) {
  ServerOptions options;
  options.service.max_concurrent_jobs = 1;
  options.service.lanes = 1;
  options.service.max_queue = 1;
  HeldJobs held;
  PipeHarness h(std::move(options));

  constexpr int kSubmits = 5;
  for (int i = 0; i < kSubmits; ++i) {
    h.client().send_line(std::string("id=load") + std::to_string(i) + " " + kSlowJob);
  }
  int accepted = 0;
  int shed = 0;
  std::set<std::string> accepted_ids;
  for (int i = 0; i < kSubmits; ++i) {
    const auto frame = h.client().next_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->at("event") == "accepted") {
      ++accepted;
      accepted_ids.insert(frame->at("id"));
    } else {
      ASSERT_EQ(frame->at("event"), "overloaded") << TestClient::to_text(*frame);
      ++shed;
      // Advisory backoff: clamped to [min_retry_ms, max_retry_ms].
      const std::int64_t retry = std::stoll(frame->at("retry-ms"));
      EXPECT_GE(retry, 10);
      EXPECT_LE(retry, 2000);
    }
  }
  // One runner + one queue slot: at least one of each answer, every submit
  // answered exactly once.
  EXPECT_GE(accepted, 1);
  EXPECT_GE(shed, 2);
  EXPECT_EQ(accepted + shed, kSubmits);
  EXPECT_EQ(h.server().stats().shed, static_cast<std::uint64_t>(shed));

  // Drain: every accepted job still gets its one terminal frame. The held
  // jobs are released once the drain has been acknowledged, so no result
  // can overtake the draining frame.
  h.client().send_line("op=drain mode=finish");
  h.client().expect_event("draining");
  held.release();
  std::set<std::string> result_ids;
  while (true) {
    const auto frame = h.client().next_frame();
    ASSERT_TRUE(frame.has_value());
    if (frame->at("event") == "bye") {
      EXPECT_EQ(frame->at("accepted"), std::to_string(accepted));
      EXPECT_EQ(frame->at("results"), std::to_string(accepted));
      break;
    }
    ASSERT_EQ(frame->at("event"), "result");
    EXPECT_TRUE(result_ids.insert(frame->at("id")).second) << "duplicate terminal";
  }
  EXPECT_EQ(result_ids, accepted_ids);
}

TEST(ServeTest, DrainFinishLosesNothingAndShedsLateSubmits) {
  HeldJobs held;
  PipeHarness h;
  // Held jobs keep the drain outstanding until the post-drain submit has
  // been read and shed (frames on one connection are handled in order);
  // only then are they released to finish.
  h.client().send_line(std::string("id=slow ") + kSlowJob);
  for (int i = 0; i < 3; ++i) {
    h.client().send_line(std::string("id=fast") + std::to_string(i) + " " + kFastJob);
  }
  h.client().send_line("op=drain mode=finish");
  h.client().send_line(std::string("id=late ") + kFastJob);

  std::set<std::string> accepted_ids;
  std::set<std::string> result_ids;
  bool saw_draining = false;
  bool saw_late_shed = false;
  while (true) {
    const auto frame = h.client().next_frame();
    ASSERT_TRUE(frame.has_value());
    const std::string& event = frame->at("event");
    if (event == "accepted") {
      EXPECT_TRUE(accepted_ids.insert(frame->at("id")).second);
    } else if (event == "result") {
      EXPECT_TRUE(result_ids.insert(frame->at("id")).second) << "duplicate terminal";
    } else if (event == "draining") {
      saw_draining = true;
    } else if (event == "overloaded") {
      // The post-drain submit: shed with "do not retry here".
      EXPECT_EQ(frame->at("id"), "late");
      EXPECT_EQ(frame->at("retry-ms"), "-1");
      saw_late_shed = true;
      held.release();
    } else if (event == "bye") {
      break;
    } else {
      FAIL() << "unexpected frame: " << TestClient::to_text(*frame);
    }
  }
  EXPECT_TRUE(saw_draining);
  EXPECT_TRUE(saw_late_shed);
  EXPECT_EQ(accepted_ids, result_ids);  // zero loss, zero duplication
  EXPECT_EQ(accepted_ids.size(), 4u);
  EXPECT_EQ(accepted_ids.count("late"), 0u);

  h.server().wait();
  const ServerStats stats = h.server().stats();
  EXPECT_EQ(stats.accepted, stats.terminal_frames);
}

TEST(ServeTest, DisconnectCancelsOutstandingJobs) {
  HeldJobs held;
  PipeHarness h;
  h.client().send_line(std::string("id=doomed ") + kSlowJob);
  h.client().expect_event("accepted");
  h.disconnect();

  // The reader sees EOF on a duplex fd -> the job is cancelled, and its
  // terminal frame is still counted (written to the dead peer) so the
  // accepted == terminal invariant holds without the client.
  for (int i = 0; i < 300; ++i) {
    if (h.server().stats().terminal_frames >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const ServerStats stats = h.server().stats();
  EXPECT_EQ(stats.terminal_frames, 1u);
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.disconnect_cancels, 1u);
  EXPECT_EQ(stats.connections_closed, 1u);
}

TEST(ServeTest, UnixSocketAcceptsAndServes) {
  const std::string path = ::testing::TempDir() + "mimdmap_serve_test.sock";
  ::unlink(path.c_str());
  MapServer server;
  server.listen_unix(path);
  EXPECT_EQ(server.socket_path(), path);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(path.size(), sizeof(addr.sun_path));
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);

  {
    TestClient client(fd);
    client.send_line(std::string("id=sock ") + kFastJob);
    client.expect_event("accepted");
    EXPECT_EQ(client.expect_event("result").at("status"), "ok");
    client.send_line("op=drain mode=finish");
    client.expect_event("draining");
    client.expect_event("bye");
  }
  ::close(fd);
  server.wait();
  // The socket file is cleaned up by the drain.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(ServeTest, HalfClosedPipePairStillFlushesResults) {
  // stdio mode: input and output are separate pipes. Closing the input
  // means "no more requests", NOT "cancel my jobs" — results must still
  // flush on the output side, then the drain says bye.
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);

  MapServer server;
  std::thread serving([&] { server.serve_fd(in_pipe[0], out_pipe[1]); });

  {
    TestClient writer(in_pipe[1]);
    writer.send_line(std::string("id=p0 ") + kFastJob);
    writer.send_line(std::string("id=p1 ") + kFastJob);
  }
  ::close(in_pipe[1]);  // half-close: EOF on the request stream
  serving.join();       // the reader exits without abandoning the jobs

  server.request_drain(DrainMode::kFinish);
  server.wait();
  EXPECT_EQ(server.stats().disconnect_cancels, 0u);

  TestClient reader(out_pipe[0]);
  std::set<std::string> result_ids;
  bool saw_bye = false;
  while (!saw_bye) {
    const auto frame = reader.next_frame();
    ASSERT_TRUE(frame.has_value());
    const std::string& event = frame->at("event");
    if (event == "result") {
      EXPECT_EQ(frame->at("status"), "ok");
      EXPECT_TRUE(result_ids.insert(frame->at("id")).second);
    } else if (event == "bye") {
      EXPECT_EQ(frame->at("accepted"), "2");
      EXPECT_EQ(frame->at("results"), "2");
      saw_bye = true;
    } else {
      EXPECT_EQ(event, "accepted");
    }
  }
  EXPECT_EQ(result_ids, (std::set<std::string>{"p0", "p1"}));
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);
  ::close(out_pipe[1]);
}

// -- durability: result cache + frame byte-identity -----------------------

TEST(ServeTest, RepeatFingerprintServesCachedWithoutRerunning) {
  ServerOptions options;
  options.cache_bytes = 1u << 20;  // cache only, no journal
  PipeHarness h(std::move(options));

  h.client().send_line(std::string("id=first ") + kFastJob);
  auto accepted = h.client().expect_event("accepted");
  const std::string fp = accepted.at("fingerprint");
  EXPECT_EQ(fp.size(), 16u);
  const auto first = h.client().expect_event("result");
  EXPECT_EQ(first.at("status"), "ok");
  EXPECT_EQ(first.count("cached"), 0u);

  // Identical request, different tag: same fingerprint, cached answer,
  // identical mapping numbers — and the scheduler never sees job two.
  const std::uint64_t submitted_before = h.server().service().stats().submitted;
  h.client().send_line(std::string("id=second ") + kFastJob);
  accepted = h.client().expect_event("accepted");
  EXPECT_EQ(accepted.at("fingerprint"), fp);
  const auto second = h.client().expect_event("result");
  EXPECT_EQ(second.at("id"), "second");
  EXPECT_EQ(second.at("cached"), "1");
  EXPECT_EQ(second.at("status"), "ok");
  EXPECT_EQ(second.at("total"), first.at("total"));
  EXPECT_EQ(second.at("trials"), first.at("trials"));
  EXPECT_EQ(h.server().service().stats().submitted, submitted_before);

  // A different seed is a different fingerprint: no false sharing.
  h.client().send_line("id=third gen=diamond gen-a=3 gen-b=3 spec=mesh-2x2 seed=6");
  accepted = h.client().expect_event("accepted");
  EXPECT_NE(accepted.at("fingerprint"), fp);
  EXPECT_EQ(h.client().expect_event("result").count("cached"), 0u);

  const ServerStats stats = settled_stats(h.server(), 3);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.terminal_frames, 3u);  // cache hits keep the invariant
  EXPECT_EQ(stats.cached_results, 1u);

  // op=stats exposes the cache counters.
  h.client().send_line("op=stats");
  const auto frame = h.client().expect_event("stats");
  EXPECT_EQ(frame.at("cache-hits"), "1");
  EXPECT_EQ(frame.at("cached-results"), "1");
}

TEST(ServeTest, UncachedFramesAreByteIdenticalWithDurabilityEnabled) {
  // The acceptance gate: enabling journal+cache must not change a single
  // byte of a plain (uncached) accept/result stream except the documented
  // fingerprint= addition — totals, trials, statuses identical.
  const std::string line = std::string("id=same ") + kFastJob;
  std::map<std::string, std::string> plain_result;
  {
    PipeHarness plain;
    plain.client().send_line(line);
    const auto accepted = plain.client().expect_event("accepted");
    // A plain daemon computes no fingerprints and emits none.
    EXPECT_EQ(accepted.count("fingerprint"), 0u);
    plain_result = plain.client().expect_event("result");
    EXPECT_EQ(plain_result.count("fingerprint"), 0u);
    EXPECT_EQ(plain_result.count("cached"), 0u);
    EXPECT_EQ(plain_result.count("replayed"), 0u);
  }

  const std::string dir = ::testing::TempDir() + "mimdmap_serve_identity_" +
                          std::to_string(::getpid());
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    char name[32];
    std::snprintf(name, sizeof name, "wal-%06llu.log",
                  static_cast<unsigned long long>(seq));
    (void)::unlink((dir + "/" + name).c_str());
  }
  (void)::rmdir(dir.c_str());
  ServerOptions options;
  options.journal_dir = dir;
  options.cache_bytes = 1u << 20;
  PipeHarness durable(std::move(options));
  durable.client().send_line(line);
  const auto accepted = durable.client().expect_event("accepted");
  EXPECT_EQ(accepted.count("fingerprint"), 1u);
  const auto durable_result = durable.client().expect_event("result");
  // Field-for-field identity on everything the plain stream carries.
  for (const auto& [key, value] : plain_result) {
    if (key == "wall-ms" || key == "queue-ms") continue;  // timing, not payload
    EXPECT_EQ(durable_result.at(key), value) << "key " << key;
  }
}

TEST(ServeTest, ShedRetryHintsAreJitteredPerClient) {
  // Live regression for the constant-hint bug: distinct clients shed in
  // the same overload event must see distinct retry-ms values (the pure
  // spread properties are pinned in journal_test.cpp RetryJitterTest).
  ServerOptions options;
  options.service.max_concurrent_jobs = 1;
  options.service.max_queue = 1;
  options.min_retry_ms = 10;
  options.max_retry_ms = 2000;
  HeldJobs held;
  PipeHarness h(std::move(options));

  // Fill the single runner + the single queue slot. s1 goes out only once
  // the runner holds s0, else it would find the queue slot taken.
  h.client().send_line(std::string("id=s0 ") + kSlowJob);
  h.client().expect_event("accepted");
  for (int i = 0; i < 3000; ++i) {
    const ServiceStats service = h.server().service().stats();
    if (service.active == 1 && service.queue_depth == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(h.server().service().stats().active, 1);
  h.client().send_line(std::string("id=s1 ") + kSlowJob);
  h.client().expect_event("accepted");

  // Everything further sheds. One connection = one client id, so repeat
  // sheds from this client carry the SAME jittered hint (deterministic)…
  h.client().send_line(std::string("id=s2 ") + kFastJob);
  const auto shed1 = h.client().expect_event("overloaded");
  h.client().send_line(std::string("id=s3 ") + kFastJob);
  const auto shed2 = h.client().expect_event("overloaded");
  const std::int64_t hint1 = std::stoll(shed1.at("retry-ms"));
  EXPECT_GT(hint1, 0);
  // …as long as the backlog didn't move between the two sheds (it can't:
  // s0 is held and s1 waits behind it). Identical backlog + identical
  // client => identical jittered hint.
  EXPECT_EQ(hint1, std::stoll(shed2.at("retry-ms")));

  // Drain cancels the two held jobs; their terminals settle the counters.
  h.server().request_drain(DrainMode::kCancel);
  h.server().wait();
}

}  // namespace
}  // namespace mimdmap::serve
