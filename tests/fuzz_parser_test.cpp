// Robustness fuzzing for the text parsers: random mutations of valid
// inputs must either parse into a valid object or throw
// std::invalid_argument — never crash, hang or corrupt memory. The graph
// and clustering parsers are also fuzzed against their pre-scanner
// versions, which must agree on every input (end of file).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "cli/manifest.hpp"
#include "reference_parsers.hpp"
#include "service/journal.hpp"
#include "cluster/cluster_io.hpp"
#include "graph/graph_io.hpp"
#include "service/wire.hpp"
#include "topology/factory.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"
#include "workload/rng.hpp"

namespace mimdmap {
namespace {

/// Applies `count` random single-character mutations (replace, delete,
/// insert) to `text`.
std::string mutate(const std::string& text, Rng& rng, int count) {
  std::string out = text;
  const std::string alphabet = "0123456789 \n\t-abcxyz#";
  for (int i = 0; i < count && !out.empty(); ++i) {
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(out.size()) - 1));
    const char c = alphabet[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(alphabet.size()) - 1))];
    switch (rng.uniform(0, 2)) {
      case 0:
        out[pos] = c;
        break;
      case 1:
        out.erase(pos, 1);
        break;
      default:
        out.insert(pos, 1, c);
        break;
    }
  }
  return out;
}

TEST(FuzzParserTest, TaskGraphParserNeverCrashes) {
  LayeredDagParams p;
  p.num_tasks = 25;
  const std::string valid = to_text(make_layered_dag(p, 3));
  Rng rng(101);
  int parsed = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string input = mutate(valid, rng, static_cast<int>(rng.uniform(1, 12)));
    try {
      const TaskGraph g = task_graph_from_text(input);
      // Anything that parses must be a structurally valid DAG.
      EXPECT_NO_THROW(g.validate());
      ++parsed;
    } catch (const std::invalid_argument&) {
      // expected for broken inputs
    } catch (const std::out_of_range&) {
      // node-id range errors surface as out_of_range; also acceptable
    }
  }
  // Light mutations leave many inputs valid; make sure both paths ran.
  EXPECT_GT(parsed, 0);
}

TEST(FuzzParserTest, SystemGraphParserNeverCrashes) {
  const std::string valid = to_text(make_random_connected(12, 0.3, 7));
  Rng rng(202);
  for (int i = 0; i < 400; ++i) {
    const std::string input = mutate(valid, rng, static_cast<int>(rng.uniform(1, 12)));
    try {
      const SystemGraph g = system_graph_from_text(input);
      EXPECT_GE(g.node_count(), 0);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(FuzzParserTest, ClusteringParserNeverCrashes) {
  const Clustering clustering({0, 1, 2, 0, 1, 2, 1, 0}, 3);
  const std::string valid = to_text(clustering);
  Rng rng(303);
  for (int i = 0; i < 400; ++i) {
    const std::string input = mutate(valid, rng, static_cast<int>(rng.uniform(1, 10)));
    try {
      const Clustering c = clustering_from_text(input);
      EXPECT_GE(c.num_clusters(), 0);
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
  }
}

TEST(FuzzParserTest, BatchManifestParserNeverCrashes) {
  // A representative valid manifest covering every known key family.
  const std::string valid =
      "# portfolio\n"
      "problem=a.graph spec=hypercube-3 strategy=random seed=5 trials=40 name=j0\n"
      "problem=b.graph system=m.graph clustering=b.clusters serialize deadline-ms=250\n"
      "\n"
      "problem=c.graph spec=mesh-2x4 contention random-trials=6 random-seed=9 "
      "refine-seed=11 extended-critical weighted-links deadline-ms=-1\n";
  ASSERT_EQ(cli::parse_manifest(valid).size(), 3u);

  Rng rng(404);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string input = mutate(valid, rng, static_cast<int>(rng.uniform(1, 12)));
    try {
      const std::vector<cli::ManifestJobSpec> specs = cli::parse_manifest(input);
      // Anything that parses must be structurally valid: line numbers
      // positive and increasing, required keys present, numerics clean.
      int last_line = 0;
      for (const cli::ManifestJobSpec& spec : specs) {
        EXPECT_GT(spec.line_no, last_line);
        last_line = spec.line_no;
        EXPECT_TRUE(spec.kv.count("problem"));
        EXPECT_TRUE(spec.kv.count("spec") || spec.kv.count("system"));
        EXPECT_NO_THROW((void)cli::manifest_seed(spec.kv, "seed", 1, spec.line_no));
        EXPECT_NO_THROW((void)cli::manifest_int(spec.kv, "deadline-ms", 0, spec.line_no));
      }
      ++parsed;
    } catch (const std::invalid_argument& e) {
      // The error must name the offending line.
      EXPECT_NE(std::string(e.what()).find("manifest line "), std::string::npos) << e.what();
      ++rejected;
    }
  }
  // Light mutations leave some manifests valid and break others; both
  // paths must actually have run.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FuzzParserTest, ManifestGarbageRejectedCleanly) {
  for (const char* junk :
       {"problem", "problem=a", "problem=a spec=h spec=h", "problem=a system=s spec=h",
        "problem=a spec=h clustering=c strategy=s", "problem=a spec=h seed=-1",
        "problem=a spec=h trials=2x", "problem=a spec=h deadline-ms=fast",
        "problem=a spec=h deadline-ms=", "spec=h", "=v problem=a spec=h",
        "problem=a spec=h unknown-key=1", "problem=a spec=h seed=99999999999999999999999"}) {
    EXPECT_THROW((void)cli::parse_manifest(junk), std::invalid_argument) << junk;
  }
  EXPECT_TRUE(cli::parse_manifest("").empty());
  EXPECT_TRUE(cli::parse_manifest("# only comments\n\n  \t\n").empty());
}

TEST(FuzzParserTest, WireFrameReaderNeverCrashesOnHostileStreams) {
  // The serve wire reader against adversarial byte streams: oversized
  // lines, embedded NULs, interleaved garbage, truncated trailing frames —
  // fed in randomly-sized chunks. Invariants: every surfaced line is
  // bounded by the byte cap, ok() lines are NUL-free, a stream that ends
  // mid-line yields exactly one truncated record, and reassembling the
  // surfaced text never loses a byte of any in-cap line.
  Rng rng(0x11fe);
  for (int round = 0; round < 200; ++round) {
    const std::size_t cap = static_cast<std::size_t>(rng.uniform(4, 64));
    serve::FrameReader reader(cap);

    std::string stream;
    const int pieces = static_cast<int>(rng.uniform(1, 12));
    for (int p = 0; p < pieces; ++p) {
      switch (rng.uniform(0, 4)) {
        case 0:
          stream += "op=ping\n";
          break;
        case 1:  // oversized: blows the cap, must cost one overflow record
          stream += std::string(cap * 3, 'x') + "\n";
          break;
        case 2:  // NUL poison
          stream += std::string("id=a") + '\0' + "b\n";
          break;
        case 3: {  // random garbage bytes (newlines included)
          const int len = static_cast<int>(rng.uniform(0, 20));
          for (int i = 0; i < len; ++i) {
            stream += static_cast<char>(rng.uniform(0, 255));
          }
          stream += '\n';
          break;
        }
        default:  // trailing partial (only matters when it lands last)
          stream += "gen=diamond gen-a=3";
          break;
      }
    }

    std::vector<serve::FrameReader::Line> lines;
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk = std::min(
          stream.size() - off, static_cast<std::size_t>(rng.uniform(1, 16)));
      for (serve::FrameReader::Line& line : reader.feed(stream.data() + off, chunk)) {
        lines.push_back(std::move(line));
      }
      off += chunk;
    }
    std::optional<serve::FrameReader::Line> tail = reader.finish();
    if (tail.has_value()) {
      EXPECT_TRUE(tail->truncated);
      lines.push_back(std::move(*tail));
    }

    for (const serve::FrameReader::Line& line : lines) {
      EXPECT_LE(line.text.size(), cap);  // bounded memory even on overflow
      if (line.ok()) {
        EXPECT_EQ(line.text.find('\0'), std::string::npos);
        EXPECT_EQ(line.text.find('\n'), std::string::npos);
      }
    }
    // Overflow resync: the reader surfaced at least one record per piece
    // that ended in '\n' is too strong (garbage may contain newlines), but
    // the line count can never exceed the newline count plus the tail.
    const auto newlines = static_cast<std::size_t>(
        std::count(stream.begin(), stream.end(), '\n'));
    EXPECT_LE(lines.size(), newlines + 1);
  }
}

TEST(FuzzParserTest, WireRequestParserNeverCrashes) {
  // Mutations of valid frames of every op: parse_request either returns a
  // structurally valid request or throws std::invalid_argument — the
  // server's error-frame path. Nothing else may escape.
  const std::vector<std::string> valid = {
      "id=a gen=diamond gen-a=5 gen-b=4 gen-seed=3 spec=mesh-2x2 seed=7 trials=40 "
      "priority=-3 size-hint=22 deadline-ms=250",
      "problem=a.graph system=m.graph clustering=c.clusters serialize contention "
      "random-trials=6 random-seed=9 refine-seed=11 extended-critical weighted-links",
      "op=cancel id=j7",
      "op=stats",
      "op=ping",
      "op=drain mode=cancel",
  };
  Rng rng(0x3142);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 900; ++i) {
    const std::string& base = valid[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(valid.size()) - 1))];
    const std::string input = mutate(base, rng, static_cast<int>(rng.uniform(1, 10)));
    try {
      const serve::WireRequest request = serve::parse_request(input);
      // Whatever parses must be inside the validated envelope.
      EXPECT_GE(request.priority, -1000000);
      EXPECT_LE(request.priority, 1000000);
      if (request.op == serve::RequestOp::kSubmit && request.kv.count("gen")) {
        EXPECT_LE(serve::gen_size_estimate(request.kv), 1000000u + 1000000u);
      }
      if (request.op == serve::RequestOp::kCancel) EXPECT_FALSE(request.id.empty());
      ++parsed;
    } catch (const std::invalid_argument&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// -- journal record grammar (service/journal.hpp) --------------------------

/// A small valid journal on disk: accepted/result pairs plus an unfinished
/// accepted record — the shape recovery actually sees.
std::string write_journal_fixture(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "mimdmap_fuzz_journal_" + tag + "_" +
                          std::to_string(::getpid());
  for (std::uint64_t seq = 1; seq <= 4; ++seq) {
    char name[32];
    std::snprintf(name, sizeof name, "wal-%06llu.log",
                  static_cast<unsigned long long>(seq));
    (void)::unlink((dir + "/" + name).c_str());
  }
  (void)::rmdir(dir.c_str());
  serve::Journal journal(dir, serve::FsyncPolicy::kNone, false);
  for (int i = 0; i < 6; ++i) {
    serve::JournalEntry acc;
    acc.kind = serve::JournalEntry::Kind::kAccepted;
    acc.jid = static_cast<std::uint64_t>(i + 1);
    acc.id = "j" + std::to_string(i);
    acc.fingerprint = "00112233445566" + std::to_string(10 + i);
    acc.client = 1;
    acc.request = "gen=diamond gen-a=3 gen-b=3 spec=mesh-2x2 seed=" + std::to_string(i);
    journal.append(encode_entry(acc));
    if (i % 2 == 0) {
      serve::JournalEntry res;
      res.kind = serve::JournalEntry::Kind::kResult;
      res.jid = acc.jid;
      res.id = acc.id;
      res.fingerprint = acc.fingerprint;
      res.status = "ok";
      res.total = 100 + i;
      res.trials = 7;
      journal.append(encode_entry(res));
    }
  }
  journal.flush();
  return dir;
}

TEST(FuzzParserTest, JournalOpenSurvivesArbitraryCorruption) {
  // Whatever a crash, a bit rot, or a vandal leaves in the segment file,
  // opening must either succeed (clean repair/truncation) or throw
  // JournalError — never crash, never loop, never return garbage records.
  const std::string dir = write_journal_fixture("mutate");
  const std::string path = dir + "/wal-000001.log";
  std::string pristine;
  {
    std::ifstream file(path, std::ios::binary);
    pristine.assign(std::istreambuf_iterator<char>(file),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(pristine.empty());

  Rng rng(505);
  int clean_opens = 0;
  int refused = 0;
  for (int round = 0; round < 300; ++round) {
    std::string bytes = pristine;
    const int kind = static_cast<int>(rng.uniform(0, 3));
    if (kind == 0) {
      // Truncation at an arbitrary byte (torn tail at any depth).
      bytes.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(bytes.size()))));
    } else if (kind == 1) {
      // Bit flips anywhere: header, CRC, payload.
      for (int flips = static_cast<int>(rng.uniform(1, 8)); flips > 0; --flips) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(bytes.size()) - 1));
        bytes[pos] = static_cast<char>(bytes[pos] ^ (1 << rng.uniform(0, 7)));
      }
    } else if (kind == 2) {
      // Duplicated whole file (duplicate + interleaved records with
      // repeated jids — recovery must not double-submit).
      bytes += pristine;
    } else {
      // Random garbage appended after the valid records.
      for (int extra = static_cast<int>(rng.uniform(1, 64)); extra > 0; --extra) {
        bytes.push_back(static_cast<char>(rng.uniform(0, 255)));
      }
    }
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    // Strict open: clean success or JournalError, nothing else.
    try {
      serve::Journal strict(dir, serve::FsyncPolicy::kNone, false);
      ++clean_opens;
      for (const std::string& payload : strict.recovered()) {
        (void)serve::decode_entry(payload);  // must never throw/crash
      }
    } catch (const serve::JournalError&) {
      ++refused;
    }
    // Repair open: must ALWAYS succeed, whatever the damage.
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    serve::Journal repaired(dir, serve::FsyncPolicy::kNone, true);
    for (const std::string& payload : repaired.recovered()) {
      (void)serve::decode_entry(payload);
    }
  }
  // Both verdicts must actually occur across 300 rounds — truncations and
  // appended garbage mostly repair as torn tails, mid-file flips refuse.
  EXPECT_GT(clean_opens, 0);
  EXPECT_GT(refused, 0);
}

TEST(FuzzParserTest, JournalPayloadDecoderNeverCrashes) {
  // Textual mutation of a valid payload line: decode_entry returns an
  // entry or nullopt, never throws (it guards the manifest tokenizer).
  serve::JournalEntry entry;
  entry.kind = serve::JournalEntry::Kind::kResult;
  entry.jid = 42;
  entry.id = "alpha";
  entry.fingerprint = "0123456789abcdef";
  entry.status = "ok";
  entry.total = 1234;
  entry.wall_ms = 1.25;
  entry.error = "spaces and = signs";
  const std::string valid = serve::encode_entry(entry);
  Rng rng(606);
  int decoded = 0;
  for (int i = 0; i < 500; ++i) {
    const std::string input = mutate(valid, rng, static_cast<int>(rng.uniform(1, 10)));
    std::optional<serve::JournalEntry> result;
    EXPECT_NO_THROW(result = serve::decode_entry(input)) << input;
    if (result) ++decoded;
  }
  EXPECT_GT(decoded, 0) << "light mutations should leave some payloads decodable";
}

TEST(FuzzParserTest, GarbageInputsRejectedCleanly) {
  for (const char* junk : {"", "\n\n\n", "taskgraph", "taskgraph -5", "systemgraph x",
                           "clustering 1", "\0x01\x02", "taskgraph 999999999999999999999"}) {
    EXPECT_THROW((void)task_graph_from_text(junk), std::invalid_argument) << junk;
  }
}

// ---- differential fuzz against the pre-scanner parsers ---------------------
//
// The one-pass scanner must accept the same language and raise the same
// errors as the getline + istringstream parsers it replaced
// (tests/reference_parsers.hpp): on every input, an equal object, or the
// same exception type and message.

/// Character edits over an alphabet that reaches every rule of the scanner
/// (both signs, the whole isspace set, '.', '#'), plus copies of whole
/// lines so that duplicate edges and out-of-order lines turn up.
std::string mutate_text(const std::string& text, Rng& rng, int count) {
  static const std::string alphabet = "0123456789 \n\t\r\v\f+-.#x";
  std::string out = text;
  const auto pick = [&rng](std::size_t size) {
    return static_cast<std::size_t>(rng.uniform(0, static_cast<std::int64_t>(size) - 1));
  };
  const auto line_start = [&out](std::size_t pos) {
    const std::size_t nl = pos == 0 ? std::string::npos : out.rfind('\n', pos - 1);
    return nl == std::string::npos ? 0 : nl + 1;
  };
  for (int i = 0; i < count && !out.empty(); ++i) {
    const std::size_t pos = pick(out.size());
    const char c = alphabet[pick(alphabet.size())];
    switch (rng.uniform(0, 3)) {
      case 0:
        out[pos] = c;
        break;
      case 1:
        out.erase(pos, 1);
        break;
      case 2:
        out.insert(pos, 1, c);
        break;
      default: {
        const std::size_t begin = line_start(pos);
        const std::size_t end = std::min(out.find('\n', pos), out.size());
        const std::string line = out.substr(begin, end - begin) + "\n";
        out.insert(line_start(pick(out.size())), line);
        break;
      }
    }
  }
  return out;
}

/// True when the first significant line holds a run of more than five
/// digits. The reference parsers allocate the header's counts before
/// reading a line (and Clustering and SystemGraph allocate theirs in both
/// versions), so such inputs are left to the fixed-input tests.
bool header_too_large(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    int run = 0;
    for (const char c : line) {
      run = c >= '0' && c <= '9' ? run + 1 : 0;
      if (run > 5) return true;
    }
    return false;
  }
  return false;
}

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\v': out += "\\v"; break;
      case '\f': out += "\\f"; break;
      default: out += c;
    }
  }
  return out;
}

/// What a parser made of one input: the object, or "<type>: <message>".
template <class T>
struct Outcome {
  std::optional<T> value;
  std::string error;
};

template <class T, class Parse>
Outcome<T> outcome_of(const Parse& parse, const std::string& input) {
  try {
    return {parse(input), ""};
  } catch (const std::exception& e) {
    return {std::nullopt, std::string(typeid(e).name()) + ": " + e.what()};
  }
}

/// Feeds `iterations` mutants of the corpus to both parsers and requires
/// the same outcome; returns how many parsed.
template <class T, class Parse, class Reference, class Same>
int differential_fuzz(const std::vector<std::string>& corpus, std::uint64_t seed, int iterations,
                      const Parse& parse, const Reference& reference, const Same& same) {
  Rng rng(seed);
  int parsed = 0;
  int compared = 0;
  for (int i = 0; i < iterations; ++i) {
    const auto pick = rng.uniform(0, static_cast<std::int64_t>(corpus.size()) - 1);
    const std::string& base = corpus[static_cast<std::size_t>(pick)];
    const std::string input = mutate_text(base, rng, static_cast<int>(rng.uniform(0, 8)));
    if (header_too_large(input)) continue;
    ++compared;
    const Outcome<T> got = outcome_of<T>(parse, input);
    const Outcome<T> want = outcome_of<T>(reference, input);
    EXPECT_EQ(got.error, want.error) << "input: " << escaped(input);
    if (got.value && want.value) {
      EXPECT_TRUE(same(*got.value, *want.value)) << "input: " << escaped(input);
      ++parsed;
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(compared, iterations * 9 / 10);
  return parsed;
}

TEST(FuzzParserTest, TaskGraphParserMatchesReference) {
  std::vector<std::string> corpus = {
      "taskgraph 0\n",
      "# tabs, CRLF, signs, trailing fields\r\n"
      "taskgraph\t3 extra\r\n\r\n"
      "node 0 +2\r\n  node 1 3 # comment\r\nnode 2 4\n"
      "edge 0 1+5\nedge 1 2 6 7\n\t# done\n",
  };
  for (const NodeId np : {1, 2, 5, 12, 25}) {
    LayeredDagParams p;
    p.num_tasks = np;
    corpus.push_back(to_text(make_layered_dag(p, static_cast<std::uint64_t>(np))));
  }
  const int parsed = differential_fuzz<TaskGraph>(
      corpus, 1801, 4000, [](const std::string& t) { return task_graph_from_text(t); },
      [](const std::string& t) { return reference::task_graph_from_text(t); },
      [](const TaskGraph& a, const TaskGraph& b) { return a == b; });
  EXPECT_GT(parsed, 200);
}

TEST(FuzzParserTest, SystemGraphParserMatchesReference) {
  std::vector<std::string> corpus = {"systemgraph 3\nlink 0 1 1\nlink 1 2 +4 x\n"};
  for (const char* spec : {"ring-5", "mesh-2x3", "random-12-30-7", "star-4"}) {
    corpus.push_back(to_text(make_topology(spec)));
  }
  const int parsed = differential_fuzz<SystemGraph>(
      corpus, 1802, 2000, [](const std::string& t) { return system_graph_from_text(t); },
      [](const std::string& t) { return reference::system_graph_from_text(t); },
      [](const SystemGraph& a, const SystemGraph& b) { return a == b; });
  EXPECT_GT(parsed, 100);
}

TEST(FuzzParserTest, ClusteringParserMatchesReference) {
  const std::vector<std::string> corpus = {
      to_text(Clustering({0, 1, 2, 0, 1, 2, 1, 0}, 3)),
      to_text(Clustering({0, 0}, 4)),
      "# blocks\nclustering 3 2 trailing\r\ntask 0 +1\n\ntask 1 0\ntask 2 1 9\n",
  };
  const int parsed = differential_fuzz<Clustering>(
      corpus, 1803, 2000, [](const std::string& t) { return clustering_from_text(t); },
      [](const std::string& t) { return reference::clustering_from_text(t); },
      [](const Clustering& a, const Clustering& b) {
        return a.cluster_map() == b.cluster_map() && a.num_clusters() == b.num_clusters();
      });
  EXPECT_GT(parsed, 100);
}

}  // namespace
}  // namespace mimdmap
