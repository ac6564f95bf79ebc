// SoA-vs-scalar candidate-throughput bench (the PR acceptance numbers for
// the batch kernel): on the 512-task / 8-processor layered-DAG hypercube
// instance, measures ns/candidate of the scalar engine path (one
// trial_total_time per candidate — exactly what refine()'s chunks ran
// before this kernel) against evaluate_batch_soa waves at the auto-tuned
// width, in the plain, serialize and link-contention modes; plus the
// early-exit variant with the batch minimum as the shared incumbent (the
// hill-climb shape, where most lanes cannot win and drop out mid-walk).
// Both sides run single-threaded on one engine, so the ratio isolates the
// kernel, not thread-level parallelism. Emits JSON (stdout or --out file)
// recorded at the repo root as BENCH_soa.json; --smoke shrinks the batch
// for CI while keeping the per-candidate bit-identity check.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "suite.hpp"

#include "baseline/random_mapping.hpp"
#include "cluster/strategies.hpp"
#include "core/cancellation.hpp"
#include "core/eval_engine.hpp"
#include "topology/topology.hpp"
#include "workload/random_dag.hpp"
#include "workload/rng.hpp"

namespace {

using namespace mimdmap;

MappingInstance make_instance(NodeId np, NodeId ns) {
  LayeredDagParams p;
  p.num_tasks = np;
  p.avg_out_degree = 1.5;
  TaskGraph g = make_layered_dag(p, 42);
  Clustering c = block_clustering(g, ns);
  return MappingInstance(std::move(g), std::move(c), make_hypercube(3));
}

struct ModeResult {
  std::string mode;
  int width = 1;
  std::int64_t candidates = 0;
  double scalar_ns = 0;
  double soa_ns = 0;
  double soa_cutoff_ns = 0;
};

int run(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  std::int64_t deadline_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::atoll(argv[++i]);
    } else {
      std::cerr << "usage: bench_micro_soa [--smoke] [--deadline-ms N] [--out file]\n";
      return 2;
    }
  }

  // Wall-clock budget for the whole bench (CI runs the smoke with a
  // deadline to confirm the cancellation plumbing exits cleanly): the
  // token is polled between timing sections and threaded into the
  // cutoff-variant kernel calls, so an expired deadline ends the run at
  // the next wave with whatever modes completed.
  CancelSource deadline_source;
  if (deadline_ms > 0) deadline_source.set_deadline_after_ms(deadline_ms);
  const CancelToken deadline = deadline_ms > 0 ? deadline_source.token() : CancelToken{};
  bool deadline_exit = false;

  const NodeId np = 512;
  const NodeId ns = 8;
  const MappingInstance inst = make_instance(np, ns);
  const EvalEngine engine(inst);

  struct Mode {
    std::string name;
    EvalOptions eval;
    std::int64_t candidates;
  };
  const std::vector<Mode> modes = {
      {"plain", {}, smoke ? 128 : 4096},
      {"serialize", {.serialize_within_processor = true}, smoke ? 128 : 4096},
      {"link_contention", {.link_contention = true}, smoke ? 64 : 1024},
  };
  const int reps = smoke ? 1 : 5;
  using clock = std::chrono::steady_clock;

  std::vector<ModeResult> results;
  Weight checksum = 0;
  for (const Mode& mode : modes) {
    if (deadline.signalled()) {
      deadline_exit = true;
      break;
    }
    Rng rng(7 + results.size());
    std::vector<std::vector<NodeId>> hosts;
    hosts.reserve(static_cast<std::size_t>(mode.candidates));
    for (std::int64_t i = 0; i < mode.candidates; ++i) {
      hosts.push_back(random_assignment(ns, rng).host_of_vector());
    }
    std::vector<Weight> expected(hosts.size());
    std::vector<Weight> totals(hosts.size());

    ModeResult r;
    r.mode = mode.name;
    r.width = engine.resolve_batch_width(0, mode.eval);
    r.candidates = mode.candidates;

    // Bit-identity before timing anything: every SoA lane (ragged tail
    // included) must equal the scalar kernel.
    EvalWorkspace ws;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      expected[i] = engine.trial_total_time(hosts[i], mode.eval, ws);
    }
    engine.batch_total_times(hosts, mode.eval, /*num_threads=*/1, /*width=*/0, totals);
    if (totals != expected) {
      std::cerr << "MISMATCH: SoA totals diverge from the scalar kernel, mode=" << mode.name
                << "\n";
      return 1;
    }
    const Weight incumbent = *std::min_element(expected.begin(), expected.end());

    double scalar_ns = std::numeric_limits<double>::max();
    double soa_ns = std::numeric_limits<double>::max();
    double cutoff_ns = std::numeric_limits<double>::max();
    for (int rep = 0; rep < reps; ++rep) {
      auto t0 = clock::now();
      for (const std::vector<NodeId>& host : hosts) {
        checksum += engine.trial_total_time(host, mode.eval, ws);
      }
      scalar_ns = std::min(
          scalar_ns, std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
                         static_cast<double>(hosts.size()));

      t0 = clock::now();
      engine.batch_total_times(hosts, mode.eval, /*num_threads=*/1, /*width=*/0, totals);
      soa_ns = std::min(soa_ns,
                        std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
                            static_cast<double>(hosts.size()));
      checksum += totals.front() + totals.back();

      t0 = clock::now();
      engine.batch_total_times(hosts, mode.eval, /*num_threads=*/1, /*width=*/0, totals,
                               incumbent, /*potential=*/{}, deadline);
      cutoff_ns = std::min(
          cutoff_ns, std::chrono::duration<double, std::nano>(clock::now() - t0).count() /
                         static_cast<double>(hosts.size()));
      checksum += totals.front() + totals.back();
      if (deadline.signalled()) break;
    }
    r.scalar_ns = scalar_ns;
    r.soa_ns = soa_ns;
    r.soa_cutoff_ns = cutoff_ns;
    results.push_back(r);
  }

  if (deadline.signalled()) deadline_exit = true;

  std::ostringstream os;
  os << "{\n";
  os << "  \"bench\": \"micro_soa\",\n";
  os << "  \"instance\": {\"np\": " << np << ", \"ns\": " << ns
     << ", \"workload\": \"layered avg_out=1.5 seed=42\", \"topology\": \"hypercube-3\"},\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"deadline_exit\": " << (deadline_exit ? "true" : "false") << ",\n";
  os << "  " << bench::host_json() << ",\n";
  os << "  \"threads\": 1,\n";
  os << "  \"checksum\": " << checksum << ",\n";
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    os << "    {\"mode\": \"" << r.mode << "\", \"width\": " << r.width
       << ", \"candidates\": " << r.candidates << ", \"scalar_ns_per_candidate\": "
       << r.scalar_ns << ", \"soa_ns_per_candidate\": " << r.soa_ns
       << ", \"speedup\": " << r.scalar_ns / r.soa_ns
       << ", \"soa_cutoff_ns_per_candidate\": " << r.soa_cutoff_ns
       << ", \"cutoff_speedup\": " << r.scalar_ns / r.soa_cutoff_ns << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"bit_identical\": true\n";
  os << "}\n";

  if (!out_path.empty()) {
    std::ofstream f(out_path);
    if (!f) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    f << os.str();
  }
  std::cout << os.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
