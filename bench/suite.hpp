// Shared configuration for the table-regenerating benches.
//
// The paper's generator is unpublished; DESIGN.md section 6 ("Generator
// calibration") documents the choice. Summary: problem graphs are layered random DAGs with
// np in [30, 300] and random weights in [1, 10] (exactly the paper's stated
// ranges); the clustering is a random contiguous partition ("block") —
// uniform-per-task random clustering produces a dense abstract graph whose
// lower bound no sparse topology can reach, while the paper's tables show
// frequent lower-bound hits, so its "random clustering program" must have
// produced coherent clusters. Both regimes are reported by the benches.
#pragma once

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"

namespace mimdmap::bench {

/// Shared `"host": {...}` JSON fragment for every BENCH_*.json: the facts
/// needed to decide whether two recordings are comparable at all.
/// MIMDMAP_BUILD_TYPE and MIMDMAP_COMMIT are baked in by CMake as PUBLIC
/// compile definitions on the mimdmap target, so every bench that links
/// the library agrees on provenance.
inline std::string host_json() {
  return std::string("\"host\": {\"hardware_concurrency\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": \"" MIMDMAP_BUILD_TYPE "\", \"commit\": \"" MIMDMAP_COMMIT "\"}";
}

/// One experiment per topology spec, np cycling over the paper's range.
inline std::vector<ExperimentConfig> make_suite(const std::vector<std::string>& topologies,
                                                const std::string& clustering,
                                                std::uint64_t base_seed) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(topologies.size());
  std::uint64_t seed = base_seed;
  for (std::size_t i = 0; i < topologies.size(); ++i) {
    ExperimentConfig cfg;
    cfg.topology = topologies[i];
    cfg.clustering = clustering;
    cfg.seed = seed++;
    cfg.random_trials = 10;  // the paper averages "several" random mappings
    cfg.workload.num_tasks = node_id(30 + (i * 53) % 271);  // 30..300
    cfg.workload.num_layers = node_id(6 + (i * 3) % 10);
    cfg.workload.avg_out_degree = 1.5;
    cfg.workload.node_weight = {1, 10};
    cfg.workload.edge_weight = {1, 10};
    configs.push_back(cfg);
  }
  return configs;
}

/// Runs a suite and prints it in the paper's table + figure format.
inline void run_and_print(const std::string& title, const std::string& figure_name,
                          const std::vector<ExperimentConfig>& configs) {
  std::printf("== %s ==\n", title.c_str());
  std::printf("(workloads: layered random DAGs, np in [30,300], weights in [1,10];\n");
  std::printf(" random baseline: mean of 10 random assignments; 100%% == lower bound)\n\n");
  const std::vector<ExperimentRow> rows = run_suite(configs);

  std::printf("instances:\n");
  for (const ExperimentRow& row : rows) {
    std::printf("  expt %2d: np=%3d  ns=%2d  %s%s\n", row.id, row.np, row.ns,
                row.topology.c_str(), row.terminated_early ? "  [stopped at lower bound]" : "");
  }
  std::printf("\n%s\n", format_paper_table(rows).c_str());
  std::printf("%s\n", summarize_suite(rows).c_str());
  std::printf("%s (o = our approach, x = random mapping):\n%s\n", figure_name.c_str(),
              render_figure(rows).c_str());
  std::printf("csv:\n%s\n", format_csv(rows).c_str());
}

}  // namespace mimdmap::bench
