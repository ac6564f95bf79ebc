// Calibration bench: how clustering quality shapes the paper's headline
// numbers (DESIGN.md section 6, "Generator calibration").
//
// The paper's unpublished "random clustering program" had to be
// reconstructed; this bench regenerates the evidence. For each clustering
// strategy it reports the mean percentages, the improvement over random
// mapping, and how often the termination condition fires — showing that
// uniform-per-task random clustering can never reach the bound on sparse
// machines, while coherent clusterings reproduce the paper's regime.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/table.hpp"

using namespace mimdmap;

int main() {
  std::printf("== Clustering sensitivity (DESIGN.md section 6 calibration) ==\n");
  std::printf("12 instances per row (hypercube-3, mesh-3x3, random-12-10-5; 4 seeds each)\n\n");

  TextTable table({"clustering", "ours mean %", "random mean %", "improvement", "lb hits"});

  for (const char* strategy :
       {"random", "round-robin", "block", "level", "list", "linear", "edge-zeroing"}) {
    std::vector<ExperimentConfig> configs;
    std::uint64_t seed = 1;
    for (const char* topo : {"hypercube-3", "mesh-3x3", "random-12-10-5"}) {
      for (int rep = 0; rep < 4; ++rep) {
        ExperimentConfig cfg;
        cfg.topology = topo;
        cfg.clustering = strategy;
        cfg.seed = ++seed;
        cfg.workload.num_tasks = node_id(40 + (seed * 31) % 220);
        cfg.workload.avg_out_degree = 1.5;
        configs.push_back(cfg);
      }
    }
    const auto rows = run_suite(configs);
    std::int64_t sum_ours = 0;
    std::int64_t sum_random = 0;
    int lb_hits = 0;
    for (const ExperimentRow& row : rows) {
      sum_ours += row.ours_pct;
      sum_random += row.random_pct;
      if (row.reached_lower_bound) ++lb_hits;
    }
    const auto n = static_cast<std::int64_t>(rows.size());
    table.add_row({strategy, std::to_string(sum_ours / n), std::to_string(sum_random / n),
                   std::to_string((sum_random - sum_ours) / n),
                   std::to_string(lb_hits) + "/" + std::to_string(n)});
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf("the paper's profile (improvements 29-77 points, lower-bound hits 2/10 to\n"
              "7/11) corresponds to coherent clusterings: 'block' and better. Uniform\n"
              "random clustering (top row) produces dense abstract graphs whose bound no\n"
              "sparse machine can attain.\n");
  return 0;
}
