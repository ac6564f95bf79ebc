// Regenerates paper Table 1 + Fig. 25: mapping random problem graphs onto
// hypercube topologies.
//
// Paper reference values: our approach 100-118% of the lower bound, random
// mapping 140-178%, improvements 29-63 points, 2/10 experiments terminated
// at the lower bound. Absolute values depend on the (unpublished) problem
// generator; the shape to check is ours << random with occasional
// lower-bound hits (see DESIGN.md section 6, "Generator calibration").
#include "suite.hpp"

int main() {
  using namespace mimdmap;
  using namespace mimdmap::bench;
  // The paper's system graphs have 4-40 nodes: hypercube dims 2-5.
  const std::vector<std::string> topologies = {
      "hypercube-2", "hypercube-3", "hypercube-4", "hypercube-5", "hypercube-3",
      "hypercube-4", "hypercube-2", "hypercube-5", "hypercube-3", "hypercube-4"};
  run_and_print("Table 1 / Fig. 25: mapping to hypercubes", "Fig. 25",
                make_suite(topologies, "block", 101));
  return 0;
}
