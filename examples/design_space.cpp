// Design-space exploration: how does the achievable energy of a fixed
// workload change with the CMP grid size?  Runs the period search per grid
// and reports the best heuristic's energy — the kind of what-if a platform
// architect would run with this library.
//
//   ./design_space [--n=40] [--ymax=6] [--ccr=10] [--seed=1]

#include <cstdio>
#include <iostream>

#include "harness/experiment.hpp"
#include "spg/generator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace spgcmp;
  const util::Args args(argc, argv, {"n", "ymax", "ccr", "seed"});
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", "REPRO_N", 40));
  const int ymax = static_cast<int>(args.get_int("ymax", "REPRO_YMAX", 6));
  const double ccr = args.get_double("ccr", "REPRO_CCR", 10.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", "REPRO_SEED", 1));

  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(n, ymax, rng);
  g.rescale_ccr(ccr);
  std::printf("Random workload: n=%zu ymax=%d CCR=%.2f total work %.2e cycles\n\n",
              g.size(), g.ymax(), g.ccr(), g.total_work());

  util::Table t({"grid", "cores", "retained T (ms)", "best heuristic",
                 "best E (mJ)", "active cores", "successes"});
  const struct {
    int rows, cols;
  } grids[] = {{1, 4}, {2, 2}, {2, 4}, {3, 3}, {4, 4}, {4, 6}, {6, 6}};
  for (const auto& gr : grids) {
    const auto platform = cmp::Platform::reference(gr.rows, gr.cols);
    const auto c =
        harness::run_campaign(g, platform, solve::SolverSet::paper(seed));
    std::string best_name = "-";
    double best_e = 0;
    int best_cores = 0;
    for (std::size_t h = 0; h < c.results.size(); ++h) {
      const auto& r = c.results[h];
      if (r.success && (best_name == "-" || r.eval.energy < best_e)) {
        best_name = c.names[h];
        best_e = r.eval.energy;
        best_cores = r.eval.active_cores;
      }
    }
    t.add_row({std::to_string(gr.rows) + "x" + std::to_string(gr.cols),
               std::to_string(gr.rows * gr.cols),
               util::fmt_double(c.period * 1e3),
               best_name,
               best_name == "-" ? "-" : util::fmt_double(best_e * 1e3),
               best_name == "-" ? "-" : std::to_string(best_cores),
               std::to_string(c.success_count()) + "/5"});
  }
  t.print(std::cout);
  std::printf("\nLarger grids admit tighter periods (more parallelism) but pay\n"
              "more leakage per active core; the sweet spot depends on the CCR.\n");
  return 0;
} catch (const spgcmp::util::UsageError& e) {
  std::fprintf(stderr, "design_space: %s\n", e.what());
  return 2;
}
