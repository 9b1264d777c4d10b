// Study one StreamIt benchmark in depth: run the paper's period-bound
// search on the chosen workflow and grid, then print per-heuristic
// results with an energy breakdown, and optionally dump the graph as DOT.
//
//   ./streamit_study --app=6 --rows=4 --cols=4 [--ccr=1] [--dot=graph.dot]

#include <cstdio>
#include <fstream>
#include <iostream>

#include "campaign/runner.hpp"
#include "harness/experiment.hpp"
#include "spg/streamit.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace spgcmp;
  const util::Args args(argc, argv, {"app", "rows", "cols", "ccr", "dot"});
  const int app = static_cast<int>(args.get_int("app", "REPRO_APP", 6));
  const int rows = static_cast<int>(args.get_int("rows", "REPRO_ROWS", 4));
  const int cols = static_cast<int>(args.get_int("cols", "REPRO_COLS", 4));
  const double ccr = args.get_double("ccr", "REPRO_CCR", 0.0);

  const auto& info = spg::streamit_table().at(static_cast<std::size_t>(app - 1));
  const spg::Spg g = spg::make_streamit(info, ccr);
  std::printf("%s: n=%zu ymax=%d xmax=%d CCR=%.2f on a %dx%d CMP\n\n",
              info.name.c_str(), g.size(), g.ymax(), g.xmax(), g.ccr(), rows,
              cols);

  if (auto dot = args.get("dot"); dot && !dot->empty()) {
    std::ofstream out(*dot);
    g.to_dot(out);
    std::printf("wrote %s\n\n", dot->c_str());
  }

  const auto platform = cmp::Platform::reference(rows, cols);
  const auto campaign =
      harness::run_campaign(g, platform, solve::SolverSet::paper());
  const auto summary = spgcmp::campaign::summarize(campaign);
  std::printf("Retained period bound: %g s\n\n", campaign.period);

  util::Table t({"heuristic", "status", "energy (mJ)", "E/Emin", "comp (mJ)",
                 "comm (mJ)", "cores", "max core (ms)", "max link (ms)"});
  for (std::size_t h = 0; h < campaign.results.size(); ++h) {
    const auto& r = campaign.results[h];
    if (!r.success) {
      t.add_row({campaign.names[h], "FAIL: " + r.failure, "-", "-", "-", "-", "-",
                 "-", "-"});
      continue;
    }
    t.add_row({campaign.names[h], "ok", util::fmt_double(r.eval.energy * 1e3),
               util::fmt_double(summary.normalized_energy(h), 3),
               util::fmt_double(r.eval.comp_energy * 1e3),
               util::fmt_double(r.eval.comm_energy * 1e3),
               std::to_string(r.eval.active_cores),
               util::fmt_double(r.eval.max_core_time * 1e3),
               util::fmt_double(r.eval.max_link_time * 1e3)});
  }
  t.print(std::cout);
  return 0;
} catch (const spgcmp::util::UsageError& e) {
  std::fprintf(stderr, "streamit_study: %s\n", e.what());
  return 2;
}
