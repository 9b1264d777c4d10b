// Quickstart: build a streaming application as a series-parallel graph,
// map it onto a 4x4 CMP with every heuristic from the paper, compare the
// energies, and stream data sets through the best mapping with the
// simulator.
//
//   ./quickstart [--period=0.05]

#include <cstdio>
#include <iostream>

#include "heuristics/heuristic.hpp"
#include "sim/simulator.hpp"
#include "solve/registry.hpp"
#include "spg/compose.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace spgcmp;
  const util::Args args(argc, argv, {"period"});

  // A small video-pipeline-like workflow: capture -> (3 parallel filter
  // chains) -> merge -> encode.  Works are in cycles per frame, volumes in
  // bytes per frame.
  spg::Spg app = spg::series(
      spg::series(spg::chain(2, 4e6, 2e5),
                  spg::parallel_all({spg::chain(4, 6e6, 1e5),
                                     spg::chain(3, 5e6, 1e5),
                                     spg::chain(3, 3e6, 1e5)})),
      spg::chain(3, 8e6, 3e5));
  if (auto err = app.validate()) {
    std::fprintf(stderr, "invalid SPG: %s\n", err->c_str());
    return 1;
  }
  std::printf("Workflow: %zu stages, %zu edges, ymax=%d, xmax=%d, CCR=%.1f\n\n",
              app.size(), app.edge_count(), app.ymax(), app.xmax(), app.ccr());

  const auto platform = cmp::Platform::reference(4, 4);
  const double T = args.get_double("period", "REPRO_PERIOD", 0.05);
  std::printf("Target period: %g s  (throughput %.1f frames/s)\n\n", T, 1.0 / T);

  util::Table table({"heuristic", "status", "energy (mJ)", "cores", "period (ms)"});
  std::string best_name;
  heuristics::Result best_result;
  const auto heuristic_set = solve::SolverSet::paper().instantiate();
  for (const auto& h : heuristic_set) {
    const auto r = h->run(app, platform, T);
    if (r.success) {
      table.add_row({h->name(), "ok", util::fmt_double(r.eval.energy * 1e3),
                     std::to_string(r.eval.active_cores),
                     util::fmt_double(r.eval.period * 1e3)});
      if (best_name.empty() || r.eval.energy < best_result.eval.energy) {
        best_name = h->name();
        best_result = r;
      }
    } else {
      table.add_row({h->name(), "FAIL: " + r.failure, "-", "-", "-"});
    }
  }
  table.print(std::cout);

  if (best_name.empty()) {
    std::printf("\nNo heuristic found a mapping; relax the period bound.\n");
    return 1;
  }

  std::printf("\nBest mapping: %s (%.3f mJ per frame)\n", best_name.c_str(),
              best_result.eval.energy * 1e3);
  sim::SimConfig cfg;
  cfg.arrival_period = T;
  cfg.datasets = 500;
  cfg.warmup = 100;
  const auto sim = sim::simulate(app, platform, best_result.mapping, cfg);
  std::printf("Simulated %zu frames: steady period %.3f ms (bound %.3f ms), "
              "latency %.3f ms\n",
              sim.datasets, sim.steady_period * 1e3, T * 1e3,
              sim.mean_latency * 1e3);
  return 0;
} catch (const spgcmp::util::UsageError& e) {
  std::fprintf(stderr, "quickstart: %s\n", e.what());
  return 2;
}
