// Stream-rate exploration with the dataflow simulator: map a workload once,
// then drive it at several arrival rates and watch throughput saturate at
// the mapping's bottleneck cycle-time while latency grows once the input
// outpaces the pipeline.
//
//   ./simulate_stream [--app=10] [--rows=4] [--cols=4]

#include <cstdio>
#include <iostream>

#include "harness/experiment.hpp"
#include "sim/simulator.hpp"
#include "spg/streamit.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace spgcmp;
  const util::Args args(argc, argv, {"app", "rows", "cols"});
  const int app = static_cast<int>(args.get_int("app", "REPRO_APP", 10));
  const int rows = static_cast<int>(args.get_int("rows", "REPRO_ROWS", 4));
  const int cols = static_cast<int>(args.get_int("cols", "REPRO_COLS", 4));

  const auto& info = spg::streamit_table().at(static_cast<std::size_t>(app - 1));
  const spg::Spg g = spg::make_streamit(info);
  const auto platform = cmp::Platform::reference(rows, cols);

  // Map once with the period search, keep the best mapping.
  const auto c = harness::run_campaign(g, platform, solve::SolverSet::paper());
  const heuristics::Result* best = nullptr;
  std::string best_name;
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (c.results[h].success &&
        (best == nullptr || c.results[h].eval.energy < best->eval.energy)) {
      best = &c.results[h];
      best_name = c.names[h];
    }
  }
  if (best == nullptr) {
    std::fprintf(stderr, "no heuristic mapped %s\n", info.name.c_str());
    return 1;
  }
  std::printf("%s mapped by %s at T=%g s (bottleneck %.3f ms)\n\n",
              info.name.c_str(), best_name.c_str(), c.period,
              best->eval.period * 1e3);

  util::Table t({"arrival period (ms)", "steady period (ms)", "latency (ms)",
                 "backlogged"});
  for (const double factor : {4.0, 2.0, 1.0, 0.5, 0.25, 0.0}) {
    sim::SimConfig cfg;
    cfg.arrival_period = c.period * factor;
    cfg.datasets = 400;
    cfg.warmup = 100;
    const auto r = sim::simulate(g, platform, best->mapping, cfg);
    const bool backlogged = cfg.arrival_period < best->eval.period * (1 - 1e-9);
    t.add_row({factor == 0.0 ? "saturated" : util::fmt_double(cfg.arrival_period * 1e3),
               util::fmt_double(r.steady_period * 1e3),
               util::fmt_double(r.mean_latency * 1e3),
               backlogged ? "yes" : "no"});
  }
  t.print(std::cout);
  std::printf("\nThroughput caps at the bottleneck; pushing the input faster only\n"
              "grows the latency (queueing in front of the bottleneck resource).\n");
  return 0;
} catch (const spgcmp::util::UsageError& e) {
  std::fprintf(stderr, "simulate_stream: %s\n", e.what());
  return 2;
}
