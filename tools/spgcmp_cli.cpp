// spgcmp — command-line driver for the library.
//
//   spgcmp gen  --n=50 --ymax=6 --ccr=10 --seed=1 --out=app.spg
//   spgcmp info --in=app.spg
//   spgcmp map  --in=app.spg --rows=4 --cols=4 [--period=0.05]
//               [--heuristics=dpa2d1d,exact(cap=9)]
//   spgcmp sim  --in=app.spg --rows=4 --cols=4 --period=0.05 [--datasets=500]
//   spgcmp ilp  --in=app.spg --rows=2 --cols=2 --period=0.05 --out=model.lp
//   spgcmp --list-solvers
//
// `gen` writes the text serialization of a random SPG; `map` runs the
// period search (or a fixed --period) and prints the solver comparison;
// `sim` maps with the best heuristic and streams data sets through it;
// `ilp` emits the Section 4.4 integer linear program in LP format.
//
// `map` and `sim` take --heuristics=<solver list> (registry spec strings;
// default: the paper's five) and --topology=mesh|snake|torus|hetero
// (REPRO_TOPOLOGY) to select the platform interconnect.  --list-solvers
// prints the solver registry.  Unknown solvers or topologies exit 2 with
// the matching listing (the shared tools contract; see tool_common.hpp).
// Every subcommand accepts --trace=FILE / --metrics=FILE (REPRO_TRACE /
// REPRO_METRICS) to record a Chrome trace-event timeline and a metrics
// snapshot for the invocation.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "campaign/runner.hpp"
#include "harness/experiment.hpp"
#include "heuristics/ilp.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "spg/generator.hpp"
#include "spg/sp_tree.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace spgcmp;

int usage() {
  std::fprintf(stderr,
               "usage: spgcmp <gen|info|map|sim|ilp> [--key=value ...]\n"
               "       spgcmp --list-solvers\n"
               "see the header of tools/spgcmp_cli.cpp for details\n");
  return 2;
}

spg::Spg load(const util::Args& args) {
  const auto in = args.get("in");
  if (!in || in->empty()) throw std::runtime_error("missing --in=<file>");
  std::ifstream is(*in);
  if (!is) throw std::runtime_error("cannot open " + *in);
  return spg::Spg::parse(is);
}

cmp::Platform platform_of(const util::Args& args) {
  const int rows = static_cast<int>(args.get_int("rows", "REPRO_ROWS", 4));
  const int cols = static_cast<int>(args.get_int("cols", "REPRO_COLS", 4));
  const std::string topology =
      args.get_string("topology", "REPRO_TOPOLOGY", "mesh");
  return cmp::Platform::reference(topology, rows, cols);
}

int cmd_gen(const util::Args& args) {
  const auto n = static_cast<std::size_t>(args.get_int("n", "", 50));
  const int ymax = static_cast<int>(args.get_int("ymax", "", 6));
  const double ccr = args.get_double("ccr", "", 10.0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", "", 1));
  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(n, ymax, rng);
  g.rescale_ccr(ccr);
  const auto out = args.get("out");
  if (out && !out->empty()) {
    std::ofstream os(*out);
    g.serialize(os);
    std::printf("wrote %s (n=%zu, ymax=%d, ccr=%.3f)\n", out->c_str(), g.size(),
                g.ymax(), g.ccr());
  } else {
    g.serialize(std::cout);
  }
  return 0;
}

int cmd_info(const util::Args& args) {
  const spg::Spg g = load(args);
  if (auto err = g.validate()) {
    std::printf("INVALID: %s\n", err->c_str());
    return 1;
  }
  std::printf("stages: %zu\nedges: %zu\nymax: %d\nxmax: %d\nCCR: %.4f\n"
              "total work: %.4e cycles\ntotal comm: %.4e bytes\n",
              g.size(), g.edge_count(), g.ymax(), g.xmax(), g.ccr(),
              g.total_work(), g.total_bytes());
  if (const auto tree = spg::SpTree::decompose(g)) {
    std::printf("series-parallel: yes (%zu series, %zu parallel, depth %zu)\n",
                tree->series_count(), tree->parallel_count(), tree->depth());
    const auto ideals = tree->ideal_count(1'000'000'000ULL);
    if (ideals > 1'000'000'000ULL) {
      std::printf("admissible subgraphs: > 1e9 (DPA1D will refuse)\n");
    } else {
      std::printf("admissible subgraphs: %llu\n",
                  static_cast<unsigned long long>(ideals));
    }
  } else {
    std::printf("series-parallel: no\n");
  }
  if (const auto dot = args.get("dot"); dot && !dot->empty()) {
    std::ofstream os(*dot);
    g.to_dot(os);
    std::printf("wrote %s\n", dot->c_str());
  }
  return 0;
}

int cmd_map(const util::Args& args) {
  // Configuration first, I/O second: a bad solver or topology spec is
  // diagnosed (exit 2 + listing) even when --in doesn't resolve.
  const auto solvers = tools::solvers_of(
      args, static_cast<std::uint64_t>(args.get_int("seed", "", 42)));
  const auto p = platform_of(args);
  const spg::Spg g = load(args);
  harness::Campaign c;
  if (args.has("period")) {
    c = harness::run_at_period(g, p, solvers, args.get_double("period", "", 1.0));
  } else {
    c = harness::run_campaign(g, p, solvers);
  }
  std::printf("period bound: %g s\n", c.period);
  if (p.topology.kind() != cmp::TopologyKind::Mesh) {
    std::printf("topology: %s\n", p.topology.name().c_str());
  }
  util::Table t({"solver", "status", "energy (mJ)", "E/Emin", "cores", "ms",
                 "evals"});
  const auto summary = campaign::summarize(c);
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    const auto& r = c.results[h];
    const std::string ms = util::fmt_double(c.stats[h].wall_seconds * 1e3, 2);
    const std::string evals = std::to_string(c.stats[h].evaluator_calls());
    if (!r.success) {
      t.add_row({c.names[h], "FAIL: " + r.failure, "-", "-", "-", ms, evals});
      continue;
    }
    t.add_row({c.names[h], "ok", util::fmt_double(r.eval.energy * 1e3),
               util::fmt_double(summary.normalized_energy(h), 4),
               std::to_string(r.eval.active_cores), ms, evals});
  }
  t.print(std::cout);

  if (args.has("show-placement")) {
    for (std::size_t h = 0; h < c.results.size(); ++h) {
      if (!c.results[h].success) continue;
      std::printf("\n%s placement (stage -> core row,col):\n", c.names[h].c_str());
      for (spg::StageId i = 0; i < g.size(); ++i) {
        const auto core = p.grid().core_at(c.results[h].mapping.core_of[i]);
        std::printf("  S%zu -> (%d,%d)\n", i, core.row, core.col);
      }
      break;  // best-effort: show the first successful one
    }
  }
  return c.success_count() > 0 ? 0 : 1;
}

int cmd_sim(const util::Args& args) {
  const auto solvers = tools::solvers_of(args, 42);
  const auto p = platform_of(args);
  const spg::Spg g = load(args);
  const double T = args.get_double("period", "", 0.0);
  const auto c = T > 0 ? harness::run_at_period(g, p, solvers, T)
                       : harness::run_campaign(g, p, solvers);
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
    std::fprintf(stderr, "no heuristic found a mapping at T=%g\n", c.period);
    return 1;
  }
  sim::SimConfig cfg;
  cfg.arrival_period = c.period;
  cfg.datasets = static_cast<std::size_t>(args.get_int("datasets", "", 500));
  cfg.warmup = cfg.datasets / 5;
  const auto fifo = sim::simulate(g, p, best->mapping, cfg);
  cfg.policy = sim::Policy::PeriodicModulo;
  const auto periodic = sim::simulate(g, p, best->mapping, cfg);
  std::printf("mapping: %s at T=%g s, energy %.4f mJ/data set\n", best_name.c_str(),
              c.period, best->eval.energy * 1e3);
  std::printf("fifo policy:     steady period %.6f s, latency %.6f s\n",
              fifo.steady_period, fifo.mean_latency);
  std::printf("periodic policy: steady period %.6f s, latency %.6f s\n",
              periodic.steady_period, periodic.mean_latency);
  return 0;
}

int cmd_ilp(const util::Args& args) {
  const spg::Spg g = load(args);
  const auto p = platform_of(args);
  const double T = args.get_double("period", "", 1.0);
  const auto out = args.get("out");
  // Built in memory first: a rejected topology touches no file.
  std::ostringstream model;
  const heuristics::IlpStats stats = heuristics::emit_ilp(g, p, T, model);
  if (out && !out->empty()) {
    std::ofstream(*out) << model.str();
    std::printf("wrote %s\n", out->c_str());
  } else {
    std::cout << model.str();
  }
  std::fprintf(stderr, "%zu binary variables, %zu constraints\n", stats.variables,
               stats.constraints);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  return tools::run_tool("spgcmp", [&]() -> int {
    const util::Args args(argc, argv,
                          {"in", "out", "rows", "cols", "topology", "n", "ymax", "ccr",
                           "seed", "dot", "period", "show-placement", "datasets",
                           "heuristics", "list-solvers", "trace", "metrics"});
    const auto obs_files = obs::ScopedFiles::from_args(args);
    if (tools::handle_list_solvers(args)) return 0;
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "map") return cmd_map(args);
    if (cmd == "sim") return cmd_sim(args);
    if (cmd == "ilp") return cmd_ilp(args);
    return usage();
  });
}
