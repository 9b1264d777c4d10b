// Ablation studies for the design choices called out in DESIGN.md:
//   (a) Greedy's speed-downgrading step (Section 5.2) — how much energy it
//       saves versus keeping the construction speed;
//   (b) Random's trial count — 10 trials (paper) versus 1 and 50;
//   (c) DPA1D's exploration budget — success rate versus budget on
//       mid-elevation graphs;
//   (d) the exact solver's YX-route extension — whether the second minimal
//       route shape ever wins on a 2x2 mesh;
//   (e) general mappings versus the DAG-partition rule (paper future work) —
//       the optimal energy gap on tiny instances;
//   (f) link DVFS (paper future work) — communication energy saved by
//       relaxing underutilized links to slower modes;
//   (g) local-search refinement — how much energy headroom each heuristic's
//       mapping leaves for single-stage relocation.

#include <cstdio>
#include <iostream>

#include "heuristics/dpa1d.hpp"
#include "heuristics/exact.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/random_heuristic.hpp"
#include "heuristics/refine.hpp"
#include "mapping/link_dvfs.hpp"
#include "obs/obs.hpp"
#include "solve/registry.hpp"
#include "spg/generator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace spgcmp;

spg::Spg workload(std::uint64_t seed, std::size_t n, int y, double ccr) {
  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(n, y, rng);
  g.rescale_ccr(ccr);
  return g;
}

double period_for(const spg::Spg& g, const cmp::Platform& p) {
  return g.total_work() / (0.5 * p.grid().core_count() * 0.6e9);
}

void greedy_downgrade_ablation(std::size_t reps) {
  std::printf("\n(a) Greedy speed downgrading (mean energy ratio, %zu workloads)\n",
              reps);
  const auto p = cmp::Platform::reference(4, 4);
  double ratio_sum = 0;
  std::size_t both = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto g = workload(100 + i, 40, 6, 10);
    const double T = period_for(g, p);
    const auto with = heuristics::GreedyHeuristic(true).run(g, p, T);
    const auto without = heuristics::GreedyHeuristic(false).run(g, p, T);
    if (with.success && without.success) {
      ratio_sum += without.eval.energy / with.eval.energy;
      ++both;
    }
  }
  if (both > 0) {
    std::printf("    E(no downgrade) / E(downgrade) = %.3f over %zu instances\n",
                ratio_sum / static_cast<double>(both), both);
  } else {
    std::printf("    no instance solved by both variants\n");
  }
}

void random_trials_ablation(std::size_t reps) {
  std::printf("\n(b) Random heuristic trial count (success rate / mean energy)\n");
  const auto p = cmp::Platform::reference(4, 4);
  util::Table t({"trials", "successes", "mean energy (mJ)"});
  for (const int trials : {1, 10, 50}) {
    std::size_t ok = 0;
    double energy = 0;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto g = workload(200 + i, 40, 6, 1);
      const double T = period_for(g, p);
      const auto r = heuristics::RandomHeuristic(7, trials).run(g, p, T);
      if (r.success) {
        ++ok;
        energy += r.eval.energy;
      }
    }
    t.add_row({std::to_string(trials),
               std::to_string(ok) + "/" + std::to_string(reps),
               ok ? util::fmt_double(energy / static_cast<double>(ok) * 1e3) : "-"});
  }
  t.print(std::cout);
}

void dpa1d_budget_ablation(std::size_t reps) {
  std::printf("\n(c) DPA1D exploration budget vs success rate (n=40, ymax=6)\n");
  const auto p = cmp::Platform::reference(4, 4);
  util::Table t({"max states", "max expansions", "successes"});
  for (const auto& [states, exps] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1000, 10000}, {20000, 200000}, {200000, 4000000}}) {
    std::size_t ok = 0;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto g = workload(300 + i, 40, 6, 10);
      heuristics::Dpa1dHeuristic::Options opt;
      opt.max_states = states;
      opt.max_expansions = exps;
      if (heuristics::Dpa1dHeuristic(opt).run(g, p, period_for(g, p)).success) ++ok;
    }
    t.add_row({std::to_string(states), std::to_string(exps),
               std::to_string(ok) + "/" + std::to_string(reps)});
  }
  t.print(std::cout);
}

void yx_routes_ablation(std::size_t reps) {
  std::printf("\n(d) Exact solver: XY-only vs XY+YX routes on a 2x2 mesh\n");
  const auto p = cmp::Platform::reference(2, 2);
  std::size_t yx_wins = 0, both = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto g = workload(400 + i, 7, 2, 0.1);
    const double T = period_for(g, p) * 0.9;
    heuristics::ExactSolver::Options xy_only;
    xy_only.try_yx_routes = false;
    const auto a = heuristics::ExactSolver(xy_only).run(g, p, T);
    const auto b = heuristics::ExactSolver().run(g, p, T);
    if (b.success) {
      ++both;
      if (!a.success || b.eval.energy < a.eval.energy * (1 - 1e-12)) ++yx_wins;
    }
  }
  std::printf("    YX strictly improved %zu of %zu solvable instances\n", yx_wins,
              both);
}

void general_mapping_ablation(std::size_t reps) {
  std::printf("\n(e) General mappings vs DAG-partition (exact, 2x2, n=6)\n");
  const auto p = cmp::Platform::reference(2, 2);
  double gap_sum = 0;
  std::size_t both = 0, strict = 0, general_only = 0;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto g = workload(500 + i, 6, 2, 1.0);
    const double T = period_for(g, p) * 0.8;
    const auto dag = heuristics::ExactSolver().run(g, p, T);
    heuristics::ExactSolver::Options opt;
    opt.require_dag_partition = false;
    const auto gen = heuristics::ExactSolver(opt).run(g, p, T);
    if (gen.success && !dag.success) ++general_only;
    if (gen.success && dag.success) {
      ++both;
      gap_sum += dag.eval.energy / gen.eval.energy;
      if (gen.eval.energy < dag.eval.energy * (1 - 1e-9)) ++strict;
    }
  }
  if (both > 0) {
    std::printf("    E(DAG-partition) / E(general) = %.4f mean over %zu; general "
                "strictly better on %zu; feasible only as general: %zu\n",
                gap_sum / static_cast<double>(both), both, strict, general_only);
  } else {
    std::printf("    no instance solvable under both rules\n");
  }
}

void link_dvfs_ablation(std::size_t reps) {
  std::printf("\n(f) Link DVFS savings on Greedy mappings (n=40, 4x4)\n");
  const auto p = cmp::Platform::reference(4, 4);
  util::Table t({"CCR", "mean comm energy saving", "mean total energy saving"});
  for (const double ccr : {10.0, 1.0, 0.1}) {
    double comm_save = 0, total_save = 0;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto g = workload(600 + i, 40, 6, ccr);
      const double T = period_for(g, p);
      const auto r = heuristics::GreedyHeuristic().run(g, p, T);
      if (!r.success) continue;
      const auto res = mapping::downscale_links(g, p, r.mapping, T);
      if (!res.feasible) continue;
      ++ok;
      if (res.comm_energy_full > 0) {
        comm_save += res.saving() / res.comm_energy_full;
      }
      total_save += res.saving() / r.eval.energy;
    }
    t.add_row({util::fmt_double(ccr, 3),
               ok ? util::fmt_double(comm_save / static_cast<double>(ok) * 100, 3) + "%"
                  : "-",
               ok ? util::fmt_double(total_save / static_cast<double>(ok) * 100, 3) + "%"
                  : "-"});
  }
  t.print(std::cout);
}

void refinement_ablation(std::size_t reps) {
  std::printf("\n(g) Refinement headroom per heuristic (n=30, ymax=5, 4x4, CCR=1)\n");
  const auto p = cmp::Platform::reference(4, 4);
  const auto paper = solve::SolverSet::paper();
  const auto& names = paper.names();
  util::Table t({"heuristic", "refined instances", "mean energy reduction"});
  for (std::size_t h = 0; h < names.size(); ++h) {
    double gain = 0;
    std::size_t ok = 0;
    for (std::size_t i = 0; i < reps; ++i) {
      const auto g = workload(700 + i, 30, 5, 1.0);
      const double T = period_for(g, p);
      const auto r = paper.instantiate()[h]->run(g, p, T);
      if (!r.success) continue;
      const auto ref = heuristics::refine_mapping(g, p, T, r.mapping);
      if (!ref.success) continue;
      ++ok;
      gain += 1.0 - ref.eval.energy / r.eval.energy;
    }
    t.add_row({names[h], std::to_string(ok) + "/" + std::to_string(reps),
               ok ? util::fmt_double(gain / static_cast<double>(ok) * 100, 3) + "%"
                  : "-"});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) try {
  const spgcmp::util::Args args(argc, argv, {"reps", "trace", "metrics"});
  const auto obs = spgcmp::obs::ScopedFiles::from_args(args);
  const auto reps =
      static_cast<std::size_t>(args.get_int("reps", "REPRO_ABLATION_REPS", 10));
  std::printf("Ablation studies (%zu workloads per cell)\n", reps);
  greedy_downgrade_ablation(reps);
  random_trials_ablation(reps);
  dpa1d_budget_ablation(reps);
  yx_routes_ablation(reps);
  general_mapping_ablation(reps);
  link_dvfs_ablation(reps);
  refinement_ablation(reps);
  return 0;
} catch (const spgcmp::util::UsageError& e) {
  std::fprintf(stderr, "ablation_design: %s\n", e.what());
  return 2;
}
