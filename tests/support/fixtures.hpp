#pragma once

// Canonical tiny fixtures shared across the gtest suites.
//
// Before this header existed, each suite inlined its own period picker and
// ad-hoc graphs; keeping one copy here means a change to the reference
// platform or the period heuristic updates every suite at once.

#include <cstdint>
#include <vector>

#include "cmp/cmp.hpp"
#include "harness/sweep_engine.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/spg.hpp"
#include "util/rng.hpp"

namespace spgcmp::test {

/// A period bound that makes the problem feasible but not trivial: total
/// work spread over `core_fraction` of the cores at mid speed (0.6 GHz on
/// the XScale table).
[[nodiscard]] inline double pick_period(const spg::Spg& g, const cmp::Platform& p,
                                        double core_fraction = 0.5,
                                        double speed_hz = 0.6e9) {
  const double per_core = g.total_work() / (core_fraction * p.grid().core_count());
  return per_core / speed_hz;
}

/// Period sized so the workload needs roughly `cores` cores at `speed_hz`.
[[nodiscard]] inline double period_for_cores(const spg::Spg& g, double cores,
                                             double speed_hz = 0.6e9) {
  return g.total_work() / (cores * speed_hz);
}

/// The diamond src -> {m1, m2} -> snk with uniform work/volume: the
/// smallest graph whose clustering can produce a cyclic quotient.
[[nodiscard]] inline spg::Spg diamond(double work = 1e8, double bytes = 1.0) {
  return spg::Spg(
      {{work, 1, 1, ""}, {work, 2, 1, ""}, {work, 2, 2, ""}, {work, 3, 1, ""}},
      {{0, 1, bytes}, {0, 2, bytes}, {1, 3, bytes}, {2, 3, bytes}});
}

/// Random SPG with pinned CCR, seeded in isolation (does not perturb any
/// caller-held generator).
[[nodiscard]] inline spg::Spg random_workload(std::uint64_t seed, std::size_t n,
                                              int ymax, double ccr) {
  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(n, ymax, rng);
  g.rescale_ccr(ccr);
  return g;
}

/// `count` sweep tasks of stream `seed_base`: task w draws a random SPG
/// (n stages, elevation ymax, pinned CCR) from instance_seed(seed_base, w),
/// so random_workload(tasks[w].seed, n, ymax, ccr) is its workload.
[[nodiscard]] inline std::vector<harness::GeneratedTask> random_tasks(
    std::size_t count, std::uint64_t seed_base, std::size_t n, int ymax, double ccr) {
  std::vector<harness::GeneratedTask> tasks;
  for (std::size_t w = 0; w < count; ++w) {
    tasks.push_back({harness::instance_seed(seed_base, w), [=](util::Rng& rng) {
                       spg::Spg g = spg::random_spg(n, ymax, rng);
                       g.rescale_ccr(ccr);
                       return g;
                     }});
  }
  return tasks;
}

/// The campaigns of tasks [first, last), in task order, run through the
/// instance pipeline as one batch on `threads` workers.
[[nodiscard]] inline std::vector<harness::Campaign> run_tasks(
    const std::vector<harness::GeneratedTask>& tasks, std::size_t first,
    std::size_t last, const cmp::Platform& p, const solve::SolverSet& solvers,
    std::size_t threads) {
  std::vector<harness::Campaign> campaigns(last - first);
  std::vector<harness::Batch> one;
  one.push_back({last - first,
                 [&](std::size_t i) {
                   campaigns[i] = harness::run_task(tasks[first + i], first + i, p, solvers);
                 },
                 nullptr});
  harness::run_pipeline(std::move(one), threads);
  return campaigns;
}

/// The paper's reference platforms by shorthand.
[[nodiscard]] inline cmp::Platform grid2x2() { return cmp::Platform::reference(2, 2); }
[[nodiscard]] inline cmp::Platform grid4x4() { return cmp::Platform::reference(4, 4); }
[[nodiscard]] inline cmp::Platform grid6x6() { return cmp::Platform::reference(6, 6); }

}  // namespace spgcmp::test
