#pragma once

// Experiment harness — Section 6.1.3: the period-bound search behind every
// table and figure of Section 6.2.
//
// Period-bound selection follows the paper: start at T = 1 s (at least one
// heuristic succeeds there for all studied workloads), divide by 10 until
// *all* heuristics fail, and retain the penultimate value.  The heuristics
// are then compared at that retained bound; individual failures at the
// retained bound are what Tables 2 and 3 count.
//
// The search needs one bit per period it probes: did any heuristic succeed?
// So a probe runs the set in order and stops at the first success; only a
// period where every heuristic fails runs them all.  Once the search stops,
// the retained period's skipped heuristics run, so the result holds every
// heuristic's outcome at the retained bound, exactly as if each had run at
// every probed period (heuristics are stateless; see heuristic.hpp).

#include <cstddef>
#include <string>
#include <vector>

#include "cmp/cmp.hpp"
#include "heuristics/heuristic.hpp"
#include "solve/solve.hpp"
#include "spg/spg.hpp"

namespace spgcmp::harness {

/// Outcome of one workload at the retained period bound.  The figures'
/// normalizations (E/Emin, 1/E) live on campaign::InstanceResult; get one
/// with campaign::summarize.
struct Campaign {
  double period = 0.0;                       ///< retained T
  std::vector<std::string> names;            ///< heuristic names, in order
  std::vector<heuristics::Result> results;   ///< one per heuristic
  std::vector<solve::SolveStats> stats;      ///< per heuristic, at retained T

  [[nodiscard]] std::size_t success_count() const;
};

/// Run the set with the paper's period-bound search: at each probed period
/// the solvers up to the first success, at the retained period all of
/// them.  The set is instantiated once and reused at every period.
[[nodiscard]] Campaign run_campaign(const spg::Spg& g, const cmp::Platform& p,
                                    const solve::SolverSet& solvers);

/// Run every solver of the set at a fixed period bound.
[[nodiscard]] Campaign run_at_period(const spg::Spg& g, const cmp::Platform& p,
                                     const solve::SolverSet& solvers, double T);

}  // namespace spgcmp::harness
