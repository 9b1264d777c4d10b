#pragma once

// Experiment harness — Section 6.1.3: the period-bound search behind every
// table and figure of Section 6.2.
//
// Period-bound selection follows the paper: start at T = 1 s (at least one
// heuristic succeeds there for all studied workloads), divide by 10 until
// *all* heuristics fail, and retain the penultimate value.  The heuristics
// are then compared at that retained bound; individual failures at the
// retained bound are what Tables 2 and 3 count.

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

/// Run every solver of the set with the paper's period-bound search.  The
/// set is instantiated once and reused at every period the search visits.
[[nodiscard]] Campaign run_campaign(const spg::Spg& g, const cmp::Platform& p,
                                    const solve::SolverSet& solvers);

/// Run every solver of the set at a fixed period bound.
[[nodiscard]] Campaign run_at_period(const spg::Spg& g, const cmp::Platform& p,
                                     const solve::SolverSet& solvers, double T);

}  // namespace spgcmp::harness
