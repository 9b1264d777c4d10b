#pragma once

// DPA1D — Sections 4.1 and 5.4.
//
// The CMP is configured as a uni-directional uni-line of r = p*q cores by
// embedding a snake (boustrophedon) walk in the grid.  On that line, the
// dynamic program of Theorem 1 is exact for bounded-elevation SPGs: states
// are the admissible subgraphs (order ideals) of the SPG, and a transition
// peels one cluster off the frontier, paying its computation energy at the
// slowest feasible speed plus the cut energy on the link it crosses, while
// checking the cut bandwidth against T * BW.
//
// The ideal count grows like n^ymax, so the implementation carries explicit
// budgets on distinct states and on cluster enumerations; exceeding either
// reports failure — exactly the regime where the paper's DPA1D "fails to
// return a solution because there are too many possible splits to explore".
// The other failures are "no feasible line partition" (no chain of
// clusters meets the period) and "internal: ..." (the reconstruction cannot
// replay the DP table: a bug, never an infeasible instance).
//
// On heterogeneous fabrics the cluster sizing is scale-aware: cluster k
// runs on snake core k, so its weight cap and energy use that core's
// core_speed_scale instead of assuming homogeneous full-speed cores.

#include <cstddef>

#include "heuristics/heuristic.hpp"

namespace spgcmp::heuristics {

class Dpa1dHeuristic final : public Heuristic {
 public:
  struct Options {
    /// Cap on the DP table, enforced before the DP starts: the solve fails
    /// with "budget" when the stage poset has more than max_states order
    /// ideals (spg::ideal_count, the empty ideal included).  Every DP state
    /// is a nonempty ideal, so the table stays below the cap.  On an SP
    /// graph with at most 2^22 ideals, states are looked up by the ideal's
    /// perfect rank in an array of 4 bytes per ideal; otherwise by hash.
    std::size_t max_states = 200000;
    /// Cap on candidate clusters.  A candidate is a cluster H added to an
    /// ideal G such that G ∪ H is again an ideal and w(H) <= T * s_max *
    /// (largest speed scale on the snake).  Candidates are enumerated once
    /// from the empty ideal and once from every DP state that is not the
    /// full stage set and whose outgoing cut fits the link bandwidth; each
    /// counts one, whatever its energy.  The solve fails with "budget" at
    /// candidate max_expansions + 1, so a solve that needs E candidates
    /// succeeds exactly when max_expansions >= E.
    std::size_t max_expansions = 4000000;
  };

  Dpa1dHeuristic() : Dpa1dHeuristic(Options{}) {}
  explicit Dpa1dHeuristic(Options options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "DPA1D"; }
  [[nodiscard]] Result run(const spg::Spg& g, const cmp::Platform& p,
                           double T) const override;

 private:
  Options options_;
};

}  // namespace spgcmp::heuristics
