#pragma once

// Exact solver for tiny instances — the stand-in for the paper's ILP
// (Section 4.4), which the authors could only solve with CPLEX on a 2x2
// CMP.  CPLEX is proprietary, so we substitute exhaustive enumeration:
//
//   * every DAG-partition is generated by sequential prefix-ideal peeling
//     (each acyclic quotient admits a topological order of its clusters, so
//     the enumeration is complete);
//   * every injective cluster -> core placement is tried;
//   * communications follow XY routes (optionally also YX, to cover both
//     minimal route shapes of a 2D mesh);
//   * default-route placements are scored on the evaluator's delta path:
//     consecutive placements differ in a cluster suffix, so only the moved
//     stages' cores and routes are re-aggregated;
//   * each active core runs at the slowest feasible speed (optimal, since
//     energy is increasing in speed for a fixed assignment).
//
// Work caps keep the search tractable; exceeding them reports failure.
// Tests use this as the optimality reference for the heuristics.

#include <cstddef>

#include "heuristics/heuristic.hpp"

namespace spgcmp::heuristics {

class ExactSolver final : public Heuristic {
 public:
  struct Options {
    std::size_t max_stages = 12;        ///< refuse larger graphs
    int max_cores = 6;                  ///< refuse larger platforms
    std::size_t max_candidates = 5'000'000;  ///< placement evaluations
    bool try_yx_routes = true;          ///< explore YX besides XY per mapping
    /// false = *general mappings* (the paper's future-work relaxation):
    /// enumerate every set partition of the stages and drop the
    /// quotient-acyclicity requirement.  Results then report
    /// eval.dag_partition_ok == false when the optimum needs a cyclic
    /// quotient; such mappings are not executable by the streaming
    /// simulator but quantify the energy gap the DAG-partition rule costs.
    bool require_dag_partition = true;
  };

  ExactSolver() : ExactSolver(Options{}) {}
  explicit ExactSolver(Options options) : options_(options) {}

  [[nodiscard]] std::string name() const override { return "Exact"; }
  [[nodiscard]] Result run(const spg::Spg& g, const cmp::Platform& p,
                           double T) const override;

 private:
  Options options_;
};

}  // namespace spgcmp::heuristics
