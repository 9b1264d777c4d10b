#pragma once

// Integer linear program of Section 4.4, emitted in CPLEX LP text format.
//
// The paper solves this ILP with ILOG CPLEX (and only manages 2x2 CMPs
// because of the communication-path variables).  CPLEX is unavailable
// offline, so this module preserves the formulation itself: it emits the
// exact variable set and constraint families of Section 4.4 so the model
// can be fed to any LP-format solver, and so tests can verify the variable
// and constraint counts against the formulas in the paper
// (n*m*p*q  x-variables, m*p*q  mode variables, 4*n^2*p*q  c-variables).
// The optimality reference used inside this repository is
// heuristics::ExactSolver.

#include <iosfwd>
#include <string>

#include "cmp/cmp.hpp"
#include "spg/spg.hpp"

namespace spgcmp::heuristics {

struct IlpStats {
  std::size_t variables = 0;
  std::size_t constraints = 0;
};

/// Emit the MinEnergy(T) ILP for (g, p, T) to `os`; returns counts.
/// Throws std::invalid_argument unless `p` is the homogeneous XY mesh the
/// formulation models.
IlpStats emit_ilp(const spg::Spg& g, const cmp::Platform& p, double T,
                  std::ostream& os);

}  // namespace spgcmp::heuristics
