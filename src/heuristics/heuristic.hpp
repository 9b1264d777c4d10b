#pragma once

// Common interface for the five mapping heuristics of Section 5 plus the
// exact solver of Section 4.4.
//
// A heuristic receives the application SPG, the platform and the period
// bound T, and either fails (with a reason) or returns a complete Mapping
// together with its Evaluation.  Implementations must return only mappings
// that pass `mapping::evaluate` — the evaluator is the arbiter, heuristics
// never report their internal cost estimates as results.
//
// Heuristics are stateless and thread-safe: `run` is const and any
// randomness is derived deterministically from the instance seed and the
// problem signature (T included), so concurrent sweeps are reproducible.
// The period search (harness/experiment.hpp) relies on this: it runs a
// heuristic only at the periods whose verdict it needs, which must give the
// same result as running it at every period in turn.

#include <string>

#include "cmp/cmp.hpp"
#include "mapping/evaluator.hpp"
#include "mapping/mapping.hpp"
#include "spg/spg.hpp"

namespace spgcmp::heuristics {

struct Result {
  bool success = false;
  std::string failure;        ///< reason when !success
  mapping::Mapping mapping;   ///< valid mapping when success
  mapping::Evaluation eval;   ///< evaluation of `mapping` at the given T

  [[nodiscard]] static Result fail(std::string why) {
    Result r;
    r.failure = std::move(why);
    return r;
  }
};

class Heuristic {
 public:
  virtual ~Heuristic() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Result run(const spg::Spg& g, const cmp::Platform& p,
                                   double T) const = 0;
};

/// Finalize a candidate allocation: attach the platform topology's default
/// routes, downgrade speeds and evaluate; returns success only if the
/// evaluation is fully valid.
[[nodiscard]] Result finalize_with_routes(const spg::Spg& g, const cmp::Platform& p,
                                          double T, mapping::Mapping m);

/// Finalize a mapping that already carries explicit paths.
[[nodiscard]] Result finalize_with_paths(const spg::Spg& g, const cmp::Platform& p,
                                         double T, mapping::Mapping m,
                                         bool downgrade = true);

/// Same, but reusing a caller-held Evaluator's arenas (for enumeration
/// loops that finalize many candidates against one (g, p, T)).
[[nodiscard]] Result finalize_with_paths(const spg::Spg& g, const cmp::Platform& p,
                                         double T, mapping::Mapping m,
                                         bool downgrade, mapping::Evaluator& ev);

}  // namespace spgcmp::heuristics
