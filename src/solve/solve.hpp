#pragma once

// SolveRequest / SolveReport — the one call that runs a solver on an
// instance and hands back the result *with* its diagnostics, so callers
// stop re-deriving wall time and evaluator throughput ad hoc.
//
// Stats come from two sources: a steady-clock fence around Heuristic::run,
// and a per-solve mapping::EvalCounters installed on the calling thread for
// the duration of the run.  A solver runs on the thread that calls
// solve::run: evaluator calls on threads a solver starts itself are not
// counted.  Sweep workers collect per-solver trajectories for free.

#include <cstdint>

#include "heuristics/heuristic.hpp"
#include "solve/registry.hpp"

namespace spgcmp::solve {

/// One solve instance.  `spg` and `platform` must outlive the call.
/// Work bounds are per-solver options (random trials, exact candidate
/// caps, DPA1D state/expansion budgets), not request fields — heuristics
/// are synchronous and cannot be preempted mid-run.
struct SolveRequest {
  const spg::Spg* spg = nullptr;
  const cmp::Platform* platform = nullptr;
  double period = 0.0;      ///< the period bound T
  std::uint64_t seed = 42;  ///< context seed for by-name solves
};

/// Diagnostics of one solve (or an aggregation over several).
struct SolveStats {
  double wall_seconds = 0.0;
  std::uint64_t full_evals = 0;         ///< evaluate_full / free evaluate()
  std::uint64_t placement_evals = 0;    ///< evaluate_placement fast path
  std::uint64_t incremental_evals = 0;  ///< evaluate_move / refresh delta path
  std::uint64_t batch_evals = 0;        ///< candidates scored by batch APIs

  [[nodiscard]] std::uint64_t evaluator_calls() const noexcept {
    return full_evals + placement_evals + incremental_evals + batch_evals;
  }
  /// Share of evaluator calls served by a fast path (placement,
  /// incremental, or batched); 0 when no evaluator ran.
  [[nodiscard]] double incremental_hit_rate() const noexcept {
    const std::uint64_t total = evaluator_calls();
    if (total == 0) return 0.0;
    return static_cast<double>(placement_evals + incremental_evals +
                               batch_evals) /
           static_cast<double>(total);
  }
  SolveStats& operator+=(const SolveStats& o) noexcept;
};

struct SolveReport {
  heuristics::Result result;
  SolveStats stats;
};

/// Run an already-built solver on one instance.
[[nodiscard]] SolveReport run(const heuristics::Heuristic& solver,
                              const SolveRequest& request);

/// Resolve `spec` through the registry (seeded from request.seed), run it.
[[nodiscard]] SolveReport run(std::string_view spec,
                              const SolveRequest& request);

}  // namespace spgcmp::solve
