#include "solve/solve.hpp"

#include <chrono>
#include <stdexcept>

#include "mapping/evaluator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spgcmp::solve {

SolveStats& SolveStats::operator+=(const SolveStats& o) noexcept {
  wall_seconds += o.wall_seconds;
  full_evals += o.full_evals;
  placement_evals += o.placement_evals;
  incremental_evals += o.incremental_evals;
  batch_evals += o.batch_evals;
  return *this;
}

SolveReport run(const heuristics::Heuristic& solver,
                const SolveRequest& request) {
  if (request.spg == nullptr || request.platform == nullptr) {
    throw std::invalid_argument("solve::run: request needs spg and platform");
  }
  // The solver runs on this thread, so every evaluator call it makes
  // counts into this sink while the scope below installs it.
  mapping::EvalCounters calls;
  const auto t0 = std::chrono::steady_clock::now();

  SolveReport report;
  {
    obs::Span span("solve");
    if (span.active()) span.detail("solver", solver.name());
    const mapping::ScopedEvalSink scope(&calls);
    report.result = solver.run(*request.spg, *request.platform, request.period);
  }

  const auto t1 = std::chrono::steady_clock::now();
  report.stats.wall_seconds =
      std::chrono::duration<double>(t1 - t0).count();
  report.stats.full_evals = calls.full;
  report.stats.placement_evals = calls.placement;
  report.stats.incremental_evals = calls.incremental;
  report.stats.batch_evals = calls.batch;

  // Handles resolved once; steady-state cost per solve is a few relaxed
  // atomic adds on top of the counts already gathered above.
  static auto& m_solves = obs::Registry::instance().counter("solve.count");
  static auto& m_failures = obs::Registry::instance().counter("solve.failures");
  static auto& m_full = obs::Registry::instance().counter("solve.evals.full");
  static auto& m_placement =
      obs::Registry::instance().counter("solve.evals.placement");
  static auto& m_incremental =
      obs::Registry::instance().counter("solve.evals.incremental");
  static auto& m_batch = obs::Registry::instance().counter("solve.evals.batch");
  static auto& m_wall = obs::Registry::instance().histogram("solve.wall_us");
  m_solves.inc();
  if (!report.result.success) m_failures.inc();
  m_full.add(calls.full);
  m_placement.add(calls.placement);
  m_incremental.add(calls.incremental);
  m_batch.add(calls.batch);
  m_wall.observe(report.stats.wall_seconds * 1e6);
  return report;
}

SolveReport run(std::string_view spec, const SolveRequest& request) {
  const auto solver =
      SolverRegistry::instance().make(spec, SolveContext{request.seed});
  return run(*solver, request);
}

}  // namespace spgcmp::solve
