#include "harness/experiment.hpp"

#include <memory>

namespace spgcmp::harness {

namespace {

// The paper's search: start at 1 s and divide by 10 per step.  If nothing
// succeeds at the start, multiply up at most kMaxUpscale times; never go
// below kFloor.
constexpr double kStart = 1.0;
constexpr double kFactor = 10.0;
constexpr double kFloor = 1e-12;
constexpr int kMaxUpscale = 6;

using Solvers = std::vector<std::unique_ptr<heuristics::Heuristic>>;

/// Run the solvers `c` has no result for yet, in set order, at c.period;
/// with `stop_at_success`, stop after the first one that succeeds.
void extend(Campaign& c, const spg::Spg& g, const cmp::Platform& p,
            const Solvers& hs, bool stop_at_success) {
  solve::SolveRequest req;
  req.spg = &g;
  req.platform = &p;
  req.period = c.period;
  while (c.results.size() < hs.size()) {
    const auto& h = hs[c.results.size()];
    c.names.push_back(h->name());
    auto report = solve::run(*h, req);
    const bool success = report.result.success;
    c.results.push_back(std::move(report.result));
    c.stats.push_back(report.stats);
    if (stop_at_success && success) return;
  }
}

Campaign at_period(const spg::Spg& g, const cmp::Platform& p, const Solvers& hs,
                   double T, bool stop_at_success) {
  Campaign c;
  c.period = T;
  c.names.reserve(hs.size());
  c.results.reserve(hs.size());
  c.stats.reserve(hs.size());
  extend(c, g, p, hs, stop_at_success);
  return c;
}

}  // namespace

std::size_t Campaign::success_count() const {
  std::size_t c = 0;
  for (const auto& r : results) c += r.success;
  return c;
}

Campaign run_at_period(const spg::Spg& g, const cmp::Platform& p,
                       const solve::SolverSet& solvers, double T) {
  return at_period(g, p, solvers.instantiate(), T, false);
}

Campaign run_campaign(const spg::Spg& g, const cmp::Platform& p,
                      const solve::SolverSet& solvers) {
  // A probe only answers "did any solver succeed at T?" (experiment.hpp).
  const Solvers hs = solvers.instantiate();
  const auto probe = [&](double T) { return at_period(g, p, hs, T, true); };
  double T = kStart;
  Campaign cur = probe(T);

  // Defensive: if even T = 1 s is infeasible for every heuristic, scale up
  // (does not happen for the paper's parameterizations; needed for
  // user-supplied extreme workloads).
  for (int up = 0; cur.success_count() == 0 && up < kMaxUpscale; ++up) {
    T *= kFactor;
    cur = probe(T);
  }
  if (cur.success_count() == 0) return cur;  // give up; caller sees failures

  // Tighten until everything fails; keep the penultimate period and run
  // the solvers its probe skipped.  After a scale-up, T / kFactor is the
  // period that just failed, so there is nothing to tighten.
  while (T <= kStart) {
    const double next_T = T / kFactor;
    if (next_T < kFloor) break;
    Campaign next = probe(next_T);
    if (next.success_count() == 0) break;
    T = next_T;
    cur = std::move(next);
  }
  extend(cur, g, p, hs, false);
  return cur;
}

}  // namespace spgcmp::harness
