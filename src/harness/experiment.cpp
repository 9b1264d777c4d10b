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

Campaign at_period(const spg::Spg& g, const cmp::Platform& p, const Solvers& hs,
                   double T) {
  Campaign c;
  c.period = T;
  c.names.reserve(hs.size());
  c.results.reserve(hs.size());
  c.stats.reserve(hs.size());
  solve::SolveRequest req;
  req.spg = &g;
  req.platform = &p;
  req.period = T;
  for (const auto& h : hs) {
    c.names.push_back(h->name());
    auto report = solve::run(*h, req);
    c.results.push_back(std::move(report.result));
    c.stats.push_back(report.stats);
  }
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
  return at_period(g, p, solvers.instantiate(), T);
}

Campaign run_campaign(const spg::Spg& g, const cmp::Platform& p,
                      const solve::SolverSet& solvers) {
  const Solvers hs = solvers.instantiate();
  double T = kStart;
  Campaign cur = at_period(g, p, hs, T);

  // Defensive: if even T = 1 s is infeasible for every heuristic, scale up
  // (does not happen for the paper's parameterizations; needed for
  // user-supplied extreme workloads).
  for (int up = 0; cur.success_count() == 0 && up < kMaxUpscale; ++up) {
    T *= kFactor;
    cur = at_period(g, p, hs, T);
  }
  if (cur.success_count() == 0) return cur;  // give up; caller sees failures

  // Tighten until everything fails; keep the penultimate campaign.
  for (;;) {
    const double next_T = T / kFactor;
    if (next_T < kFloor) break;
    Campaign next = at_period(g, p, hs, next_T);
    if (next.success_count() == 0) break;
    T = next_T;
    cur = std::move(next);
  }
  return cur;
}

}  // namespace spgcmp::harness
