// Tests for the experiment harness: the paper's period-bound search
// (divide by 10, retain penultimate), which solvers it runs at which
// periods, and the normalization rules used by the figures.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "harness/experiment.hpp"
#include "solve/registry.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/streamit.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;
using harness::Campaign;

/// The period search run eagerly, every solver at every probed period: the
/// reference run_campaign must reproduce bit for bit.
Campaign eager_search(const spg::Spg& g, const cmp::Platform& p,
                      const solve::SolverSet& solvers) {
  double T = 1.0;
  Campaign cur = harness::run_at_period(g, p, solvers, T);
  for (int up = 0; cur.success_count() == 0 && up < 6; ++up) {
    T *= 10.0;
    cur = harness::run_at_period(g, p, solvers, T);
  }
  if (cur.success_count() == 0) return cur;
  for (;;) {
    const double next_T = T / 10.0;
    if (next_T < 1e-12) break;
    Campaign next = harness::run_at_period(g, p, solvers, next_T);
    if (next.success_count() == 0) break;
    T = next_T;
    cur = std::move(next);
  }
  return cur;
}

void expect_same_campaign(const Campaign& lazy, const Campaign& eager) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lazy.period),
            std::bit_cast<std::uint64_t>(eager.period));
  ASSERT_EQ(lazy.names, eager.names);
  ASSERT_EQ(lazy.results.size(), eager.names.size());
  ASSERT_EQ(eager.results.size(), eager.names.size());
  ASSERT_EQ(lazy.stats.size(), eager.names.size());
  ASSERT_EQ(eager.stats.size(), eager.names.size());
  for (std::size_t h = 0; h < eager.names.size(); ++h) {
    SCOPED_TRACE(eager.names[h]);
    const auto& a = lazy.results[h];
    const auto& b = eager.results[h];
    EXPECT_EQ(a.success, b.success);
    EXPECT_EQ(a.failure, b.failure);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.eval.energy),
              std::bit_cast<std::uint64_t>(b.eval.energy));
    EXPECT_EQ(a.mapping.core_of, b.mapping.core_of);
    EXPECT_EQ(a.mapping.mode_of_core, b.mapping.mode_of_core);
    const auto& s = lazy.stats[h];
    const auto& t = eager.stats[h];
    EXPECT_EQ(s.full_evals, t.full_evals);
    EXPECT_EQ(s.placement_evals, t.placement_evals);
    EXPECT_EQ(s.incremental_evals, t.incremental_evals);
    EXPECT_EQ(s.batch_evals, t.batch_evals);
  }
}

/// Every T a `test_period_probe` solver has been called at, in call order.
std::vector<double>& probe_calls() {
  static std::vector<double> calls;
  return calls;
}

/// A solver that records the period it runs at and always fails, so it
/// never changes the search's verdict.
void register_period_probe() {
  static const solve::SolverRegistrar reg(
      {"test_period_probe", "records each period it runs at (test-only)", {}, false},
      [](const solve::SolverOptions&, const solve::SolveContext&,
         std::unique_ptr<heuristics::Heuristic>) -> std::unique_ptr<heuristics::Heuristic> {
        class PeriodProbe final : public heuristics::Heuristic {
         public:
          [[nodiscard]] std::string name() const override { return "PeriodProbe"; }
          [[nodiscard]] heuristics::Result run(const spg::Spg&, const cmp::Platform&,
                                               double T) const override {
            probe_calls().push_back(T);
            return heuristics::Result::fail("probe");
          }
        };
        return std::make_unique<PeriodProbe>();
      });
}

TEST(PeriodSearch, RetainsPenultimateBound) {
  // Single-stage-like workload with known feasibility threshold: chain of 4
  // stages, 1e8 cycles each; on one core at 1 GHz the absolute limit is
  // 0.4 s (spread over 4 cores of a 2x2: 0.1 s).  Starting from 1 s and
  // dividing by 10, T = 0.1 is feasible (perfect split) and T = 0.01 is
  // not, so the search must retain T in (0.01, 0.1].
  spg::Spg g = spg::chain(4, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  const Campaign c = harness::run_campaign(g, p, solve::SolverSet::paper(1));
  EXPECT_GE(c.success_count(), 1u);
  EXPECT_LE(c.period, 0.1 * (1 + 1e-9));
  EXPECT_GT(c.period, 0.01);
}

TEST(PeriodSearch, TighterThanStartWhenEasy) {
  // A tiny workload is feasible far below 1 s; the retained bound must be
  // well under the start.
  spg::Spg g = spg::chain(3, 1e6, 10.0);
  const auto p = cmp::Platform::reference(2, 2);
  const Campaign c = harness::run_campaign(g, p, solve::SolverSet::paper(2));
  EXPECT_GE(c.success_count(), 1u);
  EXPECT_LT(c.period, 0.1);
}

TEST(PeriodSearch, MatchesTheEagerSearch) {
  // Random SPGs on every topology and grid shape, for the paper set and
  // two sets whose first solver differs, then the scale-up and give-up
  // paths: the lazy search keeps the same period and, per solver, the same
  // result and evaluator work.
  const std::vector<solve::SolverSet> sets = {
      solve::SolverSet::paper(5), solve::SolverSet::parse("dpa1d,random,greedy"),
      solve::SolverSet::parse("greedy+refine,peft,anneal")};
  const char* const topologies[] = {"mesh", "torus", "hetero", "snake"};
  const int shapes[][2] = {{2, 2}, {2, 3}, {3, 3}, {4, 4}};
  util::Rng rng(2011);
  for (int rep = 0; rep < 30; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(8, 30));
    const int y = static_cast<int>(rng.uniform_int(1, 6));
    spg::Spg g = spg::random_spg(n, y, rng);
    g.rescale_ccr(rep % 3 == 0 ? 10.0 : 1.0);
    const char* topology = topologies[rep % 4];
    const auto& shape = shapes[(rep / 4) % 4];
    const auto p = cmp::Platform::reference(topology, shape[0], shape[1]);
    for (std::size_t s = 0; s < sets.size(); ++s) {
      SCOPED_TRACE(::testing::Message() << "rep=" << rep << " n=" << n << " y=" << y
                                        << " " << topology << " " << shape[0] << "x"
                                        << shape[1] << " set=" << s);
      expect_same_campaign(harness::run_campaign(g, p, sets[s]),
                           eager_search(g, p, sets[s]));
    }
  }

  // Scaling up: 5e9 cycles per stage fail at T = 1 s on every core, so the
  // search scales up to T = 10 s and keeps it.
  const auto p = cmp::Platform::reference(2, 2);
  const spg::Spg slow = spg::chain(4, 5e9, 1e3);
  const Campaign up = harness::run_campaign(slow, p, sets[0]);
  EXPECT_EQ(up.period, 10.0);
  EXPECT_GE(up.success_count(), 1u);
  expect_same_campaign(up, eager_search(slow, p, sets[0]));

  // Giving up: 1e16 cycles fail even at T = 1e6 s, the last period the
  // search tries, where every solver runs and fails.
  const spg::Spg hopeless = spg::chain(3, 1e16, 1e3);
  const Campaign none = harness::run_campaign(hopeless, p, sets[0]);
  EXPECT_EQ(none.period, 1e6);
  EXPECT_EQ(none.results.size(), sets[0].size());
  EXPECT_EQ(none.success_count(), 0u);
  expect_same_campaign(none, eager_search(hopeless, p, sets[0]));
}

TEST(PeriodSearch, RunsSolversOnlyWhereTheSearchNeedsThem) {
  // RetainsPenultimateBound's chain: Random succeeds at T = 1 s, a DP
  // heuristic at 0.1 s, nothing at 0.01 s.
  register_period_probe();
  const spg::Spg g = spg::chain(4, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  const double kept = 1.0 / 10.0;
  const double tenth = kept / 10.0;

  // Behind the paper heuristics, the probe is needed only where their
  // verdict cannot answer: at 0.01 s, which must prove that everything
  // fails, and at the retained 0.1 s, whose results the campaign reports.
  probe_calls().clear();
  const Campaign last = harness::run_campaign(
      g, p, solve::SolverSet::parse("random,greedy,dpa2d,dpa1d,dpa2d1d,test_period_probe"));
  EXPECT_EQ(last.period, kept);
  ASSERT_EQ(last.names.size(), 6u);
  EXPECT_EQ(last.results[5].failure, "probe");
  auto calls = probe_calls();
  std::sort(calls.begin(), calls.end());
  EXPECT_EQ(calls, (std::vector<double>{tenth, kept}));

  // First in the set, it runs once at every probed period.
  probe_calls().clear();
  const Campaign first = harness::run_campaign(
      g, p, solve::SolverSet::parse("test_period_probe,random,greedy,dpa2d,dpa1d,dpa2d1d"));
  EXPECT_EQ(first.period, kept);
  ASSERT_EQ(first.names.size(), 6u);
  EXPECT_EQ(probe_calls(), (std::vector<double>{1.0, kept, tenth}));

  // Scaling up: everything fails at 1 s and 10 s is retained, so 1 s is
  // not probed a second time.
  probe_calls().clear();
  const Campaign up = harness::run_campaign(
      spg::chain(4, 5e9, 1e3), p,
      solve::SolverSet::parse("test_period_probe,random,greedy,dpa2d,dpa1d,dpa2d1d"));
  EXPECT_EQ(up.period, 10.0);
  EXPECT_EQ(probe_calls(), (std::vector<double>{1.0, 10.0}));
}

TEST(Campaign, NormalizationRules) {
  spg::Spg g = spg::make_streamit(7);  // DCT: small pipeline
  const auto p = cmp::Platform::reference(4, 4);
  const Campaign c = harness::run_campaign(g, p, solve::SolverSet::paper(3));
  ASSERT_GE(c.success_count(), 1u);
  const auto r = campaign::summarize(c);
  const double best = r.best_energy();
  ASSERT_GT(best, 0.0);
  bool saw_one = false;
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (!c.results[h].success) {
      EXPECT_EQ(r.normalized_energy(h), 0.0);
      continue;
    }
    EXPECT_GE(r.normalized_energy(h), 1.0 - 1e-12);
    EXPECT_LE(r.normalized_inverse_energy(h), 1.0 + 1e-12);
    if (std::abs(r.normalized_energy(h) - 1.0) < 1e-12) saw_one = true;
    EXPECT_NEAR(r.normalized_energy(h) * r.normalized_inverse_energy(h), 1.0,
                1e-9);
  }
  EXPECT_TRUE(saw_one) << "some heuristic must achieve the minimum";
}

TEST(Campaign, RunAtFixedPeriodReportsAllHeuristics) {
  spg::Spg g = spg::chain(5, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  const Campaign c = harness::run_at_period(g, p, solve::SolverSet::paper(4), 1.0);
  EXPECT_EQ(c.results.size(), 5u);
  EXPECT_EQ(c.names.size(), 5u);
  EXPECT_EQ(c.names[0], "Random");
  EXPECT_DOUBLE_EQ(c.period, 1.0);
}

}  // namespace
