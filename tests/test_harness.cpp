// Tests for the experiment harness: the paper's period-bound search
// (divide by 10, retain penultimate) and the normalization rules used by
// the figures.

#include <gtest/gtest.h>

#include <cmath>

#include "campaign/runner.hpp"
#include "harness/experiment.hpp"
#include "spg/compose.hpp"
#include "spg/streamit.hpp"

namespace {

using namespace spgcmp;
using harness::Campaign;

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
