// Cross-cutting property tests and regressions for issues found during
// development: exhaustive XY-route checks, snake-only link usage by the 1D
// heuristics, linearity of the communication energy, the period-search
// upscale path, and the Greedy corner-jump regression.

#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "heuristics/dpa1d.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/random_heuristic.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "support/checkers.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;

TEST(Property, XyRoutesExhaustive4x4) {
  const cmp::Grid g(4, 4, 1.0);
  for (int a = 0; a < g.core_count(); ++a) {
    for (int b = 0; b < g.core_count(); ++b) {
      const auto src = g.core_at(a);
      const auto dst = g.core_at(b);
      const auto path = g.xy_route(src, dst);
      ASSERT_EQ(static_cast<int>(path.size()), g.manhattan(src, dst));
      cmp::CoreId cur = src;
      for (const auto& l : path) {
        ASSERT_TRUE(l.from == cur);
        cur = g.neighbor(l.from, l.dir);
      }
      ASSERT_TRUE(cur == dst);
    }
  }
}

TEST(Property, Dpa1dUsesOnlySnakeLinks) {
  // Every link carrying load in a DPA1D mapping must join two cores that
  // are adjacent in snake order.
  spg::Spg g = spg::chain(10, 2e8, 1e5);
  const auto p = cmp::Platform::reference(3, 3);
  const auto r = heuristics::Dpa1dHeuristic().run(g, p, 0.5);
  ASSERT_TRUE(r.success) << r.failure;
  for (int c = 0; c < p.grid().core_count(); ++c) {
    for (int d = 0; d < 4; ++d) {
      const cmp::LinkId link{p.grid().core_at(c), static_cast<cmp::Dir>(d)};
      if (!p.grid().has_neighbor(link.from, link.dir)) continue;
      const double load =
          r.eval.link_load[static_cast<std::size_t>(p.grid().link_index(link))];
      if (load <= 0) continue;
      const auto to = p.grid().neighbor(link.from, link.dir);
      EXPECT_EQ(std::abs(p.grid().snake_position(link.from) - p.grid().snake_position(to)),
                1)
          << "non-snake link carries load";
    }
  }
}

TEST(Property, CommEnergyLinearInVolumes) {
  // Doubling every edge volume doubles the communication energy and leaves
  // the computation energy unchanged (same placement).
  const spg::Spg g = test::random_workload(71, 15, 3, 1.0);
  const auto p = cmp::Platform::reference(3, 3);
  const double T = test::period_for_cores(g, 3.0, 0.4e9);
  const auto r = heuristics::GreedyHeuristic().run(g, p, T);
  ASSERT_TRUE(r.success) << r.failure;

  spg::Spg doubled = g;
  for (spg::EdgeId e = 0; e < g.edge_count(); ++e) {
    doubled.set_bytes(e, g.edge(e).bytes * 2.0);
  }
  const auto ev2 = mapping::evaluate(doubled, p, r.mapping, T);
  ASSERT_TRUE(ev2.error.empty());
  EXPECT_NEAR(ev2.comm_energy, 2.0 * r.eval.comm_energy,
              1e-9 * (1 + r.eval.comm_energy));
  EXPECT_DOUBLE_EQ(ev2.comp_energy, r.eval.comp_energy);
}

TEST(Property, PeriodSearchUpscalesWhenStartInfeasible) {
  // A workload too heavy for T = 1 s anywhere: the search multiplies the
  // bound upward until something succeeds (defensive path, not in paper).
  spg::Spg g = spg::chain(4, 2e10, 1e3);  // 8e10 cycles total
  const auto p = cmp::Platform::reference(2, 2);
  const auto c = harness::run_campaign(g, p, solve::SolverSet::paper(71));
  EXPECT_GE(c.success_count(), 1u);
  EXPECT_GT(c.period, 1.0);
}

TEST(Property, GreedyCornerJumpRegression) {
  // Regression for the south-east-corner dead-end: a 40-stage pipeline at
  // a period requiring ~10 cores exceeds the 7-core monotone staircase of
  // a 4x4 grid; the corner jump lets Greedy finish.
  spg::Spg g = spg::chain(40, 1e8, 1e3);  // 4e9 cycles
  const auto p = cmp::Platform::reference(4, 4);
  const double T = 4e9 / (10.0 * 1e9);  // needs ~10 cores at full speed
  const auto r = heuristics::GreedyHeuristic().run(g, p, T);
  ASSERT_TRUE(r.success) << r.failure;
  EXPECT_GE(r.eval.active_cores, 8);
}

TEST(Property, RandomNeverExceedsCoreCount) {
  util::Rng rng(72);
  for (int rep = 0; rep < 5; ++rep) {
    spg::Spg g = spg::random_spg(30, 4, rng);
    g.rescale_ccr(10.0);
    const auto p = test::grid2x2();
    const double T = test::period_for_cores(g, 2.0);
    const auto r = heuristics::RandomHeuristic(rep).run(g, p, T);
    if (!r.success) continue;
    EXPECT_LE(r.eval.active_cores, p.grid().core_count());
  }
}

TEST(Property, EvaluationPeriodIsMaxOfResources) {
  const spg::Spg g = test::random_workload(73, 12, 3, 0.2);
  const auto p = cmp::Platform::reference(2, 3);
  const double T = test::period_for_cores(g, 2.0);
  const auto r = heuristics::GreedyHeuristic().run(g, p, T);
  test::expect_valid_result(r, g, p, T, "Greedy");
  EXPECT_DOUBLE_EQ(r.eval.period,
                   std::max(r.eval.max_core_time, r.eval.max_link_time));
}

TEST(Property, CampaignIndependentOfHeuristicOrder) {
  // The retained period depends only on the *set* of heuristics, not their
  // order, because the search tests "any success".
  util::Rng rng(74);
  spg::Spg g = spg::random_spg(14, 2, rng);
  g.rescale_ccr(5.0);
  const auto p = cmp::Platform::reference(2, 2);

  const auto a = harness::run_campaign(g, p, solve::SolverSet::paper(1));
  const auto b = harness::run_campaign(
      g, p, solve::SolverSet::parse("dpa2d1d,dpa1d,dpa2d,greedy,random", {1}));
  ASSERT_EQ(b.names, (std::vector<std::string>{"DPA2D1D", "DPA1D", "DPA2D",
                                               "Greedy", "Random"}));
  EXPECT_DOUBLE_EQ(a.period, b.period);
  EXPECT_EQ(a.success_count(), b.success_count());
}

}  // namespace
