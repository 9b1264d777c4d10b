// End-to-end integration tests across modules: serialize -> map ->
// evaluate -> downscale links -> simulate pipelines, plus cross-checks
// between heuristics, the harness and the simulator on the synthetic
// StreamIt suite.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "harness/experiment.hpp"
#include "mapping/link_dvfs.hpp"
#include "sim/simulator.hpp"
#include "spg/generator.hpp"
#include "spg/sp_tree.hpp"
#include "spg/streamit.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;

TEST(Integration, SerializeMapSimulateRoundTrip) {
  util::Rng rng(55);
  spg::Spg original = spg::random_spg(24, 4, rng);
  original.rescale_ccr(5.0);

  std::stringstream ss;
  original.serialize(ss);
  const spg::Spg g = spg::Spg::parse(ss);

  const auto p = cmp::Platform::reference(3, 3);
  const auto solvers = solve::SolverSet::paper(55);
  const auto hs = solvers.instantiate();
  const auto c = harness::run_campaign(g, p, solvers);
  ASSERT_GE(c.success_count(), 1u);

  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (!c.results[h].success) continue;
    // The round-tripped graph must behave identically to the original.
    const auto again = hs[h]->run(original, p, c.period);
    ASSERT_TRUE(again.success) << c.names[h];
    EXPECT_DOUBLE_EQ(again.eval.energy, c.results[h].eval.energy) << c.names[h];

    // Every valid mapping streams at its analytic period.
    sim::SimConfig cfg;
    cfg.arrival_period = c.period;
    cfg.datasets = 120;
    cfg.warmup = 40;
    cfg.policy = sim::Policy::PeriodicModulo;
    const auto sr = sim::simulate(g, p, c.results[h].mapping, cfg);
    EXPECT_NEAR(sr.steady_period, c.period, c.period * 1e-6) << c.names[h];
  }
}

TEST(Integration, LinkDvfsComposesWithEveryHeuristic) {
  util::Rng rng(56);
  spg::Spg g = spg::random_spg(30, 6, rng);
  g.rescale_ccr(0.5);
  const auto p = cmp::Platform::reference(4, 4);
  const auto c = harness::run_campaign(g, p, solve::SolverSet::paper(56));
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (!c.results[h].success) continue;
    const auto res = mapping::downscale_links(g, p, c.results[h].mapping, c.period);
    EXPECT_TRUE(res.feasible) << c.names[h];
    EXPECT_LE(res.comm_energy_scaled, res.comm_energy_full * (1 + 1e-12))
        << c.names[h];
    EXPECT_NEAR(res.comm_energy_full, c.results[h].eval.comm_energy,
                1e-12 + 1e-9 * res.comm_energy_full)
        << c.names[h];
  }
}

TEST(Integration, StreamItCampaignsAreReproducible) {
  const auto p = cmp::Platform::reference(4, 4);
  const spg::Spg g = spg::make_streamit(10);  // MPEG2-noparser
  const auto a = harness::run_campaign(g, p, solve::SolverSet::paper());
  const auto b = harness::run_campaign(g, p, solve::SolverSet::paper());
  ASSERT_EQ(a.period, b.period);
  for (std::size_t h = 0; h < a.results.size(); ++h) {
    ASSERT_EQ(a.results[h].success, b.results[h].success);
    if (a.results[h].success) {
      EXPECT_DOUBLE_EQ(a.results[h].eval.energy, b.results[h].eval.energy);
    }
  }
}

TEST(Integration, EnergyRespectsPhysicalLowerBound) {
  // Every reported energy must cover at least the leakage of its active
  // cores over T plus the cheapest possible dynamic energy for the total
  // work (the XScale table's minimum P/s ratio).  Note energy is NOT
  // monotone in T: a looser period lets speeds drop but leakage |A|*P*T
  // grows linearly, so only this bound — not monotonicity — is a theorem.
  util::Rng rng(57);
  spg::Spg g = spg::random_spg(20, 3, rng);
  g.rescale_ccr(10.0);
  const auto p = cmp::Platform::reference(3, 3);
  double min_per_cycle = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < p.speeds.mode_count(); ++k) {
    min_per_cycle = std::min(min_per_cycle,
                             p.speeds.dynamic_power(k) / p.speeds.speed(k));
  }
  const auto solvers = solve::SolverSet::paper(57);
  const double T0 = test::period_for_cores(g, 2.0, 1e9);
  for (const double mult : {1.0, 2.0, 4.0, 8.0}) {
    const auto c = harness::run_at_period(g, p, solvers, T0 * mult);
    for (std::size_t h = 0; h < c.results.size(); ++h) {
      if (!c.results[h].success) continue;
      const auto& ev = c.results[h].eval;
      const double lower = ev.active_cores * p.speeds.leak_power() * c.period +
                           g.total_work() * min_per_cycle;
      EXPECT_GE(ev.energy, lower * (1 - 1e-9)) << c.names[h] << " x" << mult;
    }
  }
}

TEST(Integration, IdealCountPredictsDpa1dBudgetOutcome) {
  // The SP-tree ideal count is exactly the DPA1D state space: graphs under
  // the default budget succeed or fail for other reasons; graphs over it
  // must report a budget failure.
  const auto p = cmp::Platform::reference(4, 4);
  for (const int idx : {2, 6, 11}) {  // ChannelVocoder, BitonicSort, Serpent
    const spg::Spg g = spg::make_streamit(idx);
    const auto count = spg::ideal_count(g, 200000);
    const auto r = solve::SolverRegistry::instance().make("dpa1d")->run(g, p, 1.0);
    if (count > 200000) {
      EXPECT_FALSE(r.success) << idx;
      EXPECT_NE(r.failure.find("budget"), std::string::npos) << idx;
    }
  }
}

TEST(Integration, EvaluatorAgreesWithCampaignAccounting) {
  util::Rng rng(58);
  spg::Spg g = spg::random_spg(16, 3, rng);
  g.rescale_ccr(1.0);
  const auto p = cmp::Platform::reference(2, 3);
  const auto c = harness::run_campaign(g, p, solve::SolverSet::paper(58));
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (!c.results[h].success) continue;
    const auto ev = mapping::evaluate(g, p, c.results[h].mapping, c.period);
    EXPECT_TRUE(ev.valid());
    EXPECT_DOUBLE_EQ(ev.energy, c.results[h].eval.energy);
    EXPECT_DOUBLE_EQ(ev.energy, ev.comp_energy + ev.comm_energy);
  }
}

}  // namespace
