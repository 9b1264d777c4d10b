// Tests for the pipelined dataflow simulator: the measured steady-state
// period must converge to max(arrival period, analytic max cycle-time) —
// this is the property that ties the paper's analytic feasibility model to
// an actual execution, for hand-built mappings and for every heuristic's
// output on random workloads.

#include <gtest/gtest.h>

#include "mapping/mapping.hpp"
#include "sim/simulator.hpp"
#include "solve/registry.hpp"
#include "spg/compose.hpp"
#include "support/fixtures.hpp"
#include "spg/generator.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;

TEST(Simulator, SingleCoreChainPeriodIsComputeTime) {
  const auto g = spg::chain(4, 2e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  mapping::Mapping m;
  m.core_of.assign(4, 0);
  m.edge_paths.assign(3, {});
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 1.0, m));
  const auto ev = mapping::evaluate(g, p, m, 1.0);
  ASSERT_TRUE(ev.valid());

  sim::SimConfig cfg;
  cfg.arrival_period = 0.0;  // saturate: expose the bottleneck
  cfg.datasets = 100;
  const auto res = sim::simulate(g, p, m, cfg);
  EXPECT_NEAR(res.steady_period, ev.period, 1e-12);
}

TEST(Simulator, ArrivalPeriodDominatesWhenSlower) {
  const auto g = spg::chain(4, 2e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  mapping::Mapping m;
  m.core_of.assign(4, 0);
  m.edge_paths.assign(3, {});
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 10.0, m));

  sim::SimConfig cfg;
  cfg.arrival_period = 10.0;
  cfg.datasets = 30;
  cfg.warmup = 5;
  const auto res = sim::simulate(g, p, m, cfg);
  EXPECT_NEAR(res.steady_period, 10.0, 1e-9);
}

TEST(Simulator, PipelinedTwoCoresOverlap) {
  // Two stages on two cores: the pipeline overlaps, so the steady period is
  // the max stage time, while the latency is roughly the sum.
  auto g = spg::chain(2, 0.0, 1e3);
  g.set_work(0, 4e8);
  g.set_work(1, 4e8);
  const auto p = cmp::Platform::reference(1, 2);
  mapping::Mapping m;
  m.core_of = {0, 1};
  mapping::attach_xy_paths(g, p.grid(), m);
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 1.0, m));
  const auto ev = mapping::evaluate(g, p, m, 1.0);
  ASSERT_TRUE(ev.valid());

  sim::SimConfig cfg;
  cfg.arrival_period = 0.0;
  cfg.datasets = 100;
  const auto res = sim::simulate(g, p, m, cfg);
  EXPECT_NEAR(res.steady_period, ev.period, 1e-12);
  // Latency >= both compute times + transfer.
  EXPECT_GT(res.mean_latency, ev.max_core_time);
}

TEST(Simulator, LinkBottleneckGovernsThroughput) {
  auto g = spg::chain(2, 1e6, 0.0);
  g.set_bytes(0, 19.2e9 * 0.5);  // half a second on one hop
  const auto p = cmp::Platform::reference(1, 2);
  mapping::Mapping m;
  m.core_of = {0, 1};
  mapping::attach_xy_paths(g, p.grid(), m);
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 1.0, m));
  const auto ev = mapping::evaluate(g, p, m, 1.0);
  ASSERT_TRUE(ev.valid());
  EXPECT_NEAR(ev.max_link_time, 0.5, 1e-12);

  sim::SimConfig cfg;
  cfg.arrival_period = 0.0;
  cfg.datasets = 60;
  const auto res = sim::simulate(g, p, m, cfg);
  EXPECT_NEAR(res.steady_period, 0.5, 1e-9);
}

TEST(Simulator, RejectsStructurallyInvalidMappings) {
  const auto g = spg::chain(2, 1e6, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  mapping::Mapping m;
  m.core_of = {0, 3};
  m.mode_of_core.assign(4, 0);
  m.edge_paths.assign(1, {});  // missing path
  EXPECT_THROW(static_cast<void>(sim::simulate(g, p, m, {})), std::invalid_argument);
}

TEST(Simulator, FirstCompletionBeforeSteadyState) {
  const auto g = spg::chain(3, 2e8, 1e3);
  const auto p = cmp::Platform::reference(1, 3);
  mapping::Mapping m;
  m.core_of = {0, 1, 2};
  mapping::attach_xy_paths(g, p.grid(), m);
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 2.0, m));
  sim::SimConfig cfg;
  cfg.arrival_period = 0.0;
  cfg.datasets = 50;
  const auto res = sim::simulate(g, p, m, cfg);
  EXPECT_GT(res.first_completion, 0.0);
  EXPECT_GE(res.mean_latency, res.first_completion * 0.99);
}

// Property: for every heuristic's mapping on random workloads,
//  * the periodic (modulo-scheduled) policy achieves exactly the analytic
//    max cycle-time — the witness that the evaluator's bound is tight;
//  * the realistic FIFO policy can never beat that bound.
class SimulatorAgreesWithEvaluator : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorAgreesWithEvaluator, OnHeuristicMappings) {
  util::Rng rng(GetParam());
  spg::Spg g = spg::random_spg(18, 4, rng);
  g.rescale_ccr(1.0);
  const auto p = cmp::Platform::reference(3, 3);
  const double T = test::period_for_cores(g, 4.0);

  for (const auto& h : solve::SolverSet::paper(GetParam()).instantiate()) {
    const auto r = h->run(g, p, T);
    if (!r.success) continue;
    sim::SimConfig cfg;
    cfg.arrival_period = 0.0;
    cfg.datasets = 150;
    cfg.warmup = 60;

    cfg.policy = sim::Policy::PeriodicModulo;
    const auto periodic = sim::simulate(g, p, r.mapping, cfg);
    EXPECT_NEAR(periodic.steady_period, r.eval.period, 1e-9 * r.eval.period)
        << h->name();

    cfg.policy = sim::Policy::FifoPerDataset;
    const auto fifo = sim::simulate(g, p, r.mapping, cfg);
    EXPECT_GE(fifo.steady_period, r.eval.period * (1 - 1e-9)) << h->name();

    // Feasible at T means the periodic schedule sustains arrival period T.
    sim::SimConfig at_rate = cfg;
    at_rate.policy = sim::Policy::PeriodicModulo;
    at_rate.arrival_period = T;
    const auto res_t = sim::simulate(g, p, r.mapping, at_rate);
    EXPECT_NEAR(res_t.steady_period, T, T * 1e-6) << h->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorAgreesWithEvaluator,
                         ::testing::Values(101, 202, 303, 404));

TEST(PeriodicModulo, MatchesFifoOnSimplePipelines) {
  // With one edge per link and a pure pipeline, both policies coincide.
  const auto g = spg::chain(3, 2e8, 1e4);
  const auto p = cmp::Platform::reference(1, 3);
  mapping::Mapping m;
  m.core_of = {0, 1, 2};
  mapping::attach_xy_paths(g, p.grid(), m);
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 2.0, m));
  sim::SimConfig cfg;
  cfg.datasets = 80;
  cfg.policy = sim::Policy::FifoPerDataset;
  const auto a = sim::simulate(g, p, m, cfg);
  cfg.policy = sim::Policy::PeriodicModulo;
  const auto b = sim::simulate(g, p, m, cfg);
  EXPECT_NEAR(a.steady_period, b.steady_period, 1e-12);
}

}  // namespace
