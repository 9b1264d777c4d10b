// Tests for the five paper heuristics: validity of every returned mapping,
// determinism, paper-documented behaviours (DPA2D wasting cores on
// pipelines, DPA1D optimality on chains and budget failures on fat graphs),
// DPA1D against brute force over chains of ideals, its budget boundaries
// and its trace span, and optimality comparisons against the exact solver
// on tiny instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "heuristics/dpa1d.hpp"
#include "heuristics/dpa2d.hpp"
#include "heuristics/exact.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/heuristic.hpp"
#include "heuristics/random_heuristic.hpp"
#include "obs/trace.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/streamit.hpp"
#include "support/checkers.hpp"
#include "support/fixtures.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;
using heuristics::Result;
using test::pick_period;

struct Instance {
  std::size_t n;
  int ymax;
  int rows, cols;
  double ccr;
  std::uint64_t seed;
};

class AllHeuristicsValid : public ::testing::TestWithParam<Instance> {};

TEST_P(AllHeuristicsValid, SuccessImpliesValidMapping) {
  const auto [n, ymax, rows, cols, ccr, seed] = GetParam();
  const spg::Spg g = test::random_workload(seed, n, ymax, ccr);
  const auto p = cmp::Platform::reference(rows, cols);
  const double T = pick_period(g, p);

  const auto hs = heuristics::make_paper_heuristics(7);
  std::size_t successes = 0;
  for (const auto& h : hs) {
    const Result r = h->run(g, p, T);
    if (!r.success) continue;
    ++successes;
    test::expect_valid_result(r, g, p, T, h->name());
  }
  // At this mild period bound at least one heuristic must find a mapping.
  EXPECT_GE(successes, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllHeuristicsValid,
    ::testing::Values(Instance{10, 1, 2, 2, 10, 1}, Instance{10, 3, 2, 2, 1, 2},
                      Instance{20, 5, 4, 4, 10, 3}, Instance{20, 2, 4, 4, 0.5, 4},
                      Instance{35, 8, 4, 4, 10, 5}, Instance{50, 4, 4, 4, 10, 6},
                      Instance{50, 12, 6, 6, 10, 7}, Instance{30, 6, 3, 3, 1, 8},
                      Instance{40, 1, 4, 4, 10, 9}, Instance{25, 10, 6, 6, 1, 10},
                      Instance{15, 2, 1, 4, 10, 11}, Instance{12, 4, 1, 1, 10, 12}),
    [](const auto& info) {
      // Appended rather than operator+ chained: GCC 12's -Wrestrict
      // false-positives on literal + std::to_string concatenations at -O2.
      const auto& q = info.param;
      std::string name = "n";
      name += std::to_string(q.n);
      name += "_y";
      name += std::to_string(q.ymax);
      name += "_g";
      name += std::to_string(q.rows);
      name += "x";
      name += std::to_string(q.cols);
      name += "_s";
      name += std::to_string(q.seed);
      return name;
    });

TEST(RandomHeuristic, DeterministicAcrossCalls) {
  util::Rng rng(5);
  spg::Spg g = spg::random_spg(15, 3, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(3, 3);
  const double T = pick_period(g, p);
  heuristics::RandomHeuristic h(99);
  const Result a = h.run(g, p, T);
  const Result b = h.run(g, p, T);
  ASSERT_EQ(a.success, b.success);
  if (a.success) {
    EXPECT_EQ(a.mapping.core_of, b.mapping.core_of);
    EXPECT_DOUBLE_EQ(a.eval.energy, b.eval.energy);
  }
}

TEST(RandomHeuristic, DifferentSeedsCanDiffer) {
  util::Rng rng(6);
  spg::Spg g = spg::random_spg(20, 4, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(4, 4);
  const double T = pick_period(g, p);
  const Result a = heuristics::RandomHeuristic(1).run(g, p, T);
  const Result b = heuristics::RandomHeuristic(2).run(g, p, T);
  // Not a hard guarantee, but with 16 cores the shuffles virtually never
  // coincide; if both succeeded, expect different placements.
  if (a.success && b.success) {
    EXPECT_NE(a.mapping.core_of, b.mapping.core_of);
  }
}

TEST(Greedy, MapsChainAndDowngradesSpeeds) {
  spg::Spg g = spg::chain(6, 1e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  // 6e8 cycles total; T = 1 s: fits on one core at 0.6-0.8 GHz or spreads.
  const Result r = heuristics::GreedyHeuristic().run(g, p, 1.0);
  test::expect_valid_result(r, g, p, 1.0, "Greedy");
  // Downgrading: every active core's speed is the slowest feasible one.
  for (int c = 0; c < p.grid().core_count(); ++c) {
    const double w = r.eval.core_work[static_cast<std::size_t>(c)];
    if (w <= 0) continue;
    const std::size_t k = r.mapping.mode_of_core[static_cast<std::size_t>(c)];
    EXPECT_EQ(k, p.speeds.slowest_feasible(w, 1.0));
  }
}

TEST(Greedy, FailsWhenSourceTooHeavy) {
  spg::Spg g = spg::chain(2, 2e9, 1.0);  // 2e9 cycles > 1 GHz * 1 s
  const auto p = cmp::Platform::reference(2, 2);
  const Result r = heuristics::GreedyHeuristic().run(g, p, 1.0);
  EXPECT_FALSE(r.success);
}

TEST(Dpa1d, OptimalOnChainWithoutCommunication) {
  // For communication-free workloads DPA1D solves the line problem
  // exactly, and core positions are irrelevant: it must match the exact
  // solver's energy.
  spg::Spg g = spg::chain(6, 0.0, 0.0);
  for (spg::StageId i = 0; i < g.size(); ++i) {
    g.set_work(i, 1e8 + 3e7 * static_cast<double>(i));
  }
  const auto p = cmp::Platform::reference(2, 2);
  const double T = 1.0;
  const Result dp = heuristics::Dpa1dHeuristic().run(g, p, T);
  const Result ex = heuristics::ExactSolver().run(g, p, T);
  ASSERT_TRUE(dp.success) << dp.failure;
  ASSERT_TRUE(ex.success) << ex.failure;
  EXPECT_NEAR(dp.eval.energy, ex.eval.energy, 1e-9 * ex.eval.energy);
}

TEST(Dpa1d, OptimalOnChainWithCommunication) {
  // Paper: for linear chains DPA1D is optimal even with communication,
  // because discarding the non-snake links loses nothing.
  spg::Spg g = spg::chain(5, 1e8, 0.0);
  for (spg::EdgeId e = 0; e < g.edge_count(); ++e) g.set_bytes(e, 1e7);
  const auto p = cmp::Platform::reference(2, 2);
  const double T = 0.4;
  const Result dp = heuristics::Dpa1dHeuristic().run(g, p, T);
  const Result ex = heuristics::ExactSolver().run(g, p, T);
  ASSERT_TRUE(dp.success) << dp.failure;
  ASSERT_TRUE(ex.success) << ex.failure;
  EXPECT_LE(dp.eval.energy, ex.eval.energy * (1 + 1e-9));
}

TEST(Dpa1d, BudgetFailureOnFatGraph) {
  // ChannelVocoder-like shape (ymax = 17) explodes the ideal count.
  const spg::Spg g = spg::make_streamit(2);
  const auto p = cmp::Platform::reference(4, 4);
  heuristics::Dpa1dHeuristic::Options opt;
  opt.max_states = 2000;
  opt.max_expansions = 20000;
  const Result r = heuristics::Dpa1dHeuristic(opt).run(g, p, 1.0);
  EXPECT_FALSE(r.success);
  EXPECT_NE(r.failure.find("budget"), std::string::npos);
}

/// Least evaluated energy over every chain of ideals {} < I1 < ... < Ik = V
/// with k <= min(cores, n): cluster j runs on snake core j, scored by the
/// evaluator at the slowest feasible modes.  Infinity when no chain's
/// mapping is valid.  Stage sets are bitmasks, so n must stay small.
double best_ideal_chain_energy(const spg::Spg& g, const cmp::Platform& p, double T) {
  const std::size_t n = g.size();
  const std::uint32_t full = (1u << n) - 1;
  std::vector<std::uint32_t> ideals;
  for (std::uint32_t s = 1; s <= full; ++s) {
    bool ideal = true;
    for (const auto& e : g.edges()) {
      if (((s >> e.dst) & 1u) != 0 && ((s >> e.src) & 1u) == 0) ideal = false;
    }
    if (ideal) ideals.push_back(s);
  }
  const cmp::Grid& grid = p.grid();
  const std::size_t r = std::min(static_cast<std::size_t>(grid.core_count()), n);
  mapping::Evaluator ev(g, p, T);
  std::vector<int> cluster(n);
  double best = std::numeric_limits<double>::infinity();
  const auto chains = [&](const auto& self, std::uint32_t done, std::size_t k) -> void {
    if (done == full) {
      mapping::Mapping m;
      m.core_of.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        m.core_of[i] = grid.core_index(grid.snake_core(cluster[i]));
      }
      m.edge_paths.assign(g.edge_count(), {});
      for (spg::EdgeId e = 0; e < g.edge_count(); ++e) {
        const int a = cluster[g.edge(e).src];
        const int b = cluster[g.edge(e).dst];
        if (a != b) m.edge_paths[e] = grid.snake_route(grid.snake_core(a), grid.snake_core(b));
      }
      const Result res = heuristics::finalize_with_paths(g, p, T, std::move(m), true, ev);
      if (res.success) best = std::min(best, res.eval.energy);
      return;
    }
    if (k == r) return;
    for (const std::uint32_t next : ideals) {
      if ((next & done) != done || next == done) continue;
      for (std::size_t i = 0; i < n; ++i) {
        if (((next & ~done) >> i) & 1u) cluster[i] = static_cast<int>(k);
      }
      self(self, next, k + 1);
    }
  };
  chains(chains, 0u, std::size_t{0});
  return best;
}

TEST(Dpa1d, MatchesBruteForceOverIdealChains) {
  // Theorem 1: on the snake line the DP is exact over chains of ideals, so
  // DPA1D fails exactly when no chain is valid and otherwise finds the
  // cheapest one.
  const cmp::Platform platforms[] = {cmp::Platform::reference(1, 4),
                                     cmp::Platform::reference(2, 2),
                                     cmp::Platform::reference("hetero", 2, 2)};
  const double ccrs[] = {0.05, 1.0, 10.0};
  std::size_t solved = 0;
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const auto n = rng.uniform_int(2, 8);
    const auto ymax = static_cast<int>(rng.uniform_int(1, std::max<std::int64_t>(1, n - 2)));
    spg::Spg g = spg::random_spg(static_cast<std::size_t>(n), ymax, rng);
    g.rescale_ccr(ccrs[rng.uniform_int(0, 2)]);
    for (const auto& p : platforms) {
      for (const double tighten : {1.0, 0.4}) {
        const double T = pick_period(g, p) * tighten;
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << p.topology.name() << " "
                                          << p.grid().rows() << "x" << p.grid().cols()
                                          << ", T " << T);
        const double want = best_ideal_chain_energy(g, p, T);
        const Result got = heuristics::Dpa1dHeuristic().run(g, p, T);
        EXPECT_EQ(got.failure.find("internal"), std::string::npos) << got.failure;
        ASSERT_EQ(got.success, std::isfinite(want)) << got.failure;
        if (!got.success) {
          ++infeasible;
          continue;
        }
        ++solved;
        EXPECT_NEAR(got.eval.energy, want, 1e-9 * want);
      }
    }
  }
  // Both verdicts are common, so neither side of the comparison is vacuous.
  EXPECT_GT(solved, 200u);
  EXPECT_GT(infeasible, 100u);
}

/// Budget boundaries of seeded solves (test::random_workload(seed, n, ymax,
/// CCR 10) at pick_period): the smallest budget that still succeeds, and
/// the energy found.  On an expansions row the boundary is the solve's
/// exact count of candidate clusters; on the states row it is the poset's
/// ideal count.  The rows pin the enumeration itself: they move if the set
/// of visited clusters changes, or its size.
struct BudgetBoundary {
  const char* topology;
  int rows, cols;
  std::size_t n;
  int ymax;
  std::uint64_t seed;
  bool states;  ///< boundary on states= rather than expansions=
  std::size_t boundary;
  double energy;
};

constexpr BudgetBoundary kBudgetBoundaries[] = {
    {"mesh", 4, 4, 40, 3, 3, false, 52687, 0x1.64e638c2d08a3p+0},
    {"mesh", 4, 4, 30, 4, 1, false, 21252, 0x1.b5aa0cf2683eap-1},
    {"mesh", 6, 6, 40, 4, 3, false, 46127, 0x1.93d0ca3d00a74p+0},
    {"mesh", 6, 6, 30, 3, 3, false, 3590, 0x1.735b8e5db33d4p+0},
    {"hetero", 4, 4, 40, 4, 1, false, 60369, 0x1.66ef5fca4488p+0},
    {"mesh", 4, 4, 40, 2, 1, true, 393, 0x1.4be08dc36cbedp+0},
};

TEST(Dpa1d, BudgetBoundariesPinTheEnumeration) {
  for (const auto& b : kBudgetBoundaries) {
    SCOPED_TRACE(::testing::Message() << b.topology << " " << b.rows << "x" << b.cols << " n"
                                      << b.n << " ymax " << b.ymax << " seed " << b.seed);
    const spg::Spg g = test::random_workload(b.seed, b.n, b.ymax, 10.0);
    const auto p = cmp::Platform::reference(b.topology, b.rows, b.cols);
    const double T = pick_period(g, p);
    const auto run = [&](std::size_t budget) {
      heuristics::Dpa1dHeuristic::Options opt;
      (b.states ? opt.max_states : opt.max_expansions) = budget;
      return heuristics::Dpa1dHeuristic(opt).run(g, p, T);
    };
    const Result unbounded = heuristics::Dpa1dHeuristic().run(g, p, T);
    const Result at = run(b.boundary);
    ASSERT_TRUE(at.success) << at.failure;
    EXPECT_EQ(at.eval.energy, b.energy);
    EXPECT_EQ(at.eval.energy, unbounded.eval.energy);
    EXPECT_EQ(at.mapping.core_of, unbounded.mapping.core_of);
    const Result below = run(b.boundary - 1);
    EXPECT_FALSE(below.success);
    EXPECT_NE(below.failure.find("budget"), std::string::npos) << below.failure;
  }
}

TEST(Dpa1d, DpSpanReportsStatesExpansionsAndOutcome) {
  const BudgetBoundary& b = kBudgetBoundaries[0];
  constexpr double kStates = 901;  // DP states of that solve: every nonempty ideal
  const spg::Spg g = test::random_workload(b.seed, b.n, b.ymax, 10.0);
  const auto p = cmp::Platform::reference(b.topology, b.rows, b.cols);
  const double T = pick_period(g, p);
  heuristics::Dpa1dHeuristic::Options tight;
  tight.max_expansions = b.boundary - 1;

  obs::trace_start();
  EXPECT_TRUE(heuristics::Dpa1dHeuristic().run(g, p, T).success);
  EXPECT_FALSE(heuristics::Dpa1dHeuristic(tight).run(g, p, T).success);
  // A period so short that no single stage fits a core.
  EXPECT_FALSE(heuristics::Dpa1dHeuristic().run(g, p, T * 1e-3).success);
  std::ostringstream os;
  obs::trace_stop(os);

  const auto doc = util::parse_json(os.str());
  std::vector<util::JsonValue> args;
  for (const auto& e : doc.at("traceEvents").as_array("traceEvents")) {
    if (e.at("ph").as_string("ph") == "X" && e.at("name").as_string("name") == "dpa1d.dp") {
      args.push_back(e.at("args"));
    }
  }
  ASSERT_EQ(args.size(), 3u);
  EXPECT_EQ(args[0].at("outcome").as_string("outcome"), "ok");
  EXPECT_EQ(args[0].at("states").as_number("states"), kStates);
  EXPECT_EQ(args[0].at("expansions").as_number("expansions"), static_cast<double>(b.boundary));
  EXPECT_EQ(args[1].at("outcome").as_string("outcome"), "budget");
  EXPECT_EQ(args[1].at("expansions").as_number("expansions"),
            static_cast<double>(b.boundary - 1));
  EXPECT_EQ(args[2].at("outcome").as_string("outcome"), "infeasible");
  EXPECT_EQ(args[2].at("states").as_number("states"), 0.0);
  EXPECT_EQ(args[2].at("expansions").as_number("expansions"), 0.0);
}

TEST(Dpa2d, WastesCoresOnPurePipeline) {
  // Paper Section 6.2.1: on a pipeline, DPA2D can only enroll q cores of a
  // p x q grid (one per column), since the virtual grid has one row.
  spg::Spg g = spg::chain(20, 1.5e8, 1e3);  // 3e9 cycles: fits 4 cores at 1 GHz
  const auto p = cmp::Platform::reference(4, 4);
  const Result r = heuristics::Dpa2dHeuristic().run(g, p, 1.0);
  ASSERT_TRUE(r.success) << r.failure;
  EXPECT_LE(r.eval.active_cores, 4);
}

TEST(Dpa2d, FailsOnPipelineWhenColumnsLackCapacity) {
  // The flip side of wasting cores: 6e9 cycles cannot fit on the <= 4
  // enrollable cores at T = 1 s, so DPA2D fails where 16 cores would have
  // been plenty — the failure mode Table 2 records for low elevations.
  spg::Spg g = spg::chain(20, 3e8, 1e3);
  const auto p = cmp::Platform::reference(4, 4);
  EXPECT_FALSE(heuristics::Dpa2dHeuristic().run(g, p, 1.0).success);
  // Greedy has no such restriction and succeeds.
  EXPECT_TRUE(heuristics::GreedyHeuristic().run(g, p, 1.0).success);
}

TEST(Dpa2d, HandlesFatGraph) {
  util::Rng rng(8);
  spg::Spg g = spg::random_spg(40, 12, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(4, 4);
  const double T = pick_period(g, p);
  const Result r = heuristics::Dpa2dHeuristic().run(g, p, T);
  ASSERT_TRUE(r.success) << r.failure;
  EXPECT_TRUE(r.eval.valid());
}

TEST(Dpa2d1d, ValidOnMixedShapes) {
  // DPA2D1D clusters whole x-columns, so fat graphs need a looser period
  // (the paper notes it is "not good for fat graphs of large elevation").
  util::Rng rng(9);
  for (const int ymax : {1, 3, 9}) {
    spg::Spg g = spg::random_spg(30, ymax, rng);
    g.rescale_ccr(10);
    const auto p = cmp::Platform::reference(4, 4);
    const double T = pick_period(g, p) * (ymax >= 9 ? 4.0 : 1.0);
    const Result r =
        heuristics::Dpa2dHeuristic(heuristics::Dpa2dHeuristic::Mode::Line1D)
            .run(g, p, T);
    ASSERT_TRUE(r.success) << "ymax=" << ymax << ": " << r.failure;
    EXPECT_TRUE(r.eval.valid());
  }
}

TEST(Dpa2d1d, MatchesDpa1dOnChains) {
  // Both 1D heuristics solve the same line problem for chains; DPA1D is
  // exact there, so DPA2D1D can never beat it.
  spg::Spg g = spg::chain(8, 2e8, 1e4);
  const auto p = cmp::Platform::reference(2, 3);
  const double T = 0.9;
  const Result a = heuristics::Dpa1dHeuristic().run(g, p, T);
  const Result b =
      heuristics::Dpa2dHeuristic(heuristics::Dpa2dHeuristic::Mode::Line1D)
          .run(g, p, T);
  ASSERT_TRUE(a.success) << a.failure;
  ASSERT_TRUE(b.success) << b.failure;
  EXPECT_LE(a.eval.energy, b.eval.energy * (1 + 1e-9));
}

class VsExact : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VsExact, HeuristicsNeverBeatExact) {
  util::Rng rng(GetParam());
  spg::Spg g = spg::random_spg(7, 2, rng);
  g.rescale_ccr(5);
  const auto p = cmp::Platform::reference(2, 2);
  const double T = pick_period(g, p);
  const Result ex = heuristics::ExactSolver().run(g, p, T);
  ASSERT_TRUE(ex.success) << ex.failure;
  for (const auto& h : heuristics::make_paper_heuristics(3)) {
    const Result r = h->run(g, p, T);
    if (!r.success) continue;
    EXPECT_GE(r.eval.energy, ex.eval.energy * (1 - 1e-9))
        << h->name() << " beat the exact optimum";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VsExact, ::testing::Values(11, 22, 33, 44, 55));

TEST(Exact, QuasiMonotoneInPeriod) {
  // A mapping feasible at T stays feasible at T' > T, its dynamic energy is
  // unchanged and its leakage grows by |A| * P_leak * (T' - T); hence
  // E*(T') <= E*(T) + cores * P_leak * (T' - T).  (Plain monotonicity is
  // false: leakage scales with the period.)
  util::Rng rng(66);
  spg::Spg g = spg::random_spg(6, 2, rng);
  g.rescale_ccr(10);
  const auto p = cmp::Platform::reference(2, 2);
  double prev_e = std::numeric_limits<double>::infinity();
  double prev_t = 0.0;
  for (const double T : {0.3, 0.6, 1.2, 2.4}) {
    const double scaled_T = T * g.total_work() / (4 * 1e9);
    const heuristics::Result r = heuristics::ExactSolver().run(g, p, scaled_T);
    if (!r.success) continue;
    if (std::isfinite(prev_e)) {
      const double slack =
          p.grid().core_count() * p.speeds.leak_power() * (scaled_T - prev_t);
      EXPECT_LE(r.eval.energy, prev_e + slack * (1 + 1e-9)) << "T=" << scaled_T;
    }
    prev_e = r.eval.energy;
    prev_t = scaled_T;
  }
}

TEST(Exact, RefusesOversizedInstances) {
  util::Rng rng(1);
  const spg::Spg g = spg::random_spg(20, 3, rng);
  const auto p = cmp::Platform::reference(2, 2);
  EXPECT_FALSE(heuristics::ExactSolver().run(g, p, 1.0).success);
  const spg::Spg small = spg::chain(4);
  const auto big = cmp::Platform::reference(4, 4);
  EXPECT_FALSE(heuristics::ExactSolver().run(small, big, 1.0).success);
}

TEST(Factory, ProducesPaperOrder) {
  const auto hs = heuristics::make_paper_heuristics();
  ASSERT_EQ(hs.size(), 5u);
  EXPECT_EQ(hs[0]->name(), "Random");
  EXPECT_EQ(hs[1]->name(), "Greedy");
  EXPECT_EQ(hs[2]->name(), "DPA2D");
  EXPECT_EQ(hs[3]->name(), "DPA1D");
  EXPECT_EQ(hs[4]->name(), "DPA2D1D");
}

TEST(AllHeuristics, StreamItSmoke) {
  // Every benchmark of the suite must be solvable by at least one heuristic
  // at T = 1 s (the paper's starting point for the period search).
  const auto p = cmp::Platform::reference(4, 4);
  for (const auto& info : spg::streamit_table()) {
    const spg::Spg g = spg::make_streamit(info);
    std::size_t ok = 0;
    for (const auto& h : heuristics::make_paper_heuristics()) {
      const Result r = h->run(g, p, 1.0);
      if (r.success) {
        ++ok;
        EXPECT_TRUE(r.eval.valid()) << info.name << "/" << h->name();
      }
    }
    EXPECT_GE(ok, 1u) << info.name;
  }
}

}  // namespace
