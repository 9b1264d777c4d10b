// Tests for the five paper heuristics: validity of every returned mapping,
// determinism, paper-documented behaviours (DPA2D wasting cores on
// pipelines, DPA1D optimality on chains and budget failures on fat graphs),
// DPA1D against brute force over chains of ideals (on SP graphs and on a
// non-SP DAG), its budget boundaries and its trace span, DPA2D/DPA2D1D
// byte goldens on every topology and their trace span, and optimality
// comparisons against the exact solver on tiny instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
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
#include "heuristics/row_store.hpp"
#include "mapping/mapping.hpp"
#include "obs/trace.hpp"
#include "solve/registry.hpp"
#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/sp_tree.hpp"
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

  std::size_t successes = 0;
  for (const auto& h : solve::SolverSet::paper(7).instantiate()) {
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

/// Theorem 1: on the snake line the DP is exact over chains of ideals, so
/// DPA1D fails exactly when no chain is valid and otherwise finds the
/// cheapest one.  Checks `g` on three small CMPs at two periods and counts
/// the verdicts.
void expect_matches_ideal_chains(const spg::Spg& g, std::size_t& solved,
                                 std::size_t& infeasible) {
  const cmp::Platform platforms[] = {cmp::Platform::reference(1, 4),
                                     cmp::Platform::reference(2, 2),
                                     cmp::Platform::reference("hetero", 2, 2)};
  for (const auto& p : platforms) {
    for (const double tighten : {1.0, 0.4}) {
      const double T = pick_period(g, p) * tighten;
      SCOPED_TRACE(::testing::Message() << p.topology.name() << " " << p.grid().rows() << "x"
                                        << p.grid().cols() << ", T " << T);
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

TEST(Dpa1d, MatchesBruteForceOverIdealChains) {
  const double ccrs[] = {0.05, 1.0, 10.0};
  std::size_t solved = 0;
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed);
    const auto n = rng.uniform_int(2, 8);
    const auto ymax = static_cast<int>(rng.uniform_int(1, std::max<std::int64_t>(1, n - 2)));
    spg::Spg g = spg::random_spg(static_cast<std::size_t>(n), ymax, rng);
    g.rescale_ccr(ccrs[rng.uniform_int(0, 2)]);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_ideal_chains(g, solved, infeasible);
  }
  // Both verdicts are common, so neither side of the comparison is vacuous.
  EXPECT_GT(solved, 200u);
  EXPECT_GT(infeasible, 100u);
}

/// DPA1D's rows hold windows of their entries: random covers (growing a
/// window down, up, past its first slot and into recycled slots) and
/// writes must read back exactly as in a plain table of r entries a row.
TEST(RowStore, WindowsReadLikeFullWidthRows) {
  constexpr std::size_t r = 20;
  constexpr double inf = std::numeric_limits<double>::infinity();
  util::Rng rng(11);
  heuristics::RowStore store(r);
  std::vector<std::vector<double>> want;
  std::vector<std::size_t> upper;
  for (int op = 0; op < 20000; ++op) {
    if (want.empty() || rng.uniform_int(0, 9) == 0) {
      store.push();
      want.emplace_back(r, inf);
      upper.push_back(static_cast<std::size_t>(rng.uniform_int(0, r - 1)));
    }
    const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, want.size() - 1));
    const auto first = static_cast<std::size_t>(rng.uniform_int(0, upper[id]));
    const auto last = static_cast<std::size_t>(rng.uniform_int(first, upper[id]));
    double* entries = store.cover(id, first, last, upper[id]);
    for (std::size_t k = first; k <= last; ++k) {
      if (rng.uniform_int(0, 1) == 0) continue;
      entries[k - first] = want[id][k] = rng.uniform_real(0.0, 1.0);
    }
  }
  ASSERT_EQ(store.size(), want.size());
  for (std::uint32_t id = 0; id < want.size(); ++id) {
    const auto w = store.window(id);
    for (std::size_t k = 0; k < r; ++k) {
      const bool inside = k >= w.lo && k < w.hi;
      EXPECT_EQ(store.at(id, k), want[id][k]) << "row " << id << ", entry " << k;
      EXPECT_EQ(inside ? w.entries[k - w.lo] : inf, want[id][k]) << "row " << id << ", entry " << k;
    }
  }
}

/// The "N" DAG of test_sp_tree's RejectsNonSpDag (s -> a, s -> b, a -> c,
/// a -> d, b -> d, c -> t, d -> t) with seeded weights: no SP
/// decomposition exists, so DPA1D looks its states up by hash.
spg::Spg n_shaped_dag(util::Rng& rng) {
  std::vector<spg::Stage> stages = {{0, 1, 1, "s"}, {0, 2, 1, "a"}, {0, 2, 2, "b"},
                                    {0, 3, 1, "c"}, {0, 3, 2, "d"}, {0, 4, 1, "t"}};
  for (auto& st : stages) st.work = rng.uniform_real(1e7, 1e8);
  std::vector<spg::Edge> edges = {{0, 1, 0}, {0, 2, 0}, {1, 3, 0}, {1, 4, 0},
                                  {2, 4, 0}, {3, 5, 0}, {4, 5, 0}};
  for (auto& e : edges) e.bytes = rng.uniform_real(0.5, 1.5);
  return spg::Spg(std::move(stages), std::move(edges));
}

TEST(Dpa1d, NonSpDagMatchesBruteForceOverIdealChains) {
  const double ccrs[] = {0.05, 1.0, 10.0};
  std::size_t solved = 0;
  std::size_t infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    spg::Spg g = n_shaped_dag(rng);
    ASSERT_FALSE(spg::is_series_parallel(g));
    g.rescale_ccr(ccrs[seed % 3]);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    expect_matches_ideal_chains(g, solved, infeasible);
  }
  EXPECT_GT(solved, 30u);
  EXPECT_GT(infeasible, 10u);
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
  // A state budget below the ideal count: rejected by the pre-pass.
  heuristics::Dpa1dHeuristic::Options few;
  few.max_states = 100;
  EXPECT_FALSE(heuristics::Dpa1dHeuristic(few).run(g, p, T).success);
  // A DAG with no SP decomposition.
  util::Rng rng(1);
  const spg::Spg n_dag = n_shaped_dag(rng);
  EXPECT_TRUE(
      heuristics::Dpa1dHeuristic().run(n_dag, p, test::period_for_cores(n_dag, 2)).success);
  // FMRadio has 21233668 ideals, too many to rank densely (the array would
  // take 85 MB up front): with the state budget at its maximum it takes
  // the hash path, and at a period where only the source fits a core the
  // solve reaches a single state.
  const spg::Spg fm = spg::make_streamit(4);
  const auto huge = solve::SolverRegistry::instance().make("dpa1d(states=1000000000)");
  EXPECT_FALSE(huge->run(fm, p, pick_period(fm, p) * 0.165).success);
  std::ostringstream os;
  obs::trace_stop(os);

  const auto doc = util::parse_json(os.str());
  std::vector<util::JsonValue> args;
  for (const auto& e : doc.at("traceEvents").as_array("traceEvents")) {
    if (e.at("ph").as_string("ph") == "X" && e.at("name").as_string("name") == "dpa1d.dp") {
      args.push_back(e.at("args"));
    }
  }
  ASSERT_EQ(args.size(), 6u);
  EXPECT_EQ(args[0].at("outcome").as_string("outcome"), "ok");
  EXPECT_EQ(args[0].at("states").as_number("states"), kStates);
  EXPECT_EQ(args[0].at("expansions").as_number("expansions"), static_cast<double>(b.boundary));
  EXPECT_EQ(args[1].at("outcome").as_string("outcome"), "budget");
  EXPECT_EQ(args[1].at("expansions").as_number("expansions"),
            static_cast<double>(b.boundary - 1));
  EXPECT_EQ(args[2].at("outcome").as_string("outcome"), "infeasible");
  EXPECT_EQ(args[2].at("states").as_number("states"), 0.0);
  EXPECT_EQ(args[2].at("expansions").as_number("expansions"), 0.0);
  // The same graph, so the same pre-pass: its ideals (the empty one too)
  // ranked densely.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(args[i].at("ideals").as_number("ideals"), kStates + 1);
    EXPECT_EQ(args[i].at("lookup").as_string("lookup"), "rank");
  }
  // A pre-pass rejection reads as ideals = states= budget + 1.
  EXPECT_EQ(args[3].at("outcome").as_string("outcome"), "budget");
  EXPECT_EQ(args[3].at("ideals").as_number("ideals"), 101.0);
  EXPECT_EQ(args[3].at("states").as_number("states"), 0.0);
  EXPECT_EQ(args[3].at("expansions").as_number("expansions"), 0.0);
  EXPECT_EQ(args[4].at("outcome").as_string("outcome"), "ok");
  EXPECT_EQ(args[4].at("ideals").as_number("ideals"), 10.0);
  EXPECT_EQ(args[4].at("lookup").as_string("lookup"), "hash");
  EXPECT_EQ(args[5].at("outcome").as_string("outcome"), "infeasible");
  EXPECT_EQ(args[5].at("ideals").as_number("ideals"), 21233668.0);
  EXPECT_EQ(args[5].at("lookup").as_string("lookup"), "hash");
  EXPECT_EQ(args[5].at("states").as_number("states"), 1.0);
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

TEST(Dpa2d, DpSpanReportsBlocksColumnsStatesAndOutcome) {
  // A 3-stage chain has X = 3 SPG columns.  The outer DP builds each block
  // [mp, m-1] that has a live predecessor and solves it once per CMP column
  // reachable from there; the reconstruction builds and solves each of the
  // V chosen blocks once more.
  //   Grid2D on 2x2 (Q = 2): blocks 6, columns 6, states 5;
  //   Line1D on 2x2 (a 1x4 line, Q = 4): block [2, 2] is solved after 1 and
  //   after 2 columns, so columns 7, and states 6.
  // When no single column fits, only the X blocks [0, m-1] are reached.
  using Mode = heuristics::Dpa2dHeuristic::Mode;
  const spg::Spg g = spg::chain(3, 2e8, 1e3);
  const auto p = cmp::Platform::reference(2, 2);
  struct Want {
    Mode mode;
    double blocks, columns, states;
  };
  for (const Want& want : {Want{Mode::Grid2D, 6, 6, 5}, Want{Mode::Line1D, 6, 7, 6}}) {
    obs::trace_start();
    const Result ok = heuristics::Dpa2dHeuristic(want.mode).run(g, p, 1.0);
    const Result infeasible = heuristics::Dpa2dHeuristic(want.mode).run(g, p, 1e-3);
    std::ostringstream os;
    obs::trace_stop(os);
    ASSERT_TRUE(ok.success) << ok.failure;
    EXPECT_FALSE(infeasible.success);

    // V = blocks in the chosen partition = CMP columns (line cores) used.
    std::vector<int> used;
    for (const int c : ok.mapping.core_of) {
      used.push_back(want.mode == Mode::Grid2D ? p.grid().core_at(c).col : c);
    }
    std::sort(used.begin(), used.end());
    const auto v = static_cast<double>(std::unique(used.begin(), used.end()) - used.begin());

    const auto doc = util::parse_json(os.str());
    std::vector<util::JsonValue> args;
    for (const auto& e : doc.at("traceEvents").as_array("traceEvents")) {
      if (e.at("ph").as_string("ph") == "X" && e.at("name").as_string("name") == "dpa2d.dp") {
        args.push_back(e.at("args"));
      }
    }
    ASSERT_EQ(args.size(), 2u);
    EXPECT_EQ(args[0].at("outcome").as_string("outcome"), "ok");
    EXPECT_EQ(args[0].at("blocks").as_number("blocks"), want.blocks + v);
    EXPECT_EQ(args[0].at("columns").as_number("columns"), want.columns + v);
    EXPECT_EQ(args[0].at("states").as_number("states"), want.states);
    EXPECT_EQ(args[1].at("outcome").as_string("outcome"), "infeasible");
    EXPECT_EQ(args[1].at("blocks").as_number("blocks"), 3.0);
    EXPECT_EQ(args[1].at("columns").as_number("columns"), 3.0);
    EXPECT_EQ(args[1].at("states").as_number("states"), 0.0);
  }
}

/// FNV-1a 64 over what a solve returns: success, failure text, the bits of
/// eval.energy and core_of.
std::uint64_t result_digest(const Result& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) h = (h ^ bytes[i]) * 0x100000001b3ULL;
  };
  const unsigned char ok = r.success ? 1 : 0;
  mix(&ok, 1);
  mix(r.failure.data(), r.failure.size());
  std::uint64_t bits = 0;
  std::memcpy(&bits, &r.eval.energy, sizeof bits);
  mix(&bits, sizeof bits);
  for (const int c : r.mapping.core_of) {
    const auto v = static_cast<std::int64_t>(c);
    mix(&v, sizeof v);
  }
  return h;
}

/// Byte goldens of DPA2D and DPA2D1D on seeded random workloads
/// (test::random_workload(seed, n, ymax, ccr)).  Each digest folds
/// result_digest over both modes, the 4x4 and 6x6 grids of one topology
/// and three periods (pick_period x 0.5, 1, 2), in that nesting order, so
/// any change to a DP value, a tie-break or a verdict moves it.  hetero is
/// the one topology whose speed scales make the inner DP depend on the CMP
/// column.
struct Dpa2dGolden {
  std::size_t n;
  int ymax;
  double ccr;
  std::uint64_t seed;
  std::uint64_t digest[4];  ///< per topology, in kGoldenTopologies order
};

constexpr const char* kGoldenTopologies[] = {"mesh", "hetero", "torus", "snake"};

constexpr Dpa2dGolden kDpa2dGoldens[] = {
    {50, 1, 0.1, 1, {0x95e778787039c314, 0xdce2b56208a0ccd3, 0x95e778787039c314, 0x95e778787039c314}},
    {50, 1, 1.0, 2, {0x7d936ea32b72d7fb, 0xaa6d78734db3cdab, 0x7d936ea32b72d7fb, 0x7d936ea32b72d7fb}},
    {50, 1, 10.0, 3, {0x1c936a1f704742d3, 0x38b46156fb1c99f9, 0x1c936a1f704742d3, 0x1c936a1f704742d3}},
    {50, 3, 0.1, 4, {0x13775677c9c8cc94, 0x4fb267822a3d0411, 0x13775677c9c8cc94, 0xdaa84f940a6d3b64}},
    {50, 3, 1.0, 5, {0xae3bb25ecd8fbb13, 0xa1ff5c63a57ccf8a, 0xae3bb25ecd8fbb13, 0x4e3c0f89d00b12bb}},
    {50, 3, 10.0, 6, {0xa8e421333c535549, 0x6e3aa1ed0cb15996, 0xccbd9774c6ca9f19, 0x5d9636dee09ec0b9}},
    {50, 8, 0.1, 7, {0x6ea55d852e08793, 0x2738a224e0dbec75, 0xca385103d1c9822d, 0xb15049e91507eafc}},
    {50, 8, 1.0, 8, {0x2af5de5717936d48, 0x4653c60ddd75084d, 0x9f78722115543361, 0x6f8d4cde1fd25a80}},
    {50, 8, 10.0, 9, {0x8b4d0310f072cd72, 0x78e520d242dbbf68, 0x263d2767a3627ba1, 0x2acbeb083cb6a3ca}},
    {50, 16, 0.1, 10, {0x28775ad1c5d413b3, 0xfb294b6d80a29342, 0x8e0af0a8343dbfed, 0xbbc32ab26a78195d}},
    {50, 16, 1.0, 11, {0x44445f46c8c98c85, 0x95035990c0146a38, 0x19747c0556fd6000, 0xdde0cadfa76602a2}},
    {50, 16, 10.0, 12, {0x8e90894c0a605e92, 0x754859f68488fb36, 0xf1f8223f10ba1faf, 0xc0701173f878f473}},
    {50, 1, 0.1, 13, {0x7fbd09981296d941, 0x7b0fc811f4f6cc3e, 0x7fbd09981296d941, 0x7fbd09981296d941}},
    {50, 1, 1.0, 14, {0x20f61a40ad859172, 0x22dd3ff5038e2f7c, 0x20f61a40ad859172, 0x20f61a40ad859172}},
    {50, 1, 10.0, 15, {0x90f6beb1fa5ac908, 0xb0948b35eb678d62, 0x90f6beb1fa5ac908, 0x90f6beb1fa5ac908}},
    {50, 3, 0.1, 16, {0xc060672d6be1e0b7, 0xeaac87008674e90a, 0x69defc7ad535cf49, 0xde00ddb07195d7f5}},
    {50, 3, 1.0, 17, {0x18eea34a2ffce89f, 0x2f52c6cc940052e0, 0x8fa9e5eb355299c9, 0x744c4d667f8f785c}},
    {50, 3, 10.0, 18, {0x3a5c6f259d372705, 0xb2e5ced18a4dfc9e, 0x3a5c6f259d372705, 0x6f57aff3339a68cf}},
    {50, 8, 0.1, 19, {0xd860dc66417c031e, 0x1008210d9f877d63, 0xdd80f86e1af9e068, 0x6c64ee30c932f486}},
    {50, 8, 1.0, 20, {0x78ce495b2a4cbef8, 0x6943cdea02cf8d33, 0x7a3f725156560cfc, 0x7e8835bec8bb215e}},
    {50, 8, 10.0, 21, {0x1e5643074a13f690, 0x625a39d8980ddc71, 0xf29551fa433c9250, 0x8a4ef520cc87dfe5}},
    {50, 16, 0.1, 22, {0xcbc77694694fb9c1, 0xad8f374d6935a3ec, 0xd17883c6a540876b, 0xd9a10a58f4995076}},
    {50, 16, 1.0, 23, {0x5618606c710ab920, 0xc83da8d411f773e8, 0x25087bd2cdef9e04, 0xbbe3524cb1ae0d81}},
    {50, 16, 10.0, 24, {0xc9708687e7866d61, 0x8f01bace682c9026, 0xcc5ea2e70f2834b9, 0x2a732a40ccc4f27f}},
    {50, 1, 0.1, 25, {0x878d7af9e8bda00f, 0x678326c22029cba9, 0x878d7af9e8bda00f, 0x878d7af9e8bda00f}},
    {50, 1, 1.0, 26, {0x4f6e3af8a28d43c1, 0x633c128f2769df6, 0x4f6e3af8a28d43c1, 0x4f6e3af8a28d43c1}},
    {50, 1, 10.0, 27, {0x8320f505f79e90b4, 0x7c1f6d0d20de784a, 0x8320f505f79e90b4, 0x8320f505f79e90b4}},
    {50, 3, 0.1, 28, {0x194ff3548b0ede4c, 0x164edbddf86a6cb8, 0x194ff3548b0ede4c, 0x52601fa895f47730}},
    {50, 3, 1.0, 29, {0x69edf4b923e62aa9, 0xa678ddeebec3b110, 0xb25cfd6ceca23b76, 0x1df2fc58a9722ef4}},
    {50, 3, 10.0, 30, {0x1f96360e9e141527, 0x2a66b50c22fb4744, 0xde2322e380cb6fb3, 0x3f3e5d45bc01aa5d}},
    {50, 8, 0.1, 31, {0xec9c43e7f07221b8, 0x53aef5a9eac3a7e7, 0x1d686226a6c16ad3, 0x97788bb54f95c4b7}},
    {50, 8, 1.0, 32, {0x1b08800e0934bb4b, 0x4c3e1535554c9ee8, 0x1b08800e0934bb4b, 0x23d4054748a2e376}},
    {50, 8, 10.0, 33, {0x21c77feb6daeb9f5, 0x789463b5977f0684, 0x52a25670f83d9f4d, 0x5605307aa06fe503}},
    {50, 16, 0.1, 34, {0x110d5f82b4f0dfdb, 0x5c7313f6261d14de, 0xb1a18ffef94551c6, 0xddba23b8450b37c2}},
    {50, 16, 1.0, 35, {0x53c555508670a645, 0x436d3f8cfb26fe76, 0xac28200e8a2dcf65, 0xd38bd09379c4f713}},
    {50, 16, 10.0, 36, {0x92490b31c6e052f3, 0xf45a257c48865ea0, 0x5667c7684778a9dc, 0xa1f06331b358eb34}},
    {150, 3, 0.1, 101, {0xcec2610f6f03def0, 0x2687ba6c646aafc5, 0xcec2610f6f03def0, 0x54dda9a6be1dd1ac}},
    {150, 3, 1.0, 102, {0xfa0398d0e7765a89, 0x991b6a0dd6db1ed8, 0xfa0398d0e7765a89, 0xa80fad4d9f06762e}},
    {150, 3, 10.0, 103, {0x98e1ba320d1f0346, 0x2b9046389e7c8567, 0x98e1ba320d1f0346, 0xcf1339eb90cfeed}},
    {150, 6, 0.1, 104, {0x2ab68b5afabf198c, 0x4fdf5b7003a37111, 0x8a5c49427767a5a4, 0x500b57994d16de42}},
    {150, 6, 1.0, 105, {0xaad9226a7eca55f3, 0xe09dcecc05f558f8, 0x449c2db40797efd8, 0x40f1159fcc04b7a0}},
    {150, 6, 10.0, 106, {0xb752d16298188219, 0x81c93fff924b779, 0x6555803fb84716f5, 0x5de8d91520cd61a4}},
    {150, 12, 0.1, 107, {0xd49eb16959e5046e, 0xc636f7f4e3715804, 0x7b357da20d3c4c09, 0xe405b53748afea7b}},
    {150, 12, 1.0, 108, {0xa07ba9af65b7f3e, 0xe19030d0462e3bbc, 0x7e859b43ef8dafc3, 0x1f6310647ca60a20}},
    {150, 12, 10.0, 109, {0x2ec57ab93fde83d1, 0x8e2d0441b6e875aa, 0xd89ab4b48b50d2df, 0x7bc2133a733fb5a0}},
    {150, 24, 0.1, 110, {0x4be3b4bcfd0b945e, 0x26ec9d66b1a3fdc1, 0xb62ba5064d3db56e, 0x922ed2c4bbd24cba}},
    {150, 24, 1.0, 111, {0x95e62e1b4c0586d4, 0xdc3673def91b40df, 0x4f84665c971d94f0, 0x2ff97b01cd3e51d3}},
    {150, 24, 10.0, 112, {0x3c205a8194e314e7, 0xf3d2c564ccef85ed, 0x84b8d26f998cc43, 0xf7b22eb061d74546}},
};

TEST(Dpa2d, ByteGoldensOnEveryTopology) {
  using Mode = heuristics::Dpa2dHeuristic::Mode;
  std::size_t solved = 0;
  std::size_t failed = 0;
  for (const auto& row : kDpa2dGoldens) {
    const spg::Spg g = test::random_workload(row.seed, row.n, row.ymax, row.ccr);
    for (std::size_t t = 0; t < 4; ++t) {
      SCOPED_TRACE(::testing::Message() << kGoldenTopologies[t] << " n" << row.n << " ymax "
                                        << row.ymax << " ccr " << row.ccr << " seed " << row.seed);
      std::uint64_t h = 0xcbf29ce484222325ULL;
      for (const Mode mode : {Mode::Grid2D, Mode::Line1D}) {
        for (const int side : {4, 6}) {
          const auto p = cmp::Platform::reference(kGoldenTopologies[t], side, side);
          for (const double scale : {0.5, 1.0, 2.0}) {
            const Result r = heuristics::Dpa2dHeuristic(mode).run(g, p, pick_period(g, p) * scale);
            EXPECT_EQ(r.failure.find("internal"), std::string::npos) << r.failure;
            ++(r.success ? solved : failed);
            h = (h ^ result_digest(r)) * 0x100000001b3ULL;
          }
        }
      }
      EXPECT_EQ(h, row.digest[t]) << std::hex << "0x" << h;
    }
  }
  // Both verdicts occur, so the goldens pin infeasibility as well as mappings.
  EXPECT_GT(solved, 0u);
  EXPECT_GT(failed, 0u);
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
  for (const auto& h : solve::SolverSet::paper(3).instantiate()) {
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

TEST(Exact, DeltaPathOptimumMatchesFullEvaluationBruteForce) {
  // Exact scores default-route placements on the evaluator's delta path
  // (bind, apply_move + refresh, evaluate_move_batch).  Its optimum must be
  // the least valid energy over every stage -> core function, each scored
  // by the free mapping::evaluate on default routes and slowest-feasible
  // modes: a function is an injectively placed DAG-partition exactly when
  // its quotient is acyclic, which valid() demands.
  heuristics::ExactSolver::Options opt;
  opt.try_yx_routes = false;
  const heuristics::ExactSolver exact(opt);
  std::size_t feasible = 0;
  std::size_t infeasible = 0;
  std::uint64_t seed = 0;
  for (const char* topo : {"mesh", "torus", "hetero"}) {
    for (const int cols : {2, 3}) {
      const auto p = cmp::Platform::reference(topo, 2, cols);
      const int cores = p.grid().core_count();
      util::Rng rng(++seed);
      spg::Spg g = spg::random_spg(6, 3, rng);
      g.rescale_ccr(1.0);
      for (const double scale : {0.45, 0.35}) {
        const double T = pick_period(g, p) * scale;
        SCOPED_TRACE(::testing::Message() << topo << " 2x" << cols << " seed " << seed
                                          << " T " << T);
        bool found = false;
        double best = 0.0;
        mapping::Mapping m;
        m.core_of.assign(g.size(), 0);
        for (;;) {
          mapping::attach_routes(g, p.topology, m);
          if (mapping::assign_slowest_modes(g, p, T, m)) {
            const auto ev = mapping::evaluate(g, p, m, T);
            if (ev.valid() && (!found || ev.energy < best)) {
              found = true;
              best = ev.energy;
            }
          }
          std::size_t i = 0;  // odometer step over core_of
          for (; i < g.size() && ++m.core_of[i] == cores; ++i) m.core_of[i] = 0;
          if (i == g.size()) break;
        }
        const Result r = exact.run(g, p, T);
        ASSERT_EQ(r.success, found) << r.failure;
        if (found) {
          ++feasible;
          EXPECT_NEAR(r.eval.energy, best, 1e-9 * best);
        } else {
          ++infeasible;
        }
      }
    }
  }
  // Both verdicts occur, so the check pins infeasibility as well as optima.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(Factory, ProducesPaperOrder) {
  const auto hs = solve::SolverSet::paper().instantiate();
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
    for (const auto& h : solve::SolverSet::paper().instantiate()) {
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
