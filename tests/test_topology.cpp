// Tests for the pluggable cmp::Topology layer and the arena-based
// mapping::Evaluator: routing-table/property agreement with the on-the-fly
// Grid routes, torus wrap-around goldens, heterogeneous speed scales,
// incremental-move equivalence with full evaluation, and thread-count
// determinism of topology sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "mapping/evaluator.hpp"
#include "support/checkers.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;
using cmp::CoreId;
using cmp::Dir;
using cmp::LinkId;
using cmp::Topology;

// ---------------------------------------------------------------- dirs ----

TEST(Dir, OppositeIsAnInvolution) {
  EXPECT_EQ(cmp::opposite(Dir::North), Dir::South);
  EXPECT_EQ(cmp::opposite(Dir::South), Dir::North);
  EXPECT_EQ(cmp::opposite(Dir::West), Dir::East);
  EXPECT_EQ(cmp::opposite(Dir::East), Dir::West);
  for (int d = 0; d < 4; ++d) {
    const auto dir = static_cast<Dir>(d);
    EXPECT_EQ(cmp::opposite(cmp::opposite(dir)), dir);
  }
}

TEST(Dir, ToStringNames) {
  EXPECT_STREQ(cmp::to_string(Dir::North), "North");
  EXPECT_STREQ(cmp::to_string(Dir::South), "South");
  EXPECT_STREQ(cmp::to_string(Dir::West), "West");
  EXPECT_STREQ(cmp::to_string(Dir::East), "East");
}

TEST(Evaluate, BadPathErrorsNameCoreAndDirection) {
  const auto g = spg::chain(2, 1e6, 1.0);
  const auto p = test::grid2x2();
  mapping::Mapping m;
  m.core_of = {0, 3};
  m.mode_of_core.assign(4, 0);
  // (1,0) has no southern neighbour on a 2x2 mesh.
  m.edge_paths = {{LinkId{{0, 0}, Dir::South}, LinkId{{1, 0}, Dir::South}}};
  const auto ev = mapping::evaluate(g, p, m, 1.0);
  EXPECT_NE(ev.error.find("(1,0)"), std::string::npos) << ev.error;
  EXPECT_NE(ev.error.find("South"), std::string::npos) << ev.error;
}

// ------------------------------------------------------- routing tables ----

/// Walk `path` from `src` over `topo`, asserting continuity and link
/// existence; returns the final core.
CoreId walk(const Topology& topo, CoreId src, std::span<const LinkId> path) {
  CoreId cur = src;
  for (const auto& l : path) {
    EXPECT_TRUE(l.from == cur);
    EXPECT_TRUE(topo.has_link(l.from, l.dir))
        << "(" << l.from.row << "," << l.from.col << ") " << cmp::to_string(l.dir);
    cur = topo.link_target(l.from, l.dir);
  }
  return cur;
}

TEST(Topology, MeshTableMatchesXyRouteUpTo8x8) {
  for (const auto& [rows, cols] : {std::pair{1, 1}, {2, 3}, {4, 4}, {3, 8}, {8, 8}}) {
    const auto topo = Topology::mesh(rows, cols, 1.0);
    const auto& g = topo.grid();
    for (int s = 0; s < topo.core_count(); ++s) {
      for (int d = 0; d < topo.core_count(); ++d) {
        const auto table = topo.route(s, d);
        const auto fly = g.xy_route(g.core_at(s), g.core_at(d));
        ASSERT_EQ(table.size(), fly.size()) << rows << "x" << cols;
        for (std::size_t i = 0; i < fly.size(); ++i) {
          EXPECT_TRUE(table[i] == fly[i]);
        }
        EXPECT_EQ(topo.distance(s, d), g.manhattan(g.core_at(s), g.core_at(d)));
      }
    }
  }
}

TEST(Topology, SnakeTableMatchesSnakeRouteUpTo8x8) {
  for (const auto& [rows, cols] : {std::pair{1, 1}, {2, 3}, {4, 4}, {8, 8}}) {
    const auto topo = Topology::snake(rows, cols, 1.0);
    const auto& g = topo.grid();
    for (int s = 0; s < topo.core_count(); ++s) {
      for (int d = 0; d < topo.core_count(); ++d) {
        const CoreId a = g.core_at(s), b = g.core_at(d);
        const auto table = topo.route(s, d);
        const int gap = std::abs(g.snake_position(a) - g.snake_position(b));
        ASSERT_EQ(static_cast<int>(table.size()), gap);
        EXPECT_TRUE(walk(topo, a, table) == b);
        if (g.snake_position(a) <= g.snake_position(b)) {
          // Forward routes must agree with the on-the-fly snake_route.
          const auto fly = g.snake_route(a, b);
          ASSERT_EQ(table.size(), fly.size());
          for (std::size_t i = 0; i < fly.size(); ++i) {
            EXPECT_TRUE(table[i] == fly[i]);
          }
        }
      }
    }
  }
}

TEST(Topology, TorusGoldenWrapRoutes) {
  const auto topo = Topology::torus(4, 4, 1.0);
  const auto& g = topo.grid();
  const auto idx = [&](int r, int c) { return g.core_index(CoreId{r, c}); };

  // (0,0) -> (0,3): one westward wrap hop instead of three east.
  {
    const auto r = topo.route(idx(0, 0), idx(0, 3));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_TRUE(r[0] == (LinkId{{0, 0}, Dir::West}));
  }
  // (0,0) -> (3,0): one northward wrap hop.
  {
    const auto r = topo.route(idx(0, 0), idx(3, 0));
    ASSERT_EQ(r.size(), 1u);
    EXPECT_TRUE(r[0] == (LinkId{{0, 0}, Dir::North}));
  }
  // (0,1) -> (0,3): distance tie (2 east vs 2 west) resolves East.
  {
    const auto r = topo.route(idx(0, 1), idx(0, 3));
    ASSERT_EQ(r.size(), 2u);
    EXPECT_TRUE(r[0] == (LinkId{{0, 1}, Dir::East}));
    EXPECT_TRUE(r[1] == (LinkId{{0, 2}, Dir::East}));
  }
  // (3,3) -> (1,1): wrap both dimensions (E, E then S, S).
  {
    const auto r = topo.route(idx(3, 3), idx(1, 1));
    ASSERT_EQ(r.size(), 4u);
    EXPECT_TRUE(r[0] == (LinkId{{3, 3}, Dir::East}));
    EXPECT_TRUE(r[1] == (LinkId{{3, 0}, Dir::East}));
    EXPECT_TRUE(r[2] == (LinkId{{3, 1}, Dir::South}));
    EXPECT_TRUE(r[3] == (LinkId{{0, 1}, Dir::South}));
  }
  // Wrap links index fine through the topology but throw through the Grid.
  const LinkId wrap{{0, 0}, Dir::West};
  EXPECT_NO_THROW(static_cast<void>(topo.link_index(wrap)));
  EXPECT_THROW(static_cast<void>(g.link_index(wrap)), std::out_of_range);
  EXPECT_LT(topo.link_index(wrap), topo.link_count());
}

TEST(Topology, TorusRoutesAreShortestOnOddGrid) {
  // Odd extents make the per-dimension shortest direction unique.
  const auto topo = Topology::torus(5, 5, 1.0);
  const auto& g = topo.grid();
  for (int s = 0; s < topo.core_count(); ++s) {
    for (int d = 0; d < topo.core_count(); ++d) {
      const CoreId a = g.core_at(s), b = g.core_at(d);
      const int dr = std::abs(a.row - b.row);
      const int dc = std::abs(a.col - b.col);
      const int expect = std::min(dr, 5 - dr) + std::min(dc, 5 - dc);
      EXPECT_EQ(topo.distance(s, d), expect);
      EXPECT_TRUE(walk(topo, a, topo.route(s, d)) == b);
    }
  }
}

TEST(Topology, RouteLinkIndicesMatchRoutes) {
  for (const auto& name : Topology::names()) {
    const auto topo = Topology::make(name, 3, 4, 1.0);
    for (int s = 0; s < topo.core_count(); ++s) {
      for (int d = 0; d < topo.core_count(); ++d) {
        const auto links = topo.route(s, d);
        const auto idxs = topo.route_links(s, d);
        ASSERT_EQ(links.size(), idxs.size());
        for (std::size_t i = 0; i < links.size(); ++i) {
          EXPECT_EQ(idxs[i], topo.link_index(links[i]));
        }
      }
    }
  }
}

TEST(Topology, HeteroCheckerboardScales) {
  const auto topo = Topology::hetero_mesh(3, 3, 1.0, 0.5);
  EXPECT_TRUE(topo.heterogeneous());
  for (int c = 0; c < topo.core_count(); ++c) {
    const CoreId id = topo.grid().core_at(c);
    const double expect = ((id.row + id.col) % 2 == 0) ? 1.0 : 0.5;
    EXPECT_DOUBLE_EQ(topo.core_speed_scale(c), expect);
  }
  // Mesh topologies are homogeneous full-speed.
  const auto mesh = Topology::mesh(3, 3, 1.0);
  EXPECT_FALSE(mesh.heterogeneous());
  for (int c = 0; c < mesh.core_count(); ++c) {
    EXPECT_DOUBLE_EQ(mesh.core_speed_scale(c), 1.0);
  }
  EXPECT_THROW(Topology::make("ring", 2, 2, 1.0), std::invalid_argument);
}

// ------------------------------------------- heuristics on new fabrics ----

TEST(Topology, AllFiveHeuristicsValidOnTorus) {
  const auto p = cmp::Platform::reference("torus", 4, 4);
  const auto g = test::random_workload(7, 30, 5, 1.0);
  // Relaxed enough that every heuristic (including Random's trials) finds a
  // mapping; validity at the bound is what this test audits.
  const double T = test::period_for_cores(g, 2.0);
  for (const auto& h : solve::SolverSet::paper().instantiate()) {
    const auto r = h->run(g, p, T);
    test::expect_valid_result(r, g, p, T, h->name() + " on torus");
  }
}

TEST(Topology, HeuristicsOnSnakeAndHeteroAreAudited) {
  const auto g = test::random_workload(11, 20, 4, 1.0);
  for (const auto& name : {std::string("snake"), std::string("hetero")}) {
    const auto p = cmp::Platform::reference(name, 4, 4);
    const double T = test::pick_period(g, p, 0.4);
    for (const auto& h : solve::SolverSet::paper().instantiate()) {
      const auto r = h->run(g, p, T);
      if (r.success) {
        test::expect_valid_mapping(g, p, r.mapping, T, h->name() + " on " + name);
      }
    }
  }
}

TEST(Topology, HeteroScaleTightensThePeriodCheck) {
  // A cluster on a slow core: the evaluator must use speed * scale.
  const auto topo = Topology::hetero_mesh(1, 2, 16.0 * 1.2e9, 0.5);
  const cmp::Platform p{topo, cmp::SpeedModel::xscale(), cmp::CommModel{}};
  const auto g = spg::chain(2, 0.45e9, 0.0);  // 0.9e9 cycles total
  mapping::Mapping m;
  m.core_of = {1, 1};  // core (0,1) runs at scale 0.5 -> effective 0.5 GHz max
  m.mode_of_core.assign(2, 4);
  m.edge_paths.assign(1, {});
  const auto ev = mapping::evaluate(g, p, m, 1.0);
  EXPECT_FALSE(ev.meets_period);  // 0.9e9 / 0.5e9 = 1.8 s > 1 s
  EXPECT_NEAR(ev.max_core_time, 1.8, 1e-12);
  // The fast core fits comfortably.
  m.core_of = {0, 0};
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 1.0, m));
  const auto ev2 = mapping::evaluate(g, p, m, 1.0);
  EXPECT_TRUE(ev2.valid()) << ev2.error;
}

// ----------------------------------------------------------- evaluator ----

TEST(Evaluator, PlacementMatchesExplicitRouteEvaluation) {
  util::Rng rng(3);
  for (const auto& name : Topology::names()) {
    const auto p = cmp::Platform::reference(name, 3, 3);
    const auto g = test::random_workload(5, 15, 4, 1.0);
    mapping::Evaluator evaluator(g, p, 1.0);
    for (int rep = 0; rep < 20; ++rep) {
      std::vector<int> core_of(g.size());
      for (auto& c : core_of) {
        c = static_cast<int>(rng.uniform_int(0, p.grid().core_count() - 1));
      }
      mapping::Mapping m;
      m.core_of = core_of;
      (void)mapping::assign_slowest_modes(g, p, 1.0, m);
      mapping::attach_routes(g, p.topology, m);
      const auto full = mapping::evaluate(g, p, m, 1.0);
      const auto& placed = evaluator.evaluate_placement(core_of, m.mode_of_core);
      ASSERT_TRUE(full.error.empty()) << full.error;
      EXPECT_EQ(placed.valid(), full.valid());
      EXPECT_EQ(placed.dag_partition_ok, full.dag_partition_ok);
      EXPECT_EQ(placed.meets_period, full.meets_period);
      EXPECT_EQ(placed.active_cores, full.active_cores);
      EXPECT_DOUBLE_EQ(placed.energy, full.energy);
      EXPECT_DOUBLE_EQ(placed.period, full.period);
    }
  }
}

TEST(Evaluator, IncrementalMovesMatchFullReEvaluation) {
  util::Rng rng(17);
  for (const auto& name : Topology::names()) {
    const auto p = cmp::Platform::reference(name, 3, 3);
    const auto g = test::random_workload(9, 18, 4, 1.0);
    const double T = test::pick_period(g, p, 0.4);

    // Seed: everything on core 0, then routed and downgraded.  The seed
    // need not meet the period — bind only requires structural validity,
    // and the move probes must agree with full evaluation either way.
    mapping::Mapping m;
    m.core_of.assign(g.size(), 0);
    mapping::attach_routes(g, p.topology, m);
    (void)mapping::assign_slowest_modes(g, p, T, m);

    mapping::Evaluator evaluator(g, p, T);
    ASSERT_TRUE(evaluator.bind(m).error.empty());

    int committed = 0;
    for (int step = 0; step < 120; ++step) {
      const auto s = static_cast<spg::StageId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.size()) - 1));
      const int to = static_cast<int>(rng.uniform_int(0, p.grid().core_count() - 1));
      if (to == evaluator.mapping().core_of[s]) continue;

      const auto& inc = evaluator.evaluate_move(s, to);
      const bool inc_valid = inc.valid();
      const double inc_energy = inc.energy;

      // Reference: apply the same move from scratch.
      mapping::Mapping cand = evaluator.mapping();
      cand.core_of[s] = to;
      mapping::attach_routes(g, p.topology, cand);
      const bool modes_ok = mapping::assign_slowest_modes(g, p, T, cand);
      const auto full = mapping::evaluate(g, p, cand, T);
      ASSERT_TRUE(full.error.empty()) << full.error;
      EXPECT_EQ(inc_valid, modes_ok && full.valid()) << name << " step " << step;
      if (inc_valid) {
        const double tol = 1e-9 * std::max(1.0, std::abs(full.energy));
        EXPECT_NEAR(inc_energy, full.energy, tol) << name << " step " << step;
      }
      if (step % 3 == 0) {
        // Commit regardless of validity: the arenas must stay coherent and
        // round-trip through a fresh evaluation of the bound mapping.
        evaluator.commit_move();
        ++committed;
        const auto check = mapping::evaluate(g, p, evaluator.mapping(), T);
        ASSERT_TRUE(check.error.empty()) << check.error;
        EXPECT_EQ(evaluator.current().dag_partition_ok, check.dag_partition_ok);
        EXPECT_EQ(evaluator.current().meets_period, check.meets_period);
        EXPECT_EQ(evaluator.current().active_cores, check.active_cores);
        const double tol = 1e-9 * std::max(1.0, std::abs(check.energy));
        EXPECT_NEAR(evaluator.current().energy, check.energy, tol);
        EXPECT_NEAR(evaluator.current().period, check.period,
                    1e-9 * std::max(1.0, check.period));
      }
    }
    EXPECT_GT(committed, 0) << name;
  }
}

TEST(Evaluator, MoveProtocolGuards) {
  const auto p = test::grid2x2();
  const auto g = spg::chain(3, 1e8, 1.0);
  mapping::Evaluator evaluator(g, p, 1.0);
  EXPECT_THROW(evaluator.evaluate_move(0, 1), std::logic_error);
  EXPECT_THROW(evaluator.commit_move(), std::logic_error);
  mapping::Mapping m;
  m.core_of.assign(g.size(), 0);
  mapping::attach_routes(g, p.topology, m);
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, 1.0, m));
  ASSERT_TRUE(evaluator.bind(m).valid());
  EXPECT_THROW(evaluator.evaluate_move(0, 0), std::invalid_argument);
  EXPECT_THROW(evaluator.evaluate_move(0, 99), std::out_of_range);
}

// -------------------------------------------------------- determinism ----

/// A topology sweep (random batch on a 3x3 fabric) through the real report
/// path, SweepPlan::run_all and sweep_report, as BENCH JSON bytes.
std::string sweep_fingerprint(const std::string& topology, std::size_t threads) {
  campaign::SweepSpec spec;
  spec.name = "topology_determinism_" + topology;
  spec.kind = campaign::SweepKind::Random;
  spec.n = 16;
  spec.rows = 3;
  spec.cols = 3;
  spec.elevations = {4};
  spec.apps = 2;
  const campaign::SweepPlan plan(spec, topology);
  std::ostringstream os;
  campaign::sweep_report(spec, topology, plan.run_all(threads)).write_json(os);
  return os.str();
}

TEST(Topology, SweepsAreByteIdenticalAcrossThreadCounts) {
  for (const auto& name : Topology::names()) {
    const auto one = sweep_fingerprint(name, 1);
    const auto four = sweep_fingerprint(name, 4);
    const auto eight = sweep_fingerprint(name, 8);
    EXPECT_EQ(one, four) << name;
    EXPECT_EQ(one, eight) << name;
  }
}

}  // namespace
