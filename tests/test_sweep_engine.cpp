// Tests for the parallel sweep runner and its structured JSON emission:
// seed derivation, task order through the instance pipeline, the cells
// campaign::sweep_report folds results into, and the JSON writer's
// escaping/number formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest-spi.h>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "harness/sweep_engine.hpp"
#include "spg/generator.hpp"
#include "support/checkers.hpp"
#include "support/fixtures.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;

TEST(InstanceSeed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (const std::uint64_t base : {1ULL, 2ULL, 42ULL, 1000003ULL}) {
    for (std::uint64_t w = 0; w < 64; ++w) {
      EXPECT_TRUE(seen.insert(harness::instance_seed(base, w)).second)
          << "collision at base " << base << " index " << w;
    }
  }
}

TEST(RunTasks, KeepsTaskOrder) {
  const auto p = test::grid2x2();
  const auto solvers = solve::SolverSet::paper(5);
  const auto tasks = test::random_tasks(4, 1, 8, 2, 10.0);
  const auto all = test::run_tasks(tasks, 0, tasks.size(), p, solvers, 4);
  // A slice starts at its first task, as a campaign shard does.
  const auto slice = test::run_tasks(tasks, 1, 3, p, solvers, 4);
  ASSERT_EQ(all.size(), tasks.size());
  ASSERT_EQ(slice.size(), 2u);
  for (std::size_t w = 0; w < tasks.size(); ++w) {
    // Each campaign must be the one for task w, i.e. identical to a
    // standalone run on that workload.
    const auto solo = harness::run_campaign(
        test::random_workload(tasks[w].seed, 8, 2, 10.0), p, solvers);
    std::vector<const harness::Campaign*> runs = {&all[w]};
    if (w >= 1 && w < 3) runs.push_back(&slice[w - 1]);
    for (const auto* c : runs) {
      EXPECT_DOUBLE_EQ(c->period, solo.period) << w;
      ASSERT_EQ(c->results.size(), solo.results.size());
      for (std::size_t h = 0; h < solo.results.size(); ++h) {
        EXPECT_EQ(c->results[h].success, solo.results[h].success);
        if (solo.results[h].success) {
          EXPECT_DOUBLE_EQ(c->results[h].eval.energy, solo.results[h].eval.energy);
        }
      }
    }
  }
}

/// A tiny random sweep: 3 CCRs x `elevations` x `apps` instances on 2x2.
campaign::SweepSpec tiny_random_sweep(std::vector<int> elevations, std::size_t apps) {
  campaign::SweepSpec spec;
  spec.name = "probe";
  spec.kind = campaign::SweepKind::Random;
  spec.n = 10;
  spec.rows = 2;
  spec.cols = 2;
  spec.elevations = std::move(elevations);
  spec.apps = apps;
  return spec;
}

TEST(SweepReport, MeansAreNormalizedAndFailuresBounded) {
  const campaign::SweepPlan plan(tiny_random_sweep({1, 2}, 3), "mesh");
  const auto rep =
      campaign::sweep_report(plan.spec(), "mesh", plan.run_all(/*threads=*/2));
  ASSERT_EQ(rep.heuristics.size(), 5u);
  ASSERT_EQ(rep.cells.size(), campaign::random_ccrs().size() * 2);
  for (const auto& cell : rep.cells) {
    ASSERT_EQ(cell.values.size(), 5u);
    ASSERT_EQ(cell.failures.size(), 5u);
    EXPECT_EQ(cell.workloads, 3u);
    double max_mean = 0;
    for (std::size_t h = 0; h < 5; ++h) {
      EXPECT_GE(cell.values[h], 0.0);
      EXPECT_LE(cell.values[h], 1.0 + 1e-12);
      EXPECT_LE(cell.failures[h], 3u);
      max_mean = std::max(max_mean, cell.values[h]);
    }
    // The best heuristic of each workload contributes 1.0; hence at least
    // one heuristic has a strictly positive mean.
    EXPECT_GT(max_mean, 0.0);
  }
}

TEST(SweepReport, ZeroAppsKeepsCellsFullWidth) {
  // Regression: --apps=0 produced zero-width cells and the figure printer
  // indexed past them (segfault).  Cells must stay heuristic-width.
  const auto spec = tiny_random_sweep({1, 2}, 0);
  const campaign::SweepPlan plan(spec, "mesh");
  EXPECT_EQ(plan.instance_count(), 0u);
  const auto rep = campaign::sweep_report(spec, "mesh", plan.run_all(1));
  ASSERT_EQ(rep.cells.size(), campaign::random_ccrs().size() * 2);
  for (const auto& cell : rep.cells) {
    EXPECT_EQ(cell.values.size(), rep.heuristics.size());
    EXPECT_EQ(cell.failures.size(), rep.heuristics.size());
    EXPECT_EQ(cell.workloads, 0u);
  }
}

TEST(SweepReport, StreamitCellsCarryEnergyOverMinAndFailures) {
  campaign::SweepSpec spec;
  spec.name = "probe";
  spec.kind = campaign::SweepKind::Streamit;
  spec.solvers = {"random", "greedy", "dpa2d"};
  // Instance k: the first solver fails, the others spend 2 J and (2 + k) J.
  std::vector<campaign::InstanceResult> results;
  for (std::size_t k = 0; k < 48; ++k) {
    const double e = 2.0 + static_cast<double>(k);
    results.push_back({0.5, {0.0, 2.0, e}, {0, 1, 1}});
  }
  const auto rep = campaign::sweep_report(spec, "mesh", results);
  EXPECT_EQ(rep.metric, "normalized_energy");
  ASSERT_EQ(rep.cells.size(), 48u);
  for (std::size_t k = 0; k < rep.cells.size(); ++k) {
    const auto& cell = rep.cells[k];
    EXPECT_EQ(cell.period, 0.5);
    EXPECT_EQ(cell.workloads, 1u);
    EXPECT_EQ(cell.values, (std::vector<double>{0.0, 1.0, 1.0 + k / 2.0})) << k;
    EXPECT_EQ(cell.failures, (std::vector<std::size_t>{1, 0, 0})) << k;
  }
  // A short result list is an error, not a short report.
  results.pop_back();
  EXPECT_THROW((void)campaign::sweep_report(spec, "mesh", results),
               std::invalid_argument);
}

TEST(BenchReport, WritesWellFormedStableJson) {
  harness::BenchReport rep;
  rep.name = "probe";
  rep.metric = "normalized_energy";
  rep.meta = {{"grid", "2x2"}, {"ccr", "10"}};
  rep.heuristics = {"Random", "Greedy"};
  harness::BenchCell cell;
  cell.labels = {{"app", "FM \"Radio\""}};
  cell.period = 0.125;
  cell.values = {1.0, 1.5};
  cell.failures = {0, 1};
  rep.cells.push_back(cell);

  std::ostringstream a, b;
  rep.write_json(a);
  rep.write_json(b);
  EXPECT_EQ(a.str(), b.str()) << "emission must be deterministic";

  const std::string s = a.str();
  EXPECT_NE(s.find("\"bench\": \"probe\""), std::string::npos);
  EXPECT_NE(s.find("\"FM \\\"Radio\\\"\""), std::string::npos);
  EXPECT_NE(s.find("\"values\": [1, 1.5]"), std::string::npos);
  EXPECT_NE(s.find("\"failures\": [0, 1]"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness proxy without a parser).
  EXPECT_EQ(std::count(s.begin(), s.end(), '{'), std::count(s.begin(), s.end(), '}'));
  EXPECT_EQ(std::count(s.begin(), s.end(), '['), std::count(s.begin(), s.end(), ']'));
}

TEST(Json, NumberFormattingRoundTripsAndIsStable) {
  EXPECT_EQ(util::json_number(0.0), "0");
  EXPECT_EQ(util::json_number(1.0), "1");
  EXPECT_EQ(util::json_number(1.5), "1.5");
  EXPECT_EQ(util::json_number(-2.25), "-2.25");
  // Round-trip: the shortest representation must parse back exactly.
  for (const double v : {0.1, 1.0 / 3.0, 6e-12 * 8.0, 1.23456789012345e300}) {
    const std::string s = util::json_number(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
  EXPECT_EQ(util::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(util::json_number(std::nan("1")), "null");
}

/// json_number's former algorithm, the reference it must match byte for
/// byte: the first %.Pg, P = 1..17, that sscanf parses back exactly.
std::string json_number_reference(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, value);
    double back = 0.0;
    std::sscanf(buf, "%lf", &back);
    if (back == value) break;
  }
  return buf;
}

TEST(Json, NumberFormattingMatchesTheShortestPrintfLoop) {
  std::vector<double> values = {0.0, -0.0, 1.0, 0.1, 5e-324, -5e-324, 2.2250738585072014e-308,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  // Every power of two and its neighbours: where the correctly rounded
  // P-digit form can miss the value although a P-digit form round-trips.
  for (int e = -1074; e <= 1023; ++e) {
    const double x = std::ldexp(1.0, e);
    values.insert(values.end(), {x, std::nextafter(x, 0.0), std::nextafter(x, 2 * x), -x});
  }
  // Short decimals, as periods, weights and bandwidths are written.
  for (int k = 1; k <= 2000; ++k) {
    for (const double scale : {1e-9, 1e-3, 0.1, 1.0, 1e3, 1e9}) values.push_back(k * scale);
  }
  // Random bit patterns (non-finite ones included: both sides give null).
  util::Rng rng(2024);
  for (int i = 0; i < 40000; ++i) values.push_back(std::bit_cast<double>(rng.next()));
  std::size_t mismatches = 0;
  for (const double v : values) {
    if (util::json_number(v) != json_number_reference(v) && ++mismatches <= 10) {
      ADD_FAILURE() << json_number_reference(v) << " became " << util::json_number(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(util::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(util::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Checkers, TableComparisonToleratesNumericNoise) {
  test::expect_tables_near("a 1.0000000001 fail", "a 1.0 fail", 1e-6);
  EXPECT_NONFATAL_FAILURE(test::expect_tables_near("a 1.1", "a 1.0", 1e-6),
                          "token 1");
  EXPECT_NONFATAL_FAILURE(test::expect_tables_near("x 1.0", "y 1.0", 1e-6),
                          "token 0");
}

}  // namespace
