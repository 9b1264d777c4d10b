// Tests for the parallel sweep engine and its structured JSON emission:
// seed derivation, batch running, aggregation equivalence with the legacy
// harness::sweep, and the JSON writer's escaping/number formatting.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include <gtest/gtest-spi.h>

#include "../bench/bench_common.hpp"
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

TEST(SweepEngine, RunGeneratedMatchesLegacySweepAggregation) {
  const auto p = test::grid2x2();
  const auto make_hs = [] { return heuristics::make_paper_heuristics(5); };
  const harness::SweepEngine engine;

  const auto campaigns = engine.run_generated(
      5, 777,
      [](std::size_t, util::Rng& rng) {
        spg::Spg g = spg::random_spg(10, 2, rng);
        g.rescale_ccr(10.0);
        return g;
      },
      p, make_hs);
  ASSERT_EQ(campaigns.size(), 5u);
  const auto cell = harness::SweepEngine::aggregate(campaigns);

  // The legacy entry point with equivalent per-instance seeding must agree.
  const auto legacy = harness::sweep(
      [](std::size_t w) {
        util::Rng rng(harness::instance_seed(777, w));
        spg::Spg g = spg::random_spg(10, 2, rng);
        g.rescale_ccr(10.0);
        return g;
      },
      5, p, make_hs, 2);
  ASSERT_EQ(cell.mean_inverse_energy.size(), legacy.mean_inverse_energy.size());
  for (std::size_t h = 0; h < cell.mean_inverse_energy.size(); ++h) {
    EXPECT_DOUBLE_EQ(cell.mean_inverse_energy[h], legacy.mean_inverse_energy[h]);
    EXPECT_EQ(cell.failures[h], legacy.failures[h]);
  }
}

TEST(SweepEngine, RunFixedPreservesInputOrder) {
  const auto p = test::grid2x2();
  std::vector<spg::Spg> workloads;
  for (const std::uint64_t s : {1, 2, 3, 4}) {
    workloads.push_back(test::random_workload(s, 8, 2, 10.0));
  }
  const harness::SweepEngine engine;
  const auto campaigns =
      engine.run_fixed(workloads, p, [] { return heuristics::make_paper_heuristics(5); });
  ASSERT_EQ(campaigns.size(), workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    // Each campaign must be the one for workload w, i.e. identical to a
    // standalone run on that workload.
    const auto solo = harness::run_campaign(workloads[w], p,
                                            heuristics::make_paper_heuristics(5));
    EXPECT_DOUBLE_EQ(campaigns[w].period, solo.period) << w;
    ASSERT_EQ(campaigns[w].results.size(), solo.results.size());
    for (std::size_t h = 0; h < solo.results.size(); ++h) {
      EXPECT_EQ(campaigns[w].results[h].success, solo.results[h].success);
      if (solo.results[h].success) {
        EXPECT_DOUBLE_EQ(campaigns[w].results[h].eval.energy,
                         solo.results[h].eval.energy);
      }
    }
  }
}

TEST(SweepEngine, AggregateEmptyBatch) {
  const auto cell = harness::SweepEngine::aggregate({});
  EXPECT_EQ(cell.workloads, 0u);
  EXPECT_TRUE(cell.mean_inverse_energy.empty());
  EXPECT_TRUE(cell.failures.empty());
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

TEST(BenchCell, FromCampaignRecordsFailuresAndNormalization) {
  const auto p = test::grid2x2();
  const spg::Spg g = test::random_workload(3, 10, 2, 10.0);
  const auto c = harness::run_campaign(g, p, heuristics::make_paper_heuristics(5));
  const auto cell = harness::cell_from_campaign({{"app", "probe"}}, c);
  ASSERT_EQ(cell.values.size(), c.results.size());
  for (std::size_t h = 0; h < c.results.size(); ++h) {
    if (c.results[h].success) {
      EXPECT_GE(cell.values[h], 1.0 - 1e-12);
      EXPECT_EQ(cell.failures[h], 0u);
    } else {
      EXPECT_EQ(cell.values[h], 0.0);
      EXPECT_EQ(cell.failures[h], 1u);
    }
  }
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

TEST(BenchCommon, RandomReportWithZeroAppsStaysWellFormed) {
  // Regression: --apps=0 produced zero-width cells and the figure printer
  // indexed past them (segfault).  Cells must stay heuristic-width.
  const auto rep = bench::random_report("probe", 10, 2, 2, {1, 2}, 0, 1);
  ASSERT_EQ(rep.cells.size(), bench::random_ccrs().size() * 2);
  for (const auto& cell : rep.cells) {
    EXPECT_EQ(cell.values.size(), rep.heuristics.size());
    EXPECT_EQ(cell.failures.size(), rep.heuristics.size());
    EXPECT_EQ(cell.workloads, 0u);
  }
  std::ostringstream os;
  bench::print_random_report(rep, os, 10, 2, 2, 2);
  EXPECT_FALSE(os.str().empty());
}

TEST(Checkers, TableComparisonToleratesNumericNoise) {
  test::expect_tables_near("a 1.0000000001 fail", "a 1.0 fail", 1e-6);
  EXPECT_NONFATAL_FAILURE(test::expect_tables_near("a 1.1", "a 1.0", 1e-6),
                          "token 1");
  EXPECT_NONFATAL_FAILURE(test::expect_tables_near("x 1.0", "y 1.0", 1e-6),
                          "token 0");
}

}  // namespace
