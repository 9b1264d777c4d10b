// Determinism regression: an experiment sweep must produce byte-identical
// mappings, evaluations and JSON reports no matter how many threads run it.
// This is the property that lets bench output at --threads=8 be diffed
// against --threads=1 (and against the paper) without tolerance.

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "harness/sweep_engine.hpp"
#include "support/fixtures.hpp"

namespace {

using namespace spgcmp;
using harness::Campaign;

/// Bitwise equality for doubles: "byte-identical" really means the bits.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::vector<Campaign> run(const std::vector<harness::GeneratedTask>& tasks,
                          std::size_t threads) {
  return test::run_tasks(tasks, 0, tasks.size(), test::grid2x2(),
                            solve::SolverSet::paper(9), threads);
}

std::vector<Campaign> run_with_threads(std::size_t threads) {
  return run(test::random_tasks(6, /*seed_base=*/1234, 12, 3, 10.0), threads);
}

void expect_identical(const std::vector<Campaign>& a, const std::vector<Campaign>& b,
                      const std::string& who) {
  ASSERT_EQ(a.size(), b.size()) << who;
  for (std::size_t w = 0; w < a.size(); ++w) {
    ASSERT_TRUE(same_bits(a[w].period, b[w].period)) << who << " instance " << w;
    ASSERT_EQ(a[w].results.size(), b[w].results.size()) << who;
    for (std::size_t h = 0; h < a[w].results.size(); ++h) {
      const auto& ra = a[w].results[h];
      const auto& rb = b[w].results[h];
      ASSERT_EQ(ra.success, rb.success) << who << " w" << w << " h" << h;
      if (!ra.success) {
        EXPECT_EQ(ra.failure, rb.failure) << who << " w" << w << " h" << h;
        continue;
      }
      // Byte-identical mapping ...
      EXPECT_EQ(ra.mapping.core_of, rb.mapping.core_of) << who << " w" << w << " h" << h;
      EXPECT_EQ(ra.mapping.mode_of_core, rb.mapping.mode_of_core)
          << who << " w" << w << " h" << h;
      ASSERT_EQ(ra.mapping.edge_paths.size(), rb.mapping.edge_paths.size());
      for (std::size_t e = 0; e < ra.mapping.edge_paths.size(); ++e) {
        ASSERT_EQ(ra.mapping.edge_paths[e].size(), rb.mapping.edge_paths[e].size())
            << who << " edge " << e;
        for (std::size_t k = 0; k < ra.mapping.edge_paths[e].size(); ++k) {
          EXPECT_TRUE(ra.mapping.edge_paths[e][k] == rb.mapping.edge_paths[e][k])
              << who << " edge " << e << " hop " << k;
        }
      }
      // ... and byte-identical evaluation.
      EXPECT_TRUE(same_bits(ra.eval.energy, rb.eval.energy))
          << who << " w" << w << " h" << h;
      EXPECT_TRUE(same_bits(ra.eval.period, rb.eval.period));
      EXPECT_TRUE(same_bits(ra.eval.comp_energy, rb.eval.comp_energy));
      EXPECT_TRUE(same_bits(ra.eval.comm_energy, rb.eval.comm_energy));
      EXPECT_EQ(ra.eval.active_cores, rb.eval.active_cores);
    }
    // Each solve counts its own evaluator calls, whichever worker ran it.
    ASSERT_EQ(a[w].stats.size(), b[w].stats.size()) << who;
    for (std::size_t h = 0; h < a[w].stats.size(); ++h) {
      const auto& sa = a[w].stats[h];
      const auto& sb = b[w].stats[h];
      EXPECT_EQ(sa.full_evals, sb.full_evals) << who << " w" << w << " h" << h;
      EXPECT_EQ(sa.placement_evals, sb.placement_evals) << who << " w" << w << " h" << h;
      EXPECT_EQ(sa.incremental_evals, sb.incremental_evals)
          << who << " w" << w << " h" << h;
      EXPECT_EQ(sa.batch_evals, sb.batch_evals) << who << " w" << w << " h" << h;
    }
  }
}

TEST(Determinism, SweepIdenticalAcross1_4_8Threads) {
  const auto t1 = run_with_threads(1);
  const auto t4 = run_with_threads(4);
  const auto t8 = run_with_threads(8);
  expect_identical(t1, t4, "1-vs-4");
  expect_identical(t1, t8, "1-vs-8");
}

TEST(Determinism, JsonReportsByteIdenticalAcrossThreadCounts) {
  // The real report path: a tiny sweep through SweepPlan::run_all and
  // sweep_report, rendered by the BENCH writer.
  campaign::SweepSpec spec;
  spec.name = "determinism_probe";
  spec.kind = campaign::SweepKind::Random;
  spec.n = 12;
  spec.rows = 2;
  spec.cols = 2;
  spec.elevations = {3};
  spec.apps = 2;
  spec.seed_base = 1234;
  const campaign::SweepPlan plan(spec, "mesh");
  auto report_at = [&](std::size_t threads) {
    std::ostringstream os;
    campaign::sweep_report(spec, "mesh", plan.run_all(threads)).write_json(os);
    return os.str();
  };
  const std::string j1 = report_at(1);
  EXPECT_EQ(j1, report_at(4));
  EXPECT_EQ(j1, report_at(8));
}

TEST(Determinism, InstanceSeedsArePinned) {
  // instance_seed is a persistence format: BENCH_*.json results are only
  // comparable across runs (and releases) if instance w of stream `base`
  // always maps to the same workload.  Golden values pin the function; a
  // change here invalidates every recorded sweep and must be deliberate.
  struct Golden {
    std::uint64_t base, index, seed;
  };
  const Golden golden[] = {
      {42ULL, 0ULL, 0x6fbd8464a1696e51ULL},
      {42ULL, 1ULL, 0x1f4e86a81d457cc6ULL},
      {42ULL, 7ULL, 0xc9516f4f22420a7bULL},
      {1000003ULL, 0ULL, 0xd5a8f76e63e987f3ULL},
      {1000003ULL, 1ULL, 0xff42f82ebf9f455aULL},
      {1000003ULL, 7ULL, 0x9216c70d48d736a4ULL},
  };
  for (const auto& g : golden) {
    EXPECT_EQ(harness::instance_seed(g.base, g.index), g.seed)
        << "base " << g.base << " index " << g.index;
  }
}

TEST(Determinism, SubsetBatchReusesIdenticalWorkloads) {
  // Running a prefix of a batch (e.g. --apps=2 after --apps=6) must see
  // exactly the workloads the longer run saw: instance identity depends
  // only on (base, index), never on batch size or sibling instances.
  const auto full = run(test::random_tasks(6, 555, 10, 2, 10.0), 0);
  const auto prefix = run(test::random_tasks(2, 555, 10, 2, 10.0), 0);
  expect_identical(prefix, {full.begin(), full.begin() + 2}, "prefix-vs-full");
}

}  // namespace
