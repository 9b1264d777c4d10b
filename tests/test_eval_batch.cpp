// Batch-vs-scalar equivalence for the Evaluator's move-batch scoring path.
//
// evaluate_move_batch promises *bit-identical* scores to the scalar
// evaluate_move calls it replaces (FP addition is not associative, so
// operation order is part of the contract).  Every comparison below is
// EXPECT_EQ on raw doubles — no tolerances — across all four reference
// topologies, including infeasible candidates (cyclic quotients,
// over-period loads) and under concurrent evaluators on a thread pool.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cmp/cmp.hpp"
#include "mapping/evaluator.hpp"
#include "mapping/mapping.hpp"
#include "spg/spg.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;
using mapping::BatchScore;
using mapping::Evaluation;
using mapping::Evaluator;
using mapping::Mapping;

const char* const kTopologies[] = {"mesh", "snake", "torus", "hetero"};

void expect_bitwise(const BatchScore& b, const Evaluation& e,
                    const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(b.dag_partition_ok, e.dag_partition_ok);
  EXPECT_EQ(b.meets_period, e.meets_period);
  EXPECT_EQ(b.period, e.period);
  EXPECT_EQ(b.max_core_time, e.max_core_time);
  EXPECT_EQ(b.max_link_time, e.max_link_time);
  EXPECT_EQ(b.comp_energy, e.comp_energy);
  EXPECT_EQ(b.comm_energy, e.comm_energy);
  EXPECT_EQ(b.energy, e.energy);
  EXPECT_EQ(b.active_cores, e.active_cores);
  EXPECT_EQ(b.valid(), e.valid());
}

/// Blocks of the topological order: quotient edges only ever point to later
/// blocks, so the partition is acyclic by construction — a valid bind().
std::vector<int> block_placement(const spg::Spg& g, int cores) {
  const auto order = g.topological_order();
  std::vector<int> core_of(g.size());
  const std::size_t per = (g.size() + static_cast<std::size_t>(cores) - 1) /
                          static_cast<std::size_t>(cores);
  for (std::size_t i = 0; i < order.size(); ++i) {
    core_of[order[i]] = static_cast<int>(i / per);
  }
  return core_of;
}

/// block_placement on topology default routes with slowest-feasible modes
/// (clamped to the fastest mode where T is out of reach): always bindable.
Mapping block_mapping(const spg::Spg& g, const cmp::Platform& p, double T) {
  Mapping m;
  m.core_of = block_placement(g, p.grid().core_count());
  (void)mapping::assign_slowest_modes(g, p, T, m);
  mapping::attach_routes(g, p.topology, m);
  return m;
}

/// Every core but the one stage `s` of the bound mapping sits on.
std::vector<int> other_cores(const Evaluator& ev, spg::StageId s, int cores) {
  std::vector<int> targets;
  for (int c = 0; c < cores; ++c) {
    if (c != ev.mapping().core_of[s]) targets.push_back(c);
  }
  return targets;
}

TEST(EvalBatch, MoveBatchMatchesScalarAcrossTopologies) {
  const spg::Spg g = test::random_workload(23, 40, 4, 1.0);
  for (const char* topo : kTopologies) {
    const cmp::Platform p = cmp::Platform::reference(topo, 4, 4);
    const int cores = p.grid().core_count();
    const double T = test::pick_period(g, p);

    Mapping m;
    m.core_of = block_placement(g, cores);
    m.mode_of_core.assign(static_cast<std::size_t>(cores), 0);
    m.edge_paths.assign(g.edge_count(), {});
    ASSERT_TRUE(mapping::assign_slowest_modes(g, p, T, m)) << topo;
    mapping::attach_routes(g, p.topology, m);

    Evaluator ev(g, p, T);
    const Evaluation& bound = ev.bind(m);
    ASSERT_TRUE(bound.error.empty()) << topo << ": " << bound.error;
    const double bound_energy = bound.energy;

    util::Rng rng(7);
    for (int round = 0; round < 6; ++round) {
      const auto s = static_cast<spg::StageId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.size()) - 1));
      const int home = ev.mapping().core_of[s];
      std::vector<int> targets;
      for (int c = 0; c < cores; ++c) {
        if (c != home) targets.push_back(c);
      }

      const std::vector<BatchScore> batch = ev.evaluate_move_batch(s, targets);
      ASSERT_EQ(batch.size(), targets.size());
      // The batch must leave the bound state untouched.
      EXPECT_EQ(ev.current().energy, bound_energy);

      for (std::size_t k = 0; k < targets.size(); ++k) {
        const Evaluation& scalar = ev.evaluate_move(s, targets[k]);
        expect_bitwise(batch[k], scalar,
                       std::string(topo) + " stage " + std::to_string(s) +
                           " -> core " + std::to_string(targets[k]));
      }
    }
  }
}

TEST(EvalBatch, MoveBatchHandlesCyclicQuotientCandidates) {
  // diamond bound on {0,1,0,1}: moving stage 3 to core 0 turns its 1 -> 3
  // edge into a 1 -> 0 quotient edge, closing 0 -> 1 -> 0.  The scalar
  // path finds it by shift + acyclic(), the batch by its frozen closure.
  const spg::Spg g = test::diamond();
  const cmp::Platform p = test::grid2x2();
  const double T = test::pick_period(g, p);
  Mapping m;
  m.core_of = {0, 1, 0, 1};
  m.mode_of_core.assign(4, 0);
  m.edge_paths.assign(g.edge_count(), {});
  ASSERT_TRUE(mapping::assign_slowest_modes(g, p, T, m));
  mapping::attach_routes(g, p.topology, m);
  Evaluator ev(g, p, T);
  const Evaluation& bound = ev.bind(m);
  ASSERT_TRUE(bound.error.empty()) << bound.error;
  ASSERT_TRUE(bound.dag_partition_ok);

  const std::vector<int> targets = {0, 2, 3};
  const std::vector<BatchScore> batch = ev.evaluate_move_batch(3, targets);
  ASSERT_EQ(batch.size(), targets.size());
  EXPECT_FALSE(batch[0].dag_partition_ok);  // the cycle
  EXPECT_TRUE(batch[1].dag_partition_ok);
  EXPECT_TRUE(batch[2].dag_partition_ok);

  for (std::size_t k = 0; k < targets.size(); ++k) {
    expect_bitwise(batch[k], ev.evaluate_move(3, targets[k]),
                   "diamond move to " + std::to_string(targets[k]));
  }
}

TEST(EvalBatch, MoveBatchHandlesOverPeriodCandidates) {
  // A period nobody can meet: every candidate fails meets_period, and the
  // clamped-mode scores must still match the scalar path bit for bit.
  const spg::Spg g = test::random_workload(31, 12, 3, 1.0);
  const cmp::Platform p = test::grid2x2();
  const double T = test::pick_period(g, p) * 1e-6;
  Evaluator ev(g, p, T);
  const Evaluation& bound = ev.bind(block_mapping(g, p, T));
  ASSERT_TRUE(bound.error.empty()) << bound.error;
  ASSERT_FALSE(bound.meets_period);

  const std::vector<int> targets = other_cores(ev, 5, p.grid().core_count());
  const std::vector<BatchScore> batch = ev.evaluate_move_batch(5, targets);
  ASSERT_EQ(batch.size(), targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) {
    EXPECT_FALSE(batch[k].meets_period);
    expect_bitwise(batch[k], ev.evaluate_move(5, targets[k]),
                   "over-period target " + std::to_string(targets[k]));
  }
}

TEST(EvalBatch, BatchScoresIdenticalAcrossThreadCounts) {
  const spg::Spg g = test::random_workload(41, 40, 4, 1.0);
  const cmp::Platform p = test::grid4x4();
  const double T = test::pick_period(g, p);
  const Mapping m = block_mapping(g, p, T);

  Evaluator reference(g, p, T);
  reference.bind(m);
  const std::vector<int> targets = other_cores(reference, 9, p.grid().core_count());
  const std::vector<BatchScore> expected = reference.evaluate_move_batch(9, targets);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    std::vector<std::vector<BatchScore>> got(8);
    for (auto& slot : got) {
      pool.submit([&, out = &slot] {
        Evaluator local(g, p, T);  // evaluators are per-thread by contract
        local.bind(m);
        *out = local.evaluate_move_batch(9, targets);
      });
    }
    pool.wait_idle();
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].size(), expected.size());
      for (std::size_t k = 0; k < expected.size(); ++k) {
        SCOPED_TRACE("threads " + std::to_string(threads) + " worker " +
                     std::to_string(i) + " target " + std::to_string(k));
        EXPECT_EQ(got[i][k].energy, expected[k].energy);
        EXPECT_EQ(got[i][k].period, expected[k].period);
        EXPECT_EQ(got[i][k].comm_energy, expected[k].comm_energy);
        EXPECT_EQ(got[i][k].valid(), expected[k].valid());
      }
    }
  }
}

TEST(EvalBatch, BitQuotientMatchesKahnOnRandomPartialPlacements) {
  mapping::QuotientWorkspace ws;
  mapping::BitQuotient q;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const spg::Spg g = test::random_workload(seed, 30, 3, 1.0);
    util::Rng rng(seed * 977);
    const int cores = 9;
    std::vector<int> core_of(g.size());
    // Entries below 0 are unplaced stages; both checkers must skip them.
    for (auto& c : core_of) c = static_cast<int>(rng.uniform_int(-1, cores - 1));
    EXPECT_EQ(mapping::quotient_acyclic_in(g, core_of, cores, ws),
              mapping::quotient_acyclic_bits(g, core_of, cores, q))
        << "seed " << seed;
  }
}

TEST(EvalBatch, BatchCallsCountCandidates) {
  const spg::Spg g = test::random_workload(3, 20, 3, 1.0);
  const cmp::Platform p = test::grid2x2();
  const double T = test::pick_period(g, p);
  Evaluator ev(g, p, T);

  mapping::EvalCounters calls;
  {
    const mapping::ScopedEvalSink scope(&calls);
    ev.bind(block_mapping(g, p, T));
    const std::vector<int> targets = other_cores(ev, 0, p.grid().core_count());
    ASSERT_EQ(targets.size(), 3u);
    ev.evaluate_move_batch(0, targets);
    ev.evaluate_move_batch(0, {targets[0]});
  }
  EXPECT_EQ(calls.batch, 4u);  // 3 + 1 move candidates
  EXPECT_EQ(calls.full, 1u);   // the bind
  EXPECT_EQ(calls.incremental, 0u);
}

}  // namespace
