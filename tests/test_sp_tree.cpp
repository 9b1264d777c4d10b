// Tests for the SP decomposition tree: recognition, rejection of non-SP
// DAGs, exact ideal counting validated against brute-force enumeration on
// random SPGs, the perfect rank of the ideals checked against the ideals
// themselves, and decomposition of graphs as large as serve accepts.

#include <gtest/gtest.h>

#include <unordered_set>

#include "spg/compose.hpp"
#include "spg/generator.hpp"
#include "spg/sp_tree.hpp"
#include "spg/streamit.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace {

using namespace spgcmp;
using spg::chain;
using spg::parallel;
using spg::series;
using spg::Spg;

/// Brute-force ideal count by subset check (n <= ~20).
std::uint64_t brute_ideals(const Spg& g) {
  const std::size_t n = g.size();
  std::uint64_t count = 0;
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    bool ok = true;
    for (const auto& e : g.edges()) {
      if ((mask >> e.dst & 1) && !(mask >> e.src & 1)) {
        ok = false;
        break;
      }
    }
    count += ok;
  }
  return count;
}

/// Every order ideal of `g`, found breadth-first from the empty set by
/// adding one ready stage at a time and remembering each set seen.
std::vector<util::DynBitset> all_ideals(const Spg& g) {
  std::unordered_set<util::DynBitset, util::DynBitsetHash> seen{util::DynBitset(g.size())};
  std::vector<util::DynBitset> ideals{util::DynBitset(g.size())};
  for (std::size_t i = 0; i < ideals.size(); ++i) {
    for (spg::StageId v = 0; v < g.size(); ++v) {
      if (ideals[i].test(v)) continue;
      bool ready = true;
      for (const spg::EdgeId e : g.in_edges(v)) ready = ready && ideals[i].test(g.edge(e).src);
      if (!ready) continue;
      util::DynBitset next = ideals[i];
      next.set(v);
      if (seen.insert(next).second) ideals.push_back(std::move(next));
    }
  }
  return ideals;
}

/// The rank maps the ideals one-to-one onto [0, ideal count), and every
/// weight is positive, so a strict subset ranks strictly lower.
void expect_perfect_rank(const Spg& g) {
  const auto tree = spg::SpTree::decompose(g);
  ASSERT_TRUE(tree.has_value());
  const auto rank = tree->ideal_rank(1u << 20);
  const auto ideals = all_ideals(g);
  ASSERT_EQ(rank.count, ideals.size());
  ASSERT_EQ(rank.count, tree->ideal_count(1u << 20));
  ASSERT_EQ(rank.weight.size(), g.size());
  for (const std::uint64_t w : rank.weight) EXPECT_GT(w, 0u);
  std::vector<char> taken(rank.count, 0);
  for (const auto& ideal : ideals) {
    std::uint64_t r = 0;
    for (spg::StageId v = 0; v < g.size(); ++v) {
      if (ideal.test(v)) r += rank.weight[v];
    }
    ASSERT_LT(r, rank.count);
    EXPECT_FALSE(taken[r]) << "two ideals of rank " << r;
    taken[r] = 1;
  }
}

TEST(SpTree, ChainDecomposesToSeriesOnly) {
  const auto tree = spg::SpTree::decompose(chain(5));
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->series_count(), 3u);
  EXPECT_EQ(tree->parallel_count(), 0u);
}

TEST(SpTree, MultiEdgeIsParallel) {
  const Spg g = parallel(spg::two_node(), spg::two_node());
  const auto tree = spg::SpTree::decompose(g);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->parallel_count(), 1u);
  EXPECT_EQ(tree->series_count(), 0u);
}

TEST(SpTree, RejectsNonSpDag) {
  // The "N" graph: a -> c, a -> d, b -> d plus a source/sink wrapper is the
  // canonical non-SP witness.  Build directly: s -> a, s -> b, a -> c,
  // a -> d, b -> d, c -> t, d -> t.
  const std::vector<spg::Stage> stages = {
      {1, 1, 1, "s"}, {1, 2, 1, "a"}, {1, 2, 2, "b"}, {1, 3, 1, "c"},
      {1, 3, 2, "d"}, {1, 4, 1, "t"}};
  const std::vector<spg::Edge> edges = {{0, 1, 1}, {0, 2, 1}, {1, 3, 1},
                                        {1, 4, 1}, {2, 4, 1}, {3, 5, 1},
                                        {4, 5, 1}};
  const Spg g(stages, edges);
  EXPECT_FALSE(spg::is_series_parallel(g));
  // The enumeration fallback must still count its ideals correctly.
  EXPECT_EQ(spg::ideal_count(g, 1000), brute_ideals(g));
}

TEST(SpTree, IdealCountChain) {
  // A k-chain has k+1 ideals.
  for (std::size_t k : {2u, 5u, 9u}) {
    EXPECT_EQ(spg::ideal_count(chain(k), 1000), k + 1);
  }
}

TEST(SpTree, IdealCountForkJoin) {
  // Fork-join of b branches with c inner stages each:
  // (c+1)^b + 2 ideals (branch prefixes independent, plus empty set counted
  // inside, plus source-only and full handled by the +2 convention).
  const Spg g = spg::parallel_all({chain(4), chain(4), chain(4)});
  // 3 branches, inner sizes 2,1,1? parallel_all(chain4,chain4,chain4):
  // longest keeps labels: inner of each extra branch has 2 stages.
  EXPECT_EQ(spg::ideal_count(g, 100000), brute_ideals(g));
}

TEST(SpTree, IdealCountMatchesBruteForceOnRandomSpgs) {
  util::Rng rng(31);
  for (int rep = 0; rep < 30; ++rep) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.uniform_int(0, 10));
    const int y = static_cast<int>(
        rng.uniform_int(1, std::max<std::int64_t>(1, static_cast<std::int64_t>(n) - 2)));
    const Spg g = spg::random_spg(n, y, rng);
    ASSERT_TRUE(spg::is_series_parallel(g)) << "n=" << n << " y=" << y;
    EXPECT_EQ(spg::ideal_count(g, 10'000'000), brute_ideals(g))
        << "n=" << n << " y=" << y;
  }
}

TEST(SpTree, SaturatesAtCap) {
  // ChannelVocoder-like fat graph: count must saturate, not overflow.
  const Spg g = spg::make_streamit(2);
  EXPECT_EQ(spg::ideal_count(g, 1000), 1001u);
  EXPECT_GT(spg::ideal_count(g, 1u << 30), 1000u);
}

TEST(SpTree, EnumeratedCountMatchesBruteForceOnNonSpDags) {
  // Random SPGs plus up to three extra edges forward in a topological
  // order: still DAGs with one source and one sink, mostly not SP.
  util::Rng rng(35);
  std::size_t non_sp = 0;
  for (int rep = 0; rep < 60; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(4, 20));
    const int y = static_cast<int>(
        rng.uniform_int(1, std::max<std::int64_t>(1, static_cast<std::int64_t>(n) - 2)));
    const Spg sp = spg::random_spg(n, y, rng);
    const auto order = sp.topological_order();
    std::vector<spg::Edge> edges = sp.edges();
    const auto extra = rng.uniform_int(0, 3);
    for (std::int64_t k = 0; k < extra; ++k) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
      const auto b = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(a) + 1, static_cast<std::int64_t>(n) - 1));
      edges.push_back({order[a], order[b], 1.0});
    }
    const Spg g(sp.stages(), edges);
    non_sp += !spg::is_series_parallel(g);
    SCOPED_TRACE(::testing::Message() << "rep=" << rep << " n=" << n << " y=" << y);
    const std::uint64_t count = brute_ideals(g);
    EXPECT_EQ(spg::ideal_count_enumerated(g, std::uint64_t{1} << 40), count);
    // Over the cap it answers cap + 1; at the count itself, the count.
    EXPECT_EQ(spg::ideal_count_enumerated(g, count), count);
    EXPECT_EQ(spg::ideal_count_enumerated(g, count - 1), count);
    EXPECT_EQ(spg::ideal_count_enumerated(g, count / 2), count / 2 + 1);
  }
  EXPECT_GE(non_sp, 20u);
}

TEST(SpTree, StreamItSuiteIsSeriesParallel) {
  for (const auto& info : spg::streamit_table()) {
    EXPECT_TRUE(spg::is_series_parallel(spg::make_streamit(info))) << info.name;
  }
}

TEST(SpTree, RankIsABijectionOnRandomSpgs) {
  util::Rng rng(33);
  for (int rep = 0; rep < 40; ++rep) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(2, 14));
    const int y = static_cast<int>(
        rng.uniform_int(1, std::max<std::int64_t>(1, static_cast<std::int64_t>(n) - 2)));
    SCOPED_TRACE(::testing::Message() << "n=" << n << " y=" << y);
    expect_perfect_rank(spg::random_spg(n, y, rng));
  }
}

TEST(SpTree, RankIsABijectionOnStreamItGraphs) {
  std::size_t checked = 0;
  for (const auto& info : spg::streamit_table()) {
    const Spg g = spg::make_streamit(info);
    if (spg::ideal_count(g, 100000) > 100000) continue;
    SCOPED_TRACE(info.name);
    expect_perfect_rank(g);
    ++checked;
  }
  EXPECT_EQ(checked, 7u);  // BitonicSort, DCT, DES, FFT, MPEG2, Serpent, TDE
}

TEST(SpTree, RankWeightsOnlyWithinTheCap) {
  const auto tree = spg::SpTree::decompose(spg::make_streamit(2));
  ASSERT_TRUE(tree.has_value());
  const auto over = tree->ideal_rank(1000);
  EXPECT_EQ(over.count, 1001u);
  EXPECT_TRUE(over.weight.empty());
  // Weights of a chain: source and sink 1, each inner stage 1.
  const auto chain_rank = spg::SpTree::decompose(chain(5))->ideal_rank(1000);
  EXPECT_EQ(chain_rank.count, 6u);
  EXPECT_EQ(chain_rank.weight, std::vector<std::uint64_t>(5, 1));
}

TEST(SpTree, DecomposesTheLargestGeneratedGraphs) {
  // Serve accepts generated graphs of up to 10 000 stages; the reduction
  // worklist decomposes one in about linear time.  Whatever the reduction
  // order, each inner stage is one series node and the rest of the m - 1
  // composites are parallel.
  util::Rng rng(34);
  for (const int y : {1, 40, 2000}) {
    const Spg g = spg::random_spg(10000, y, rng);
    const auto tree = spg::SpTree::decompose(g);
    ASSERT_TRUE(tree.has_value()) << "y=" << y;
    EXPECT_EQ(tree->series_count(), g.size() - 2);
    EXPECT_EQ(tree->parallel_count(), g.edge_count() - g.size() + 1);
  }
}

TEST(SpTree, DepthAndCountsConsistent) {
  util::Rng rng(32);
  const Spg g = spg::random_spg(30, 6, rng);
  const auto tree = spg::SpTree::decompose(g);
  ASSERT_TRUE(tree.has_value());
  // Binary tree over m leaves has m-1 composite nodes.
  EXPECT_EQ(tree->series_count() + tree->parallel_count(), g.edge_count() - 1);
  EXPECT_GE(tree->depth(), 2u);
}

}  // namespace
