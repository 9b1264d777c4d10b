#pragma once

// Series-parallel decomposition trees.
//
// Recovers the (edge-)series-parallel structure of an SPG by the classic
// reduction algorithm: merge parallel edges (same endpoints) and series
// vertices (in-degree = out-degree = 1).  A graph is a two-terminal SP DAG
// iff the reductions collapse it to a single source->sink edge; the
// reduction history is the decomposition tree.  The reductions may run in
// any order, so `decompose` keeps a worklist of series vertices and merges
// a parallel edge through a hash of its endpoints as soon as it appears:
// O(n + m) expected time.
//
// The tree powers exact combinatorial queries that would otherwise need
// enumeration.  The ones the heuristics use concern the order ideals of the
// stage poset — the admissible subgraphs that DPA1D's dynamic program
// (Theorem 1) visits, whose number grows like n^ymax:
//
// * The ideal count.  Over inner stages (s in the ideal, t not) it
//   satisfies g(leaf edge) = 1, g(series) = g(A) + g(B), g(parallel) =
//   g(A) * g(B); the full poset then has g(root) + 2 ideals.  With
//   saturating arithmetic this is an O(n + m) feasibility oracle for
//   DPA1D's state budget.
// * A perfect rank.  The same recurrence ranks the ideals one-to-one onto
//   [0, count) by stage weights: rank(I) = sum of w_v over v in I.  Walk
//   the tree top-down with a multiplier M (1 at the root): a series node
//   gives the stage it joins weight M and both children inherit M; a
//   parallel node passes M * g(right) to its left child and M to its right
//   child; source and sink weigh 1.  Every weight is positive, so I ⊂ J
//   implies rank(I) < rank(J), and a walk that adds or removes one stage
//   keeps the rank current in O(1) — DPA1D indexes its states by it.

#include <cstdint>
#include <optional>
#include <vector>

#include "spg/spg.hpp"

namespace spgcmp::spg {

/// One node of the decomposition tree (indices into SpTree::nodes).
struct SpTreeNode {
  enum class Kind { Leaf, Series, Parallel } kind = Kind::Leaf;
  /// For leaves: the SPG edge id.  For composites: unused.
  EdgeId edge = 0;
  /// For series nodes: the stage the reduction removed, which joins the
  /// left part's sink to the right part's source.  Unused otherwise.
  StageId mid = 0;
  int left = -1;
  int right = -1;
};

/// A binary series-parallel decomposition tree of an SPG.
class SpTree {
 public:
  /// Decompose `g`; nullopt when the graph is not two-terminal
  /// series-parallel (e.g. a hand-built "N" DAG).
  [[nodiscard]] static std::optional<SpTree> decompose(const Spg& g);

  [[nodiscard]] const std::vector<SpTreeNode>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] int root() const noexcept { return root_; }

  /// Counts of composite kinds (structure statistics).  They do not depend
  /// on the reduction order: every inner stage is one series node, and the
  /// m - 1 composites of a tree over m edges are the rest parallel.
  [[nodiscard]] std::size_t series_count() const noexcept { return series_; }
  [[nodiscard]] std::size_t parallel_count() const noexcept { return parallel_; }
  /// Height of the tree; unlike the counts it depends on the reduction
  /// order.
  [[nodiscard]] std::size_t depth() const;

  /// Number of order ideals (admissible subgraphs) of the stage poset,
  /// saturated at `cap` (returns cap + 1 when the true count exceeds it).
  [[nodiscard]] std::uint64_t ideal_count(std::uint64_t cap) const;

  /// The perfect rank of the ideals (see the file comment).
  struct IdealRank {
    std::uint64_t count = 0;            ///< ideal_count(cap)
    std::vector<std::uint64_t> weight;  ///< by StageId; empty when count > cap
  };
  /// The ideal count saturated at `cap` and, when it is at most `cap`, the
  /// stage weights whose sums rank the ideals onto [0, count).
  [[nodiscard]] IdealRank ideal_rank(std::uint64_t cap) const;

 private:
  /// g(X) per node, saturated at cap + 1.
  [[nodiscard]] std::vector<std::uint64_t> inner_counts(std::uint64_t cap) const;

  std::vector<SpTreeNode> nodes_;
  int root_ = -1;
  std::size_t series_ = 0;
  std::size_t parallel_ = 0;
  std::size_t stages_ = 0;
  StageId source_ = 0;
  StageId sink_ = 0;
};

/// Convenience: true when `g` is a two-terminal series-parallel DAG.
[[nodiscard]] bool is_series_parallel(const Spg& g);

/// Ideal count of the stage poset, saturated at `cap`; falls back to
/// explicit enumeration when the graph is not SP-decomposable.
[[nodiscard]] std::uint64_t ideal_count(const Spg& g, std::uint64_t cap);

/// Ideal count by enumeration of the ideals, saturated at `cap`: works on
/// any DAG, in memory linear in the graph (no ideal is stored) but time
/// linear in the count, ~34 ns per ideal on Beamformer plus a cross edge
/// (4-core Xeon VM), so a cap of 1e9 costs ~35 s.
[[nodiscard]] std::uint64_t ideal_count_enumerated(const Spg& g, std::uint64_t cap);

}  // namespace spgcmp::spg
