#include "heuristics/dpa1d.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "heuristics/row_store.hpp"
#include "obs/trace.hpp"
#include "spg/sp_tree.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace spgcmp::heuristics {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Stage sets are raw words in topological-position space: bit `pos` stands
// for stage by_topo[pos].
using Words = std::vector<std::uint64_t>;

[[nodiscard]] bool test(const std::uint64_t* w, std::size_t pos) noexcept {
  return (w[pos >> 6] >> (pos & 63)) & 1;
}
void flip(std::uint64_t* w, std::size_t pos) noexcept { w[pos >> 6] ^= 1ULL << (pos & 63); }

/// Rows of `stride` values in fixed-size blocks.  Blocks never move, so row
/// pointers stay valid while the arena grows, and growing never holds an
/// old and a new copy of every row at once the way a doubling vector does.
template <typename T>
class BlockArena {
 public:
  explicit BlockArena(std::size_t stride) : stride_(stride) {}

  /// Append a row with every entry `fill`; its id is the previous size().
  T* push(T fill) {
    if (size_ % kRowsPerBlock == 0) {
      blocks_.push_back(std::unique_ptr<T[]>(new T[kRowsPerBlock * stride_]));
    }
    T* row = (*this)[size_++];
    std::fill_n(row, stride_, fill);
    return row;
  }
  [[nodiscard]] T* operator[](std::size_t id) const noexcept {
    return blocks_[id / kRowsPerBlock].get() + (id % kRowsPerBlock) * stride_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kRowsPerBlock = 256;
  std::size_t stride_;
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<T[]>> blocks_;
};

enum class Outcome { Ok, Budget, Infeasible, Internal };
constexpr const char* kOutcomeNames[] = {"ok", "budget", "infeasible", "internal"};

/// Most ideals a graph may have for its states to be looked up by rank: the
/// dense array costs 4 bytes per ideal up front (16 MB here), however few
/// states a solve reaches.  The default state budget (200k) is far below.
constexpr std::uint64_t kMaxDenseIdeals = std::uint64_t{1} << 22;

/// DP machinery shared by the forward pass and the backward reconstruction.
///
/// States are the nonempty order ideals the forward pass reaches, with
/// dense ids in insertion order.  State `id` owns a row of stage-set words
/// in a block arena and a row of DP values in a RowStore.  A set's key is
/// the wrapping sum of per-stage keys, so the walk keeps the key of G ∪ H
/// current in O(1) per added or removed stage, and the key leads to the
/// set's id:
/// - on an SP graph with at most kMaxDenseIdeals ideals, the stage keys are
///   the rank weights of spg::SpTree::ideal_rank, so a set's key is its
///   perfect rank and `id_of_[key]` its id, with no stage set compared;
/// - otherwise (non-SP graphs, which only explicit `spg` text produces, and
///   state budgets far above the default) the stage keys are random and an
///   open-addressing table maps a key to its id, comparing stage sets.
class Dpa1dSolver {
 public:
  Dpa1dSolver(const spg::Spg& graph, const cmp::Platform& plat, double period,
              Dpa1dHeuristic::Options options)
      : g_(graph), p_(plat), T_(period), opt_(options), n_(graph.size()),
        r_(std::min(static_cast<std::size_t>(plat.grid().core_count()), n_)),
        nw_((n_ + 63) / 64), cut_cap_(period * plat.grid().bandwidth()), words_(nw_),
        rows_(r_), gh_(nw_, 0), ready_(n_), pending_(n_, 0),
        by_topo_(graph.topological_order()), key_(n_), work_(n_), succ_begin_(n_ + 1, 0),
        buckets_(n_ + 1) {
    std::vector<std::size_t> topo_idx(n_);
    for (std::size_t pos = 0; pos < n_; ++pos) {
      topo_idx[by_topo_[pos]] = pos;
      work_[pos] = g_.stage(by_topo_[pos]).work;
    }
    // Edges stay in edge-id order, the order cut sums add in; successors
    // are CSR by position, one entry per edge.
    edges_.reserve(g_.edge_count());
    for (const auto& e : g_.edges()) {
      edges_.push_back({topo_idx[e.src], topo_idx[e.dst], e.bytes});
      ++succ_begin_[topo_idx[e.src] + 1];
      ++pending_[topo_idx[e.dst]];
    }
    for (std::size_t pos = 0; pos < n_; ++pos) succ_begin_[pos + 1] += succ_begin_[pos];
    succ_.resize(edges_.size());
    std::vector<std::size_t> next(succ_begin_.begin(), succ_begin_.end() - 1);
    for (const auto& e : edges_) succ_[next[e.src]++] = e.dst;
    // The walk starts on the empty ideal: the sources are ready.
    for (std::size_t pos = 0; pos < n_; ++pos) {
      if (pending_[pos] == 0) ready_.set(pos);
    }

    heterogeneous_ = p_.topology.heterogeneous();
    pos_scale_.resize(r_);
    max_scale_ = 0.0;
    for (std::size_t k = 0; k < r_; ++k) {
      pos_scale_[k] = p_.topology.core_speed_scale(
          p_.grid().core_index(p_.grid().snake_core(static_cast<int>(k))));
      max_scale_ = std::max(max_scale_, pos_scale_[k]);
    }
    // The enumeration prunes at the loosest per-position cap; a cluster too
    // heavy for its *specific* position is rejected by cluster_energy_at.
    weight_cap_ = period * plat.speeds.max_speed() * max_scale_;
  }

  [[nodiscard]] std::size_t states() const noexcept { return rows_.size(); }
  /// Candidate clusters enumerated (see Dpa1dHeuristic::Options).
  [[nodiscard]] std::size_t expansions() const noexcept {
    return std::min(expansions_, opt_.max_expansions);
  }
  /// The pre-pass's ideal count, max_states + 1 when over the budget.
  [[nodiscard]] std::uint64_t ideals() const noexcept { return ideals_; }
  /// Whether states are looked up by rank rather than by hash.
  [[nodiscard]] bool by_rank() const noexcept { return by_rank_; }

  /// Forward pass.  Returns false if a budget was exceeded.
  bool solve() {
    if (!index_ideals()) return false;
    const double comm_e = p_.comm.energy_per_byte;

    // Seed: first cluster (no incoming cut); from the empty ideal the
    // union *is* the cluster, and it runs on snake core 0.
    auto seed = [&](double w) {
      const double e = cluster_energy_at(w, 0);
      if (!std::isfinite(e)) return;
      double& entry = *rows_.cover(find_or_insert(), 0, 0, upper());
      entry = std::min(entry, e);
    };
    walk(ready_.find_first(), 0.0, seed);
    if (budget_blown_) return false;

    // The finite entries of the expanding state's row, each with the cut
    // energy already added: a transition from entry k costs base plus the
    // new cluster's energy.
    struct Source {
      std::size_t k;
      double base;
    };
    std::vector<Source> sources;
    for (std::size_t size = 1; size < n_; ++size) {  // full ideals never expand
      for (std::size_t bi = 0; bi < buckets_[size].size(); ++bi) {
        const std::uint32_t id = buckets_[size][bi];
        const std::uint64_t* G = words_[id];
        const double cut = cut_bytes(G);
        if (cut > cut_cap_ * (1 + 1e-12)) continue;  // link saturated
        const double cut_energy = cut * comm_e;
        const auto row = rows_.window(id);
        sources.clear();
        for (std::size_t k = row.lo; k < row.hi && k + 1 < r_; ++k) {
          const double e = row.entries[k - row.lo];
          if (std::isfinite(e)) sources.push_back({k, e + cut_energy});
        }

        move_walk_to(G);
        auto extend = [&](double w) {
          // Gate on the loosest per-position cap; the exact energy of the
          // new cluster depends on which snake position k+1 it lands on and
          // is re-derived per transition on heterogeneous fabrics.
          const double e_loose = cluster_energy(w, max_scale_);
          if (!std::isfinite(e_loose)) return;
          const std::uint32_t id2 = find_or_insert();
          if (sources.empty()) return;
          // row2[i] is entry first + i of G ∪ H's row.
          const std::size_t first = sources.front().k + 1;
          double* row2 = rows_.cover(id2, first, sources.back().k + 1, upper());
          for (const auto& [k, base] : sources) {
            const double e_cluster =
                heterogeneous_ && pos_scale_[k + 1] != max_scale_
                    ? cluster_energy(w, pos_scale_[k + 1])
                    : e_loose;
            if (!std::isfinite(e_cluster)) continue;
            const double cand = base + e_cluster;
            if (cand < row2[k + 1 - first]) row2[k + 1 - first] = cand;
          }
        };
        walk(ready_.find_first(), 0.0, extend);
        if (budget_blown_) return false;
      }
    }
    return true;
  }

  /// Pre-pass: the number of DP states is the ideal count of the stage poset
  /// (the n^ymax blowup of Theorem 1).  On SP graphs one decomposition
  /// yields the count, by an O(n + m) tree recurrence, and the rank, so
  /// hopeless instances are rejected before the DP allocates anything.
  /// Returns false on more than max_states ideals; otherwise sets up the
  /// state lookup and the stage keys.
  bool index_ideals() {
    const std::uint64_t cap = opt_.max_states;
    spg::SpTree::IdealRank rank;
    if (const auto tree = spg::SpTree::decompose(g_)) {
      rank = tree->ideal_rank(std::max(cap, kMaxDenseIdeals));
      by_rank_ = rank.count <= kMaxDenseIdeals;
    } else {
      rank.count = spg::ideal_count_enumerated(g_, cap);
    }
    ideals_ = std::min(rank.count, cap + 1);
    if (ideals_ > cap) return false;
    if (by_rank_) {
      for (std::size_t pos = 0; pos < n_; ++pos) key_[pos] = rank.weight[by_topo_[pos]];
      id_of_.assign(rank.count, kEmpty);
    } else {
      std::uint64_t key_state = 0;
      for (auto& key : key_) key = util::splitmix64(key_state);
      table_.assign(1024, Slot{0, kEmpty});
    }
    return true;
  }

  /// Backward pass: fills `cluster_of` (stage -> cluster index, clusters
  /// 0..K-1 in topological order) from the DP table.
  Outcome reconstruct(std::vector<int>& cluster_of) {
    Words cur(nw_, 0);
    for (std::size_t pos = 0; pos < n_; ++pos) flip(cur.data(), pos);
    const auto full = find(cur.data());
    if (!full) return Outcome::Infeasible;

    std::size_t best_k = r_;
    double best_e = kInf;
    for (std::size_t k = 0; k < r_; ++k) {
      const double e = rows_.at(*full, k);
      if (e < best_e) {
        best_e = e;
        best_k = k;
      }
    }
    if (!std::isfinite(best_e)) return Outcome::Infeasible;

    const double comm_e = p_.comm.energy_per_byte;
    cluster_of.assign(n_, -1);
    Words prev(nw_);
    std::size_t k = best_k;
    double target = best_e;
    const auto close = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
    };

    while (k > 0) {
      const bool found = for_each_tail_cluster(cur, [&](const Words& H, double w) {
        // The peeled cluster is the one at snake position k.
        const double e_cluster = cluster_energy_at(w, k);
        if (!std::isfinite(e_cluster)) return false;
        for (std::size_t i = 0; i < nw_; ++i) prev[i] = cur[i] & ~H[i];
        const auto id = find(prev.data());
        if (!id || !std::isfinite(rows_.at(*id, k - 1))) return false;
        const double cut = cut_bytes(prev.data());
        if (cut > cut_cap_ * (1 + 1e-12)) return false;
        if (!close(rows_.at(*id, k - 1) + cut * comm_e + e_cluster, target)) return false;
        for (std::size_t pos = 0; pos < n_; ++pos) {
          if (test(H.data(), pos)) cluster_of[by_topo_[pos]] = static_cast<int>(k);
        }
        target = rows_.at(*id, k - 1);
        return true;
      });
      // Every finite entry came from some transition, so a miss means the
      // table and this replay disagree: a bug, not an infeasible instance.
      if (!found) return Outcome::Internal;
      cur.swap(prev);
      --k;
    }
    for (std::size_t pos = 0; pos < n_; ++pos) {
      if (test(cur.data(), pos)) cluster_of[by_topo_[pos]] = 0;
    }
    return Outcome::Ok;
  }

 private:
  struct PosEdge {
    std::size_t src, dst;  // topological positions
    double bytes;
  };
  struct Slot {
    std::uint64_t key;
    std::uint32_t id;
  };
  static constexpr std::uint32_t kEmpty = std::numeric_limits<std::uint32_t>::max();

  /// Energy of a cluster of `work` cycles on a core of speed scale `scale`:
  /// the slowest feasible scaled mode (exactly the evaluator's downgrade
  /// rule), infinity when even the fastest mode is too slow there.
  [[nodiscard]] double cluster_energy(double work, double scale = 1.0) const {
    const std::size_t k = p_.speeds.slowest_feasible(work / scale, T_);
    if (k == p_.speeds.mode_count()) return kInf;
    return p_.speeds.core_energy(work / scale, k, T_);
  }

  /// Cluster energy at snake position `pos` (homogeneous fast path keeps
  /// the division out of the paper-exact mesh runs).
  [[nodiscard]] double cluster_energy_at(double work, std::size_t pos) const {
    return heterogeneous_ ? cluster_energy(work, pos_scale_[pos]) : cluster_energy(work);
  }

  /// Bytes crossing the cut after ideal `G` (edges G -> complement).
  [[nodiscard]] double cut_bytes(const std::uint64_t* G) const {
    double b = 0;
    for (const auto& e : edges_) {
      if (test(G, e.src) && !test(G, e.dst)) b += e.bytes;
    }
    return b;
  }

  /// The last entry a row of G ∪ H can make finite: a set of s stages runs
  /// on at most min(s, r) cores.
  [[nodiscard]] std::size_t upper() const noexcept { return std::min(gh_count_, r_) - 1; }

  /// Add stage `pos`, which must be ready, to G ∪ H.
  void add(std::size_t pos) {
    flip(gh_.data(), pos);
    gh_key_ += key_[pos];
    ++gh_count_;
    ready_.reset(pos);
    for (std::size_t s = succ_begin_[pos]; s < succ_begin_[pos + 1]; ++s) {
      if (--pending_[succ_[s]] == 0) ready_.set(succ_[s]);
    }
  }

  /// Remove stage `pos`, which must have no successor in G ∪ H.
  void undo(std::size_t pos) {
    for (std::size_t s = succ_begin_[pos]; s < succ_begin_[pos + 1]; ++s) {
      if (pending_[succ_[s]]++ == 0) ready_.reset(succ_[s]);
    }
    ready_.set(pos);
    --gh_count_;
    gh_key_ -= key_[pos];
    flip(gh_.data(), pos);
  }

  /// Move the walk from the ideal it stands on to ideal `G`.  Stages
  /// leaving go in decreasing position and stages joining in increasing
  /// position, so every intermediate set is an ideal and add/undo keep the
  /// pending counts and the ready frontier exact.
  void move_walk_to(const std::uint64_t* G) {
    for (std::size_t wi = nw_; wi-- > 0;) {
      for (std::uint64_t out = gh_[wi] & ~G[wi]; out != 0;) {
        const auto bit = static_cast<std::size_t>(63 - __builtin_clzll(out));
        out ^= 1ULL << bit;
        undo(wi * 64 + bit);
      }
    }
    for (std::size_t wi = 0; wi < nw_; ++wi) {
      for (std::uint64_t in = G[wi] & ~gh_[wi]; in != 0; in &= in - 1) {
        add(wi * 64 + static_cast<std::size_t>(__builtin_ctzll(in)));
      }
    }
  }

  /// Enumerate every cluster H extending the ideal G the walk stands on
  /// (so G ∪ H is an ideal) with w(H) <= weight_cap, calling visit(w(H))
  /// with G ∪ H in gh_.  Clusters grow in increasing topological position,
  /// which generates each exactly once; `pos` is the first ready position
  /// after the last stage added.  A candidate costs one find_next plus the
  /// out-degree of its stage, and the walk ends back on G.
  template <typename Visit>
  void walk(std::size_t pos, double w, Visit& visit) {
    for (; pos != util::DynBitset::npos; pos = ready_.find_next(pos)) {
      const double w2 = w + work_[pos];
      if (w2 > weight_cap_) continue;
      if (++expansions_ > opt_.max_expansions) {
        budget_blown_ = true;
        return;
      }
      add(pos);
      visit(w2);
      walk(ready_.find_next(pos), w2, visit);
      undo(pos);
      if (budget_blown_) return;
    }
  }

  /// Mirror enumeration used for reconstruction: every filter H of ideal
  /// `G` (so G \ H is an ideal) with w(H) <= weight_cap, grown from the
  /// tail in decreasing position, until visit(H, w(H)) returns true.
  /// Returns whether it did.
  template <typename Visit>
  bool for_each_tail_cluster(const Words& G, Visit&& visit) const {
    Words H(nw_, 0);
    auto rec = [&](auto&& self, std::size_t end, double w) -> bool {
      for (std::size_t pos = end; pos-- > 0;) {
        if (!test(G.data(), pos)) continue;
        bool ready = true;
        for (std::size_t s = succ_begin_[pos]; s < succ_begin_[pos + 1]; ++s) {
          if (test(G.data(), succ_[s]) && !test(H.data(), succ_[s])) {
            ready = false;
            break;
          }
        }
        if (!ready) continue;
        const double w2 = w + work_[pos];
        if (w2 > weight_cap_) continue;
        flip(H.data(), pos);
        if (visit(H, w2) || self(self, pos, w2)) return true;
        flip(H.data(), pos);
      }
      return false;
    };
    return rec(rec, n_, 0.0);
  }

  /// The id_of_ entry of the ideal of rank `rank`.
  [[nodiscard]] std::uint32_t& id_of(std::uint64_t rank) {
    assert(rank < id_of_.size() && "an ideal's rank lies in [0, ideal count)");
    return id_of_[rank];
  }

  /// The slot holding set `w` of key `key`, or the empty slot it would
  /// take.  Stored words are compared only on a key match.
  [[nodiscard]] std::size_t probe(std::uint64_t key, const std::uint64_t* w) const {
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = key & mask;
    while (table_[slot].id != kEmpty &&
           (table_[slot].key != key || !std::equal(w, w + nw_, words_[table_[slot].id]))) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  /// Id of the state holding ideal `w`, if any.
  [[nodiscard]] std::optional<std::uint32_t> find(const std::uint64_t* w) {
    std::uint64_t key = 0;
    for (std::size_t pos = 0; pos < n_; ++pos) {
      if (test(w, pos)) key += key_[pos];
    }
    const std::uint32_t id = by_rank_ ? id_of(key) : table_[probe(key, w)].id;
    if (id == kEmpty) return std::nullopt;
    return id;
  }

  /// Id of the state holding G ∪ H, inserted when new.
  std::uint32_t find_or_insert() {
    if (by_rank_) {
      std::uint32_t& id = id_of(gh_key_);
      if (id == kEmpty) id = insert();
      return id;
    }
    const std::size_t slot = probe(gh_key_, gh_.data());
    if (table_[slot].id != kEmpty) return table_[slot].id;
    const std::uint32_t id = insert();
    table_[slot] = {gh_key_, id};
    if (2 * states() > table_.size()) {  // keep the load at most 1/2
      std::vector<Slot> old(2 * table_.size(), Slot{0, kEmpty});
      old.swap(table_);
      for (const Slot& s : old) {
        if (s.id != kEmpty) table_[probe(s.key, words_[s.id])] = s;
      }
    }
    return id;
  }

  /// A new state holding G ∪ H, with an all-infinite row.  It also joins
  /// the bucket of its set size, and bucket order is the order states
  /// expand in.
  std::uint32_t insert() {
    const auto id = static_cast<std::uint32_t>(states());
    assert(id < opt_.max_states &&
           "every state is a distinct nonempty ideal, and solve()'s pre-pass "
           "bounds the ideal count by max_states");
    std::copy(gh_.begin(), gh_.end(), words_.push(0));
    rows_.push();
    buckets_[gh_count_].push_back(id);
    return id;
  }

  const spg::Spg& g_;
  const cmp::Platform& p_;
  double T_;
  Dpa1dHeuristic::Options opt_;

  std::size_t n_;
  std::size_t r_;            // cores on the line, never more than stages
  std::size_t nw_;           // words per stage set
  double weight_cap_ = 0.0;  // T * s_max * max scale: enumeration pruning cap
  double cut_cap_;           // T * BW: max cut volume
  // Speed scale of the core at each snake position: cluster k runs on snake
  // core k, so its weight cap and energy depend on that core's scale (1.0
  // everywhere except on heterogeneous fabrics).
  std::vector<double> pos_scale_;
  double max_scale_ = 1.0;
  bool heterogeneous_ = false;

  // States: stage-set words and DP rows (rows_.at(id, k) = min energy to
  // run the set on exactly k+1 leading cores).
  BlockArena<std::uint64_t> words_;
  RowStore rows_;

  // The walk: G ∪ H with its key and size, the ready frontier (stages
  // outside G ∪ H whose predecessors are all in it), and per position the
  // in-edges whose source is outside G ∪ H.
  Words gh_;
  std::uint64_t gh_key_ = 0;
  std::size_t gh_count_ = 0;
  util::DynBitset ready_;
  std::vector<int> pending_;

  // The graph in topological-position space.
  std::vector<spg::StageId> by_topo_;
  std::vector<std::uint64_t> key_;
  std::vector<double> work_;
  std::vector<PosEdge> edges_;
  std::vector<std::size_t> succ_begin_;
  std::vector<std::size_t> succ_;

  // The state lookup: by rank, or by hash in an open-addressing table of
  // power-of-two size.
  std::uint64_t ideals_ = 0;
  bool by_rank_ = false;
  std::vector<std::uint32_t> id_of_;
  std::vector<Slot> table_;
  std::vector<std::vector<std::uint32_t>> buckets_;  // state ids by set size

  std::size_t expansions_ = 0;
  bool budget_blown_ = false;
};

}  // namespace

Result Dpa1dHeuristic::run(const spg::Spg& g, const cmp::Platform& p, double T) const {
  Dpa1dSolver solver(g, p, T, options_);
  std::vector<int> clusters;
  Outcome outcome = Outcome::Budget;
  {
    obs::Span span("dpa1d.dp");
    if (solver.solve()) outcome = solver.reconstruct(clusters);
    if (span.active()) {
      span.detail("states", static_cast<std::uint64_t>(solver.states()));
      span.detail("expansions", static_cast<std::uint64_t>(solver.expansions()));
      span.detail("outcome", kOutcomeNames[static_cast<int>(outcome)]);
      span.detail("ideals", solver.ideals());
      span.detail("lookup", solver.by_rank() ? "rank" : "hash");
    }
  }
  switch (outcome) {
    case Outcome::Ok: break;
    case Outcome::Budget: return Result::fail("DPA1D: exploration budget exceeded");
    case Outcome::Infeasible: return Result::fail("DPA1D: no feasible line partition");
    case Outcome::Internal:
      return Result::fail("DPA1D: internal: reconstruction does not match the DP table");
  }

  // Cluster j lives on snake core j; edges follow the snake.
  const cmp::Grid& grid = p.grid();
  mapping::Mapping m;
  m.core_of.resize(g.size());
  for (spg::StageId i = 0; i < g.size(); ++i) {
    m.core_of[i] = grid.core_index(grid.snake_core(clusters[i]));
  }
  m.edge_paths.assign(g.edge_count(), {});
  for (spg::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& edge = g.edge(e);
    const int a = clusters[edge.src];
    const int b = clusters[edge.dst];
    if (a != b) {
      m.edge_paths[e] = grid.snake_route(grid.snake_core(a), grid.snake_core(b));
    }
  }
  return finalize_with_paths(g, p, T, std::move(m), /*downgrade=*/true);
}

}  // namespace spgcmp::heuristics
