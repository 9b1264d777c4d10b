#include "spg/sp_tree.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/bitset.hpp"

namespace spgcmp::spg {

namespace {

/// Mutable multigraph edge during reduction.
struct RedEdge {
  StageId src, dst;
  int tree;
};

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b, std::uint64_t cap) {
  const std::uint64_t s = a + b;
  return (s < a || s > cap) ? cap + 1 : s;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b, std::uint64_t cap) {
  if (a == 0 || b == 0) return 0;
  if (a > cap / b) return cap + 1;
  const std::uint64_t m = a * b;
  return m > cap ? cap + 1 : m;
}

}  // namespace

std::uint64_t ideal_count_enumerated(const Spg& g, std::uint64_t cap) {
  // DPA1D's walk from the empty ideal: add ready stages in increasing
  // topological position.  A stage an addition makes ready comes later in
  // the order than the stage added, so the ideal {p1 < ... < pk} is reached
  // once, by adding p1, ..., pk in turn, and nothing needs remembering.
  const std::size_t n = g.size();
  const std::vector<StageId> by_topo = g.topological_order();
  std::vector<std::size_t> pos_of(n), pending(n);
  util::DynBitset ready(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    pos_of[by_topo[pos]] = pos;
    pending[pos] = g.in_edges(by_topo[pos]).size();
    if (pending[pos] == 0) ready.set(pos);
  }
  const auto add = [&](std::size_t pos) {
    ready.reset(pos);
    for (const EdgeId e : g.out_edges(by_topo[pos])) {
      const std::size_t next = pos_of[g.edge(e).dst];
      if (--pending[next] == 0) ready.set(next);
    }
  };
  const auto undo = [&](std::size_t pos) {
    for (const EdgeId e : g.out_edges(by_topo[pos])) {
      const std::size_t next = pos_of[g.edge(e).dst];
      if (pending[next]++ == 0) ready.reset(next);
    }
    ready.set(pos);
  };

  std::uint64_t count = 1;         // the empty ideal
  std::vector<std::size_t> added;  // the current ideal, in increasing position
  for (std::size_t pos = ready.find_first();;) {
    if (pos != util::DynBitset::npos) {
      add(pos);
      if (++count > cap) return cap + 1;
      added.push_back(pos);
      pos = ready.find_next(pos);
    } else if (!added.empty()) {
      pos = added.back();
      added.pop_back();
      undo(pos);
      pos = ready.find_next(pos);
    } else {
      return count;
    }
  }
}

std::optional<SpTree> SpTree::decompose(const Spg& g) {
  const std::size_t n = g.size();
  const std::size_t m = g.edge_count();
  if (n < 2 || m == 0) return std::nullopt;
  SpTree tree;
  tree.stages_ = n;
  tree.source_ = g.source();
  tree.sink_ = g.sink();
  tree.nodes_.reserve(2 * m - 1);

  // Per stage, its alive edges in and out: a degree and the XOR of their
  // ids, which is the edge's id once the degree is 1.
  std::vector<RedEdge> edges(m);
  std::vector<std::size_t> in_deg(n, 0), out_deg(n, 0), in_x(n, 0), out_x(n, 0);
  for (EdgeId e = 0; e < m; ++e) {
    const Edge& ge = g.edge(e);
    tree.nodes_.push_back(SpTreeNode{SpTreeNode::Kind::Leaf, e, 0, -1, -1});
    edges[e] = RedEdge{ge.src, ge.dst, static_cast<int>(e)};
    ++out_deg[ge.src];
    out_x[ge.src] ^= e;
    ++in_deg[ge.dst];
    in_x[ge.dst] ^= e;
  }
  std::size_t alive = m;

  // Inner stages that may have become series vertices; each is re-checked
  // when popped.
  std::vector<StageId> work;
  const auto series_vertex = [&](StageId v) {
    return v != tree.source_ && v != tree.sink_ && in_deg[v] == 1 && out_deg[v] == 1;
  };
  // The alive edge per endpoint pair.  Entries naming a reduced stage go
  // stale, but no alive edge touches that stage again.
  std::unordered_map<std::uint64_t, std::size_t> by_ends;
  by_ends.reserve(m);
  const auto ends = [](StageId a, StageId b) {
    return (static_cast<std::uint64_t>(a) << 32) | static_cast<std::uint64_t>(b);
  };
  // Edge `e` has just taken its endpoints: a parallel reduction if an alive
  // edge already joins them.
  const auto place = [&](std::size_t e) {
    const RedEdge& ed = edges[e];
    const auto [it, fresh] = by_ends.try_emplace(ends(ed.src, ed.dst), e);
    if (fresh) return;
    RedEdge& keep = edges[it->second];
    tree.nodes_.push_back(
        SpTreeNode{SpTreeNode::Kind::Parallel, 0, 0, keep.tree, ed.tree});
    ++tree.parallel_;
    keep.tree = static_cast<int>(tree.nodes_.size()) - 1;
    --alive;
    --out_deg[ed.src];
    out_x[ed.src] ^= e;
    --in_deg[ed.dst];
    in_x[ed.dst] ^= e;
    if (series_vertex(ed.src)) work.push_back(ed.src);
    if (series_vertex(ed.dst)) work.push_back(ed.dst);
  };

  for (EdgeId e = 0; e < m; ++e) place(e);
  for (StageId v = n; v-- > 0;) {
    if (series_vertex(v)) work.push_back(v);
  }
  while (!work.empty()) {
    const StageId v = work.back();
    work.pop_back();
    if (!series_vertex(v)) continue;  // reduced already
    const std::size_t e1 = in_x[v];
    const std::size_t e2 = out_x[v];
    RedEdge& a = edges[e1];
    const RedEdge& b = edges[e2];
    if (a.src == b.dst) continue;  // a cycle through v: never SP
    tree.nodes_.push_back(SpTreeNode{SpTreeNode::Kind::Series, 0, v, a.tree, b.tree});
    ++tree.series_;
    --alive;
    in_deg[v] = out_deg[v] = 0;
    in_x[b.dst] ^= e2 ^ e1;  // e1 now enters b.dst in place of e2
    a.dst = b.dst;
    a.tree = static_cast<int>(tree.nodes_.size()) - 1;
    place(e1);
  }

  // Success iff exactly one alive edge remains, from source to sink.
  const auto last = by_ends.find(ends(tree.source_, tree.sink_));
  if (alive != 1 || last == by_ends.end()) return std::nullopt;
  tree.root_ = edges[last->second].tree;
  return tree;
}

std::size_t SpTree::depth() const {
  std::vector<std::size_t> d(nodes_.size(), 1);
  // Children always precede parents in nodes_ (construction order).
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& nd = nodes_[i];
    if (nd.kind == SpTreeNode::Kind::Leaf) continue;
    d[i] = 1 + std::max(d[static_cast<std::size_t>(nd.left)],
                        d[static_cast<std::size_t>(nd.right)]);
  }
  return root_ >= 0 ? d[static_cast<std::size_t>(root_)] : 0;
}

std::vector<std::uint64_t> SpTree::inner_counts(std::uint64_t cap) const {
  // g(X): inner-stage ideal count given "source in, sink out"; see header.
  std::vector<std::uint64_t> g_of(nodes_.size(), 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto& nd = nodes_[i];
    if (nd.kind == SpTreeNode::Kind::Series) {
      g_of[i] = sat_add(g_of[static_cast<std::size_t>(nd.left)],
                        g_of[static_cast<std::size_t>(nd.right)], cap);
    } else if (nd.kind == SpTreeNode::Kind::Parallel) {
      g_of[i] = sat_mul(g_of[static_cast<std::size_t>(nd.left)],
                        g_of[static_cast<std::size_t>(nd.right)], cap);
    }
  }
  return g_of;
}

std::uint64_t SpTree::ideal_count(std::uint64_t cap) const {
  return sat_add(inner_counts(cap)[static_cast<std::size_t>(root_)], 2, cap);
}

SpTree::IdealRank SpTree::ideal_rank(std::uint64_t cap) const {
  const auto g_of = inner_counts(cap);
  IdealRank rank{sat_add(g_of[static_cast<std::size_t>(root_)], 2, cap), {}};
  if (rank.count > cap) return rank;
  // No g(X) saturated: every subtree counts at most the whole.  Parents
  // follow their children in nodes_, so one reverse sweep is top-down.
  rank.weight.assign(stages_, 0);
  rank.weight[source_] = 1;
  rank.weight[sink_] = 1;
  std::vector<std::uint64_t> mult(nodes_.size(), 0);
  mult[static_cast<std::size_t>(root_)] = 1;
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    const auto& nd = nodes_[i];
    if (nd.kind == SpTreeNode::Kind::Leaf) continue;
    const auto left = static_cast<std::size_t>(nd.left);
    const auto right = static_cast<std::size_t>(nd.right);
    if (nd.kind == SpTreeNode::Kind::Series) {
      rank.weight[nd.mid] = mult[i];
      mult[left] = mult[i];
    } else {
      mult[left] = mult[i] * g_of[right];
    }
    mult[right] = mult[i];
  }
  return rank;
}

bool is_series_parallel(const Spg& g) { return SpTree::decompose(g).has_value(); }

std::uint64_t ideal_count(const Spg& g, std::uint64_t cap) {
  if (const auto tree = SpTree::decompose(g)) return tree->ideal_count(cap);
  return ideal_count_enumerated(g, cap);
}

}  // namespace spgcmp::spg
