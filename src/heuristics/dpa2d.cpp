#include "heuristics/dpa2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "obs/trace.hpp"

namespace spgcmp::heuristics {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One entry of a communication distribution D: `bytes` travelling east on
/// CMP row `row`, destined to stage `dst` in a later column block.
struct DEntry {
  int row;
  double bytes;
  spg::StageId dst;
};

using Distribution = std::vector<DEntry>;

/// Invariants of one column block [m1, m2], built once and shared by every
/// CMP column and incoming distribution the block is solved for.  The
/// crossing arrays price only the links of core rows u >= 1 and the bad
/// table only boxes below full height; a one-row column (P == 1) has
/// neither, so both stay empty.
struct Block {
  int m1 = 0, m2 = 0;
  /// cross_down[t] / cross_up[t]: bytes of in-block edges crossing the
  /// horizontal split "rows < t vs rows >= t", downward resp. upward.
  std::vector<double> cross_down, cross_up;
  /// bad[y1 * Y + y2] == true when the box cols [m1, m2] x rows [y1, y2] is
  /// not convex.
  std::vector<char> bad;
};

enum class Outcome { Ok, Infeasible, Internal };
constexpr const char* kOutcomeNames[] = {"ok", "infeasible", "internal"};

/// The full DP context for one (graph, virtual platform, T) problem.
struct Dpa2dSolver {
  const spg::Spg& g;
  const cmp::Grid& grid;        // virtual grid: P rows x Q cols
  const cmp::SpeedModel& speeds;
  const cmp::CommModel& comm;
  double T;

  int X, Y;  // SPG label extents (xmax, ymax)
  int P, Q;  // platform extents
  double cut_cap;
  /// Speed scale of the physical core behind virtual core (row, col),
  /// row-major P x Q; empty = homogeneous (all 1.0).  Keeps the cluster
  /// sizing honest on heterogeneous fabrics instead of relying on the
  /// evaluator to reject misfits.
  std::vector<double> core_scale;

  std::vector<int> col_of, row_of;           // per stage, 0-based labels
  std::vector<std::vector<spg::StageId>> stages_in_col;
  std::vector<double> work_prefix;           // 2D prefix sums, (X+1)*(Y+1)

  /// Escaping reachable pairs: a path from `i` to `j` can use an
  /// intermediate row below min(row_i, row_j) (min_int) or above
  /// max(row_i, row_j) (max_int).  Edges raise x, so col_i < col_j.  The
  /// pairs are sorted by col_i; those with col_i == c start at
  /// escapes_from[c].
  struct EscapePair {
    spg::StageId i, j;
    int min_int, max_int;  // extreme intermediate rows over all paths
  };
  std::vector<EscapePair> escapes;
  std::vector<std::size_t> escapes_from;  // X + 1 offsets into escapes

  // Work counters, reported on the dpa2d.dp span.
  std::uint64_t blocks = 0;   ///< build_block calls
  std::uint64_t columns = 0;  ///< solve_column calls
  std::uint64_t states = 0;   ///< finite outer states dp[m][v], v >= 1

  // Inner-DP scratch, reused across solve_column calls.
  std::vector<double> bd, bu, bucket, pre, col_dp;
  std::vector<int> col_parent;

  Dpa2dSolver(const spg::Spg& graph, const cmp::Grid& virt,
              const cmp::SpeedModel& sm, const cmp::CommModel& cm, double period,
              std::vector<double> scales = {})
      : g(graph), grid(virt), speeds(sm), comm(cm), T(period),
        core_scale(std::move(scales)) {
    X = g.xmax();
    Y = g.ymax();
    P = grid.rows();
    Q = grid.cols();
    cut_cap = T * grid.bandwidth();

    const std::size_t n = g.size();
    col_of.resize(n);
    row_of.resize(n);
    stages_in_col.assign(static_cast<std::size_t>(X), {});
    for (spg::StageId i = 0; i < n; ++i) {
      col_of[i] = g.stage(i).x - 1;
      row_of[i] = g.stage(i).y - 1;
      stages_in_col[static_cast<std::size_t>(col_of[i])].push_back(i);
    }

    work_prefix.assign(static_cast<std::size_t>((X + 1) * (Y + 1)), 0.0);
    const auto wp = [&](int x, int y) -> double& {
      return work_prefix[static_cast<std::size_t>(x * (Y + 1) + y)];
    };
    for (spg::StageId i = 0; i < n; ++i) {
      wp(col_of[i] + 1, row_of[i] + 1) += g.stage(i).work;
    }
    for (int x = 0; x <= X; ++x) {
      for (int y = 1; y <= Y; ++y) wp(x, y) += wp(x, y - 1);
    }
    for (int x = 1; x <= X; ++x) {
      for (int y = 0; y <= Y; ++y) wp(x, y) += wp(x - 1, y);
    }

    // A full-height box cannot be escaped, so a one-row column needs no
    // escaping pairs (see Block).
    if (P > 1) compute_escape_pairs();
  }

  /// Speed scale of virtual core (row, col); 1.0 when homogeneous.
  [[nodiscard]] double scale_at(int row, int col) const noexcept {
    return core_scale.empty()
               ? 1.0
               : core_scale[static_cast<std::size_t>(row * Q + col)];
  }

  [[nodiscard]] double box_work(int m1, int m2, int y1, int y2) const {
    const auto wp = [&](int x, int y) {
      return work_prefix[static_cast<std::size_t>(x * (Y + 1) + y)];
    };
    return wp(m2 + 1, y2 + 1) - wp(m1, y2 + 1) - wp(m2 + 1, y1) + wp(m1, y1);
  }

  /// For every ordered reachable pair (i, j), the min/max intermediate row
  /// over all i -> j paths; pairs whose paths can escape the [row_i, row_j]
  /// band are recorded in `escapes`.
  void compute_escape_pairs() {
    const std::size_t n = g.size();
    const auto topo = g.topological_order();
    std::vector<int> min_int(n), max_int(n);
    std::vector<char> reach(n);
    for (spg::StageId j = 0; j < n; ++j) {
      std::fill(min_int.begin(), min_int.end(), std::numeric_limits<int>::max());
      std::fill(max_int.begin(), max_int.end(), std::numeric_limits<int>::min());
      std::fill(reach.begin(), reach.end(), 0);
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const spg::StageId i = *it;
        if (i == j) continue;
        for (spg::EdgeId e : g.out_edges(i)) {
          const spg::StageId u = g.edge(e).dst;
          if (u == j) {
            reach[i] = 1;  // direct edge: no intermediate on this path
          } else if (reach[u]) {
            reach[i] = 1;
            min_int[i] = std::min({min_int[i], row_of[u], min_int[u]});
            max_int[i] = std::max({max_int[i], row_of[u], max_int[u]});
          }
        }
      }
      for (spg::StageId i = 0; i < n; ++i) {
        if (!reach[i] || min_int[i] == std::numeric_limits<int>::max()) continue;
        const int lo = std::min(row_of[i], row_of[j]);
        const int hi = std::max(row_of[i], row_of[j]);
        if (min_int[i] < lo || max_int[i] > hi) {
          escapes.push_back(EscapePair{i, j, min_int[i], max_int[i]});
        }
      }
    }
    std::sort(escapes.begin(), escapes.end(), [&](const EscapePair& a, const EscapePair& b) {
      return col_of[a.i] < col_of[b.i];
    });
    escapes_from.assign(static_cast<std::size_t>(X + 1), 0);
    for (const auto& ep : escapes) ++escapes_from[static_cast<std::size_t>(col_of[ep.i] + 1)];
    for (int c = 0; c < X; ++c) {
      escapes_from[static_cast<std::size_t>(c + 1)] += escapes_from[static_cast<std::size_t>(c)];
    }
  }

  /// Fill `b` with the invariants of column block [m1, m2]: the in-block
  /// crossing arrays, and the bad-box table built from escaping pairs via
  /// 2D difference rectangles.  Nothing to build when P == 1.
  void build_block(Block& b, int m1, int m2) {
    ++blocks;
    b.m1 = m1;
    b.m2 = m2;
    if (P == 1) return;

    // Difference arrays: an edge crossing rows [a+1, b] contributes to all
    // split thresholds t in that range.
    std::vector<double> dd(static_cast<std::size_t>(Y + 2), 0.0);
    std::vector<double> du(static_cast<std::size_t>(Y + 2), 0.0);
    for (const auto& e : g.edges()) {
      if (col_of[e.src] < m1 || col_of[e.src] > m2) continue;
      if (col_of[e.dst] < m1 || col_of[e.dst] > m2) continue;
      const int rs = row_of[e.src], rd = row_of[e.dst];
      if (rs < rd) {
        dd[static_cast<std::size_t>(rs + 1)] += e.bytes;
        dd[static_cast<std::size_t>(rd + 1)] -= e.bytes;
      } else if (rd < rs) {
        du[static_cast<std::size_t>(rd + 1)] += e.bytes;
        du[static_cast<std::size_t>(rs + 1)] -= e.bytes;
      }
    }
    b.cross_down.resize(static_cast<std::size_t>(Y + 1));
    b.cross_up.resize(static_cast<std::size_t>(Y + 1));
    double run_d = 0.0, run_u = 0.0;
    for (int t = 0; t <= Y; ++t) {
      run_d += dd[static_cast<std::size_t>(t)];
      run_u += du[static_cast<std::size_t>(t)];
      b.cross_down[static_cast<std::size_t>(t)] = run_d;
      b.cross_up[static_cast<std::size_t>(t)] = run_u;
    }

    std::vector<int> diff(static_cast<std::size_t>((Y + 1) * (Y + 1)), 0);
    const auto mark = [&](int y1_lo, int y1_hi, int y2_lo, int y2_hi) {
      if (y1_lo > y1_hi || y2_lo > y2_hi) return;
      diff[static_cast<std::size_t>(y1_lo * (Y + 1) + y2_lo)] += 1;
      diff[static_cast<std::size_t>(y1_lo * (Y + 1) + y2_hi + 1)] -= 1;
      diff[static_cast<std::size_t>((y1_hi + 1) * (Y + 1) + y2_lo)] -= 1;
      diff[static_cast<std::size_t>((y1_hi + 1) * (Y + 1) + y2_hi + 1)] += 1;
    };
    // The pairs inside the block: col_i in [m1, m2], then col_j <= m2.
    // Marks are integer counts, so their order does not matter.
    for (std::size_t k = escapes_from[static_cast<std::size_t>(m1)];
         k < escapes_from[static_cast<std::size_t>(m2 + 1)]; ++k) {
      const auto& ep = escapes[k];
      if (col_of[ep.j] > m2) continue;
      const int lo = std::min(row_of[ep.i], row_of[ep.j]);
      const int hi = std::max(row_of[ep.i], row_of[ep.j]);
      // Escape below: intermediate row min_int < y1 <= lo.
      if (ep.min_int < lo) mark(ep.min_int + 1, lo, hi, Y - 1);
      // Escape above: intermediate row max_int > y2 >= hi.
      if (ep.max_int > hi) mark(0, lo, hi, ep.max_int - 1);
    }
    b.bad.assign(static_cast<std::size_t>(Y * Y), 0);
    // Prefix-sum the difference rectangles.
    std::vector<int> acc(static_cast<std::size_t>((Y + 1) * (Y + 1)), 0);
    for (int y1 = 0; y1 < Y; ++y1) {
      for (int y2 = 0; y2 < Y; ++y2) {
        int v = diff[static_cast<std::size_t>(y1 * (Y + 1) + y2)];
        v += (y1 > 0 ? acc[static_cast<std::size_t>((y1 - 1) * (Y + 1) + y2)] : 0);
        v += (y2 > 0 ? acc[static_cast<std::size_t>(y1 * (Y + 1) + y2 - 1)] : 0);
        v -= (y1 > 0 && y2 > 0
                  ? acc[static_cast<std::size_t>((y1 - 1) * (Y + 1) + y2 - 1)]
                  : 0);
        acc[static_cast<std::size_t>(y1 * (Y + 1) + y2)] = v;
        b.bad[static_cast<std::size_t>(y1 * Y + y2)] = v > 0;
      }
    }
  }

  /// Solve column block `b` given incoming distribution `din`, destined for
  /// CMP column `vcol` (0-based; decides the per-row speed scales on
  /// heterogeneous fabrics).  Returns the computation energy of the
  /// column's clusters plus the vertical link energy inside the column, and
  /// fills `core_of_row` (SPG row -> core row); infinity when infeasible.
  double solve_column(const Block& b, const Distribution& din, int vcol,
                      std::vector<int>& core_of_row) {
    ++columns;
    const auto idx = [&](int gg, int uu) {
      return static_cast<std::size_t>(gg * (P + 1) + uu);
    };

    // bd[t][u]: incoming bytes with entry row <= u-1 and dest row >= t;
    // bu[t][u]: incoming bytes with entry row >= u and dest row < t.
    // (entry rows index cores of the previous column, 0..P-1).  Read only
    // by the links of core rows u >= 1.
    if (P > 1) {
      bd.assign(static_cast<std::size_t>((Y + 1) * (P + 1)), 0.0);
      bu.assign(static_cast<std::size_t>((Y + 1) * (P + 1)), 0.0);
      // bucket[dest_row][entry_row]
      bucket.assign(static_cast<std::size_t>(Y * P), 0.0);
      for (const auto& d : din) {
        if (col_of[d.dst] < b.m1 || col_of[d.dst] > b.m2) continue;
        bucket[static_cast<std::size_t>(row_of[d.dst] * P + d.row)] += d.bytes;
      }
      // pre[yd][u] = sum of bucket[yd][re] over re < u.
      pre.assign(static_cast<std::size_t>(Y * (P + 1)), 0.0);
      for (int yd = 0; yd < Y; ++yd) {
        double run = 0.0;
        for (int re = 0; re < P; ++re) {
          run += bucket[static_cast<std::size_t>(yd * P + re)];
          pre[static_cast<std::size_t>(yd * (P + 1) + re + 1)] = run;
        }
      }
      // bd[t][u] = sum over yd >= t of pre[yd][u]  (entry rows <= u-1);
      // bu[t][u] = sum over yd < t of (row_total[yd] - pre[yd][u]).
      for (int u = 0; u <= P; ++u) {
        double suffix = 0.0;
        for (int t = Y; t >= 0; --t) {
          if (t < Y) suffix += pre[static_cast<std::size_t>(t * (P + 1) + u)];
          bd[idx(t, u)] = suffix;
        }
        double prefix = 0.0;
        for (int t = 0; t <= Y; ++t) {
          bu[idx(t, u)] = prefix;
          if (t < Y) {
            const double row_total = pre[static_cast<std::size_t>(t * (P + 1) + P)];
            prefix += row_total - pre[static_cast<std::size_t>(t * (P + 1) + u)];
          }
        }
      }
    }

    // dp[g][u]: rows < g assigned to cores < u; vertical links between
    // cores < u fully charged.  parent[g][u] = g' of the best transition.
    col_dp.assign(static_cast<std::size_t>((Y + 1) * (P + 1)), kInf);
    col_parent.assign(static_cast<std::size_t>((Y + 1) * (P + 1)), -1);
    col_dp[idx(0, 0)] = 0.0;

    for (int u = 0; u < P; ++u) {
      for (int g1 = 0; g1 <= Y; ++g1) {
        const double base = col_dp[idx(g1, u)];
        if (!std::isfinite(base)) continue;
        // Link (u-1, u) cost/feasibility, independent of g2.
        double link_energy = 0.0;
        if (u >= 1) {
          const double down =
              b.cross_down[static_cast<std::size_t>(g1)] + bd[idx(g1, u)];
          const double up = b.cross_up[static_cast<std::size_t>(g1)] + bu[idx(g1, u)];
          if (down > cut_cap * (1 + 1e-12) || up > cut_cap * (1 + 1e-12)) continue;
          link_energy = (down + up) * comm.energy_per_byte;
        }
        // The last core row must take every remaining row: only dp[Y][P]
        // is ever read.
        for (int g2 = u + 1 == P ? Y : g1; g2 <= Y; ++g2) {
          double cal = 0.0;
          if (g2 > g1) {
            const double w = box_work(b.m1, b.m2, g1, g2 - 1);
            if (w > 0.0) {
              // A full-height box is never bad (and has no table when P == 1).
              if ((g1 > 0 || g2 < Y) && b.bad[static_cast<std::size_t>(g1 * Y + (g2 - 1))]) {
                continue;
              }
              // Rows [g1, g2) run on core (u, vcol); its speed scale caps
              // the cluster weight and prices its energy.
              const double scale = scale_at(u, vcol);
              const std::size_t k = speeds.slowest_feasible(w / scale, T);
              if (k == speeds.mode_count()) continue;
              cal = speeds.core_energy(w / scale, k, T);
            }
          }
          const double cand = base + link_energy + cal;
          if (cand < col_dp[idx(g2, u + 1)]) {
            col_dp[idx(g2, u + 1)] = cand;
            col_parent[idx(g2, u + 1)] = g1;
          }
        }
      }
    }

    const double energy = col_dp[idx(Y, P)];
    if (!std::isfinite(energy)) return kInf;
    core_of_row.assign(static_cast<std::size_t>(Y), -1);
    int gg = Y;
    for (int u = P; u >= 1; --u) {
      const int g1 = col_parent[idx(gg, u)];
      for (int rr = g1; rr < gg; ++rr) {
        core_of_row[static_cast<std::size_t>(rr)] = u - 1;
      }
      gg = g1;
    }
    return energy;
  }

  /// Outgoing distribution of block [m1, m2] given its row assignment and
  /// the pass-through part of the incoming distribution.
  Distribution block_output(int m1, int m2, const std::vector<int>& core_of_row,
                            const Distribution& din) const {
    std::map<std::pair<int, spg::StageId>, double> agg;
    for (const auto& d : din) {
      if (col_of[d.dst] > m2) agg[{d.row, d.dst}] += d.bytes;  // pass-through
    }
    for (const auto& e : g.edges()) {
      if (col_of[e.src] < m1 || col_of[e.src] > m2) continue;
      if (col_of[e.dst] <= m2) continue;
      const int row = core_of_row[static_cast<std::size_t>(row_of[e.src])];
      agg[{row, e.dst}] += e.bytes;
    }
    Distribution out;
    out.reserve(agg.size());
    for (const auto& [key, bytes] : agg) {
      out.push_back(DEntry{key.first, bytes, key.second});
    }
    return out;
  }

  /// Horizontal-crossing cost of distribution `d` over one column boundary;
  /// infinity when some row's link saturates.
  [[nodiscard]] double crossing_energy(const Distribution& d) const {
    std::vector<double> per_row(static_cast<std::size_t>(P), 0.0);
    double total = 0.0;
    for (const auto& e : d) {
      per_row[static_cast<std::size_t>(e.row)] += e.bytes;
      total += e.bytes;
    }
    for (double b : per_row) {
      if (b > cut_cap * (1 + 1e-12)) return kInf;
    }
    return total * comm.energy_per_byte;
  }

  /// Full outer DP, then the reconstruction of the best state.  On Ok,
  /// `core_of_stage` holds stage -> (virtual core row, col).
  Outcome solve(std::vector<cmp::CoreId>& core_of_stage) {
    struct OuterState {
      double energy = kInf;
      double cross = kInf;  ///< crossing_energy(dist), once final
      Distribution dist;    ///< outgoing distribution, once final
      int parent_m = -1;
    };
    // state(m, v): first m SPG columns on the first v CMP columns.
    std::vector<std::vector<OuterState>> dp(
        static_cast<std::size_t>(X + 1),
        std::vector<OuterState>(static_cast<std::size_t>(Q + 1)));
    dp[0][0].energy = 0.0;
    dp[0][0].cross = 0.0;

    // In (m, mp, v) order every state dp[mp][.] is final before any block
    // starting at mp is solved, and each dp[m][v] still meets its
    // candidates in ascending mp, so the strict < picks the same winner as
    // a (v, m, mp) sweep.  Block = SPG columns [mp, m-1] on CMP column v-1.
    Block block;
    std::vector<int> rows;
    // best_rows[v]: rows of the best block into dp[m][v] so far.
    std::vector<std::vector<int>> best_rows(static_cast<std::size_t>(Q + 1));
    for (int m = 1; m <= X; ++m) {
      for (int mp = 0; mp < m; ++mp) {
        bool built = false;
        for (int v = 1; v <= std::min(Q, mp + 1); ++v) {
          const auto& prev = dp[static_cast<std::size_t>(mp)][static_cast<std::size_t>(v - 1)];
          if (!std::isfinite(prev.energy) || !std::isfinite(prev.cross)) continue;
          if (!built) {
            build_block(block, mp, m - 1);
            built = true;
          }
          const double col = solve_column(block, prev.dist, v - 1, rows);
          if (!std::isfinite(col)) continue;
          const double cand = prev.energy + prev.cross + col;
          auto& cur = dp[static_cast<std::size_t>(m)][static_cast<std::size_t>(v)];
          if (cand < cur.energy) {
            cur.energy = cand;
            cur.parent_m = mp;
            std::swap(best_rows[static_cast<std::size_t>(v)], rows);
          }
        }
      }
      // The states of m are final: derive what their successors read.
      for (int v = 1; v <= std::min(Q, m); ++v) {
        auto& cur = dp[static_cast<std::size_t>(m)][static_cast<std::size_t>(v)];
        if (!std::isfinite(cur.energy)) continue;
        ++states;
        const auto& prev =
            dp[static_cast<std::size_t>(cur.parent_m)][static_cast<std::size_t>(v - 1)];
        cur.dist = block_output(cur.parent_m, m - 1, best_rows[static_cast<std::size_t>(v)],
                                prev.dist);
        cur.cross = crossing_energy(cur.dist);
      }
    }

    int best_v = -1;
    double best_e = kInf;
    for (int v = 1; v <= Q; ++v) {
      const auto& st = dp[static_cast<std::size_t>(X)][static_cast<std::size_t>(v)];
      if (st.energy < best_e) {
        best_e = st.energy;
        best_v = v;
      }
    }
    if (best_v < 0) return Outcome::Infeasible;

    // Reconstruct block boundaries, then re-solve each block for rows,
    // re-adding the DP's sum in its order: it must give best_e exactly.
    std::vector<int> bounds;  // m values, from X down to 0
    int m = X;
    for (int v = best_v; v >= 1; --v) {
      bounds.push_back(m);
      m = dp[static_cast<std::size_t>(m)][static_cast<std::size_t>(v)].parent_m;
    }
    bounds.push_back(0);
    std::reverse(bounds.begin(), bounds.end());  // 0 = b0 < b1 < ... < bV = X

    core_of_stage.assign(g.size(), cmp::CoreId{});
    Distribution din;  // empty before the first block
    double energy = 0.0;
    for (int v = 0; v + 1 < static_cast<int>(bounds.size()); ++v) {
      const int m1 = bounds[static_cast<std::size_t>(v)];
      const int m2 = bounds[static_cast<std::size_t>(v + 1)] - 1;
      const double cross = v == 0 ? 0.0 : crossing_energy(din);
      build_block(block, m1, m2);
      const double col = solve_column(block, din, v, rows);
      if (!std::isfinite(cross) || !std::isfinite(col)) return Outcome::Internal;
      energy = energy + cross + col;
      for (int c = m1; c <= m2; ++c) {
        for (spg::StageId i : stages_in_col[static_cast<std::size_t>(c)]) {
          const int row = rows[static_cast<std::size_t>(row_of[i])];
          core_of_stage[i] = cmp::CoreId{row, v};
        }
      }
      din = block_output(m1, m2, rows, din);
    }
    return energy == best_e ? Outcome::Ok : Outcome::Internal;
  }
};

}  // namespace

Result Dpa2dHeuristic::run(const spg::Spg& g, const cmp::Platform& p, double T) const {
  // DPA2D solves on the real grid; DPA2D1D on a virtual 1 x (p*q) line that
  // is then embedded along the snake.  Per-virtual-core speed scales:
  // virtual (row, col) is physical (row, col) in Grid2D mode and snake core
  // `col` in Line1D mode.  Homogeneous platforms pass an empty table (scale
  // 1.0 everywhere, the paper path).
  const bool grid2d = mode_ == Mode::Grid2D;
  const cmp::Grid& grid = p.grid();
  const int r = grid.core_count();
  const cmp::Grid line(1, r, grid.bandwidth());
  std::vector<double> scales;
  if (p.topology.heterogeneous()) {
    scales.resize(static_cast<std::size_t>(r));
    for (int c = 0; c < r; ++c) {
      const int phys = grid2d ? c : grid.core_index(grid.snake_core(c));
      scales[static_cast<std::size_t>(c)] = p.topology.core_speed_scale(phys);
    }
  }
  Dpa2dSolver solver(g, grid2d ? grid : line, p.speeds, p.comm, T, std::move(scales));
  std::vector<cmp::CoreId> cores;
  Outcome outcome = Outcome::Internal;
  {
    obs::Span span("dpa2d.dp");
    outcome = solver.solve(cores);
    if (span.active()) {
      span.detail("blocks", solver.blocks);
      span.detail("columns", solver.columns);
      span.detail("states", solver.states);
      span.detail("outcome", kOutcomeNames[static_cast<int>(outcome)]);
    }
  }
  switch (outcome) {
    case Outcome::Ok: break;
    case Outcome::Infeasible:
      return Result::fail(grid2d ? "DPA2D: no feasible column partition"
                                 : "DPA2D1D: no feasible line partition");
    case Outcome::Internal:
      return Result::fail(name() + ": internal: reconstruction does not match the DP table");
  }

  mapping::Mapping m;
  m.core_of.resize(g.size());
  if (grid2d) {
    for (spg::StageId i = 0; i < g.size(); ++i) m.core_of[i] = grid.core_index(cores[i]);
    return finalize_with_routes(g, p, T, std::move(m));
  }
  for (spg::StageId i = 0; i < g.size(); ++i) {
    m.core_of[i] = grid.core_index(grid.snake_core(cores[i].col));
  }
  m.edge_paths.assign(g.edge_count(), {});
  for (spg::EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& edge = g.edge(e);
    const int a = cores[edge.src].col;
    const int b = cores[edge.dst].col;
    if (a != b) m.edge_paths[e] = grid.snake_route(grid.snake_core(a), grid.snake_core(b));
  }
  return finalize_with_paths(g, p, T, std::move(m), /*downgrade=*/true);
}

}  // namespace spgcmp::heuristics
