#include "heuristics/exact.hpp"

#include <algorithm>
#include <optional>

#include "obs/trace.hpp"

namespace spgcmp::heuristics {

namespace {

/// Enumerate all ordered DAG-partitions (cluster sequences in quotient
/// topological order) via prefix-ideal peeling, invoking visit(cluster_of)
/// with cluster ids 0..K-1.
struct PartitionEnumerator {
  const spg::Spg& g;
  int max_clusters;
  std::size_t* budget;

  std::vector<int> cluster_of;
  std::vector<std::size_t> preds_left;
  std::vector<spg::StageId> order;  // fixed topological order
  std::vector<int> topo_pos;

  PartitionEnumerator(const spg::Spg& graph, int k, std::size_t* fuel)
      : g(graph), max_clusters(k), budget(fuel) {
    cluster_of.assign(g.size(), -1);
    preds_left.resize(g.size());
    for (spg::StageId i = 0; i < g.size(); ++i) preds_left[i] = g.in_edges(i).size();
    order = g.topological_order();
    topo_pos.assign(g.size(), 0);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      topo_pos[order[pos]] = static_cast<int>(pos);
    }
  }

  template <typename Visit>
  void enumerate(Visit&& visit) {
    grow_cluster(0, -1, 0, std::forward<Visit>(visit));
  }

 private:
  // Build cluster `c`.  `last_pos` is the topo position of the last stage
  // added to cluster c (stages within a cluster are added in increasing
  // topo order to avoid duplicates); `placed` counts assigned stages.
  template <typename Visit>
  void grow_cluster(int c, int last_pos, std::size_t placed, Visit&& visit) {
    if (*budget == 0) return;
    if (placed == g.size()) {
      --*budget;
      visit(cluster_of);
      return;
    }
    for (std::size_t pos = static_cast<std::size_t>(last_pos + 1); pos < g.size();
         ++pos) {
      const spg::StageId s = order[pos];
      if (cluster_of[s] != -1 || preds_left[s] != 0) continue;
      cluster_of[s] = c;
      for (spg::EdgeId e : g.out_edges(s)) --preds_left[g.edge(e).dst];
      grow_cluster(c, static_cast<int>(pos), placed + 1, visit);
      // Also: close cluster c here and start cluster c+1 (only when c is
      // non-empty, which it is since s was just added).
      if (c + 1 < max_clusters) {
        grow_cluster(c + 1, -1, placed + 1, visit);
      }
      for (spg::EdgeId e : g.out_edges(s)) ++preds_left[g.edge(e).dst];
      cluster_of[s] = -1;
      if (*budget == 0) return;
    }
  }
};

/// Enumerate every set partition of {0..n-1} into at most `max_blocks`
/// blocks via restricted growth strings; used for general mappings.
template <typename Visit>
void enumerate_set_partitions(std::size_t n, int max_blocks, std::size_t* budget,
                              Visit&& visit) {
  std::vector<int> block(n, 0);
  auto rec = [&](auto&& self, std::size_t i, int used) -> void {
    if (*budget == 0) return;
    if (i == n) {
      --*budget;
      visit(block);
      return;
    }
    const int limit = std::min(used + 1, max_blocks);
    for (int b = 0; b < limit; ++b) {
      block[i] = b;
      self(self, i + 1, std::max(used, b + 1));
      if (*budget == 0) return;
    }
  };
  rec(rec, 0, 0);
}

}  // namespace

Result ExactSolver::run(const spg::Spg& g, const cmp::Platform& p, double T) const {
  if (g.size() > options_.max_stages) {
    return Result::fail("Exact: graph too large");
  }
  if (p.grid().core_count() > options_.max_cores) {
    return Result::fail("Exact: platform too large");
  }
  const int cores = p.grid().core_count();
  std::size_t fuel = options_.max_candidates;
  // Two evaluators reused across the whole enumeration (candidate counts
  // run into the tens of thousands; per-candidate workspace allocation
  // would dominate).  `delta` holds the bound state of the incremental
  // protocol; `full` scores the YX routes, whose evaluate_full calls must
  // not clobber the bound state.
  mapping::Evaluator delta(g, p, T);
  mapping::Evaluator full(g, p, T);

  Result best = Result::fail(options_.require_dag_partition
                                 ? "Exact: no feasible DAG-partition mapping"
                                 : "Exact: no feasible general mapping");
  bool budget_hit = false;

  // Accept `ev` (the scored candidate with mapping `take`) if it beats the
  // incumbent: DAG-partition mode demands full validity, general mode only
  // structural soundness and the period (the quotient may be cyclic).
  const auto consider = [&](const mapping::Evaluation& ev,
                            const mapping::Mapping& take) {
    const bool ok = options_.require_dag_partition
                        ? ev.valid()
                        : ev.error.empty() && ev.meets_period;
    if (ok && (!best.success || ev.energy < best.eval.energy)) {
      best.success = true;
      best.failure.clear();
      best.mapping = take;
      best.eval = ev;
    }
  };

  const auto try_partition = [&](const std::vector<int>& cluster_of) {
    const int k = 1 + *std::max_element(cluster_of.begin(), cluster_of.end());
    // Stages per cluster, for the per-cluster move batches below.
    std::vector<std::vector<spg::StageId>> members(static_cast<std::size_t>(k));
    for (spg::StageId i = 0; i < g.size(); ++i) {
      members[static_cast<std::size_t>(cluster_of[i])].push_back(i);
    }

    // Injective placements: DFS over ordered k-subsets of the cores.
    std::vector<int> choice(static_cast<std::size_t>(k));
    std::vector<char> used(static_cast<std::size_t>(cores), 0);
    std::vector<int> batch_targets;
    // Delta-path state: the placement the evaluator is currently bound to.
    // Consecutive leaves of the DFS differ in a suffix of `choice`, so most
    // candidates are scored by moving one cluster's stages.
    bool have_bound = false;
    std::vector<int> bound_choice(static_cast<std::size_t>(k), -1);

    // Full evaluation of the current `choice` under manual YX paths, via
    // the `full` evaluator.  YX routes vertically first — equivalent to XY
    // on the transposed pair — which can relieve a saturated link on
    // square grids.
    const auto evaluate_yx = [&]() {
      mapping::Mapping cand;
      cand.core_of.resize(g.size());
      for (spg::StageId i = 0; i < g.size(); ++i) {
        cand.core_of[i] = choice[static_cast<std::size_t>(cluster_of[i])];
      }
      cand.edge_paths.assign(g.edge_count(), {});
      for (spg::EdgeId e = 0; e < g.edge_count(); ++e) {
        const auto& edge = g.edge(e);
        cmp::CoreId a = p.grid().core_at(cand.core_of[edge.src]);
        const cmp::CoreId b = p.grid().core_at(cand.core_of[edge.dst]);
        if (a == b) continue;
        auto& path = cand.edge_paths[e];
        while (a.row != b.row) {
          const cmp::Dir d = a.row < b.row ? cmp::Dir::South : cmp::Dir::North;
          path.push_back(cmp::LinkId{a, d});
          a = p.grid().neighbor(a, d);
        }
        while (a.col != b.col) {
          const cmp::Dir d = a.col < b.col ? cmp::Dir::East : cmp::Dir::West;
          path.push_back(cmp::LinkId{a, d});
          a = p.grid().neighbor(a, d);
        }
      }
      if (!mapping::assign_slowest_modes(g, p, T, cand)) return;
      const auto& ev = full.evaluate_full(cand);
      consider(ev, cand);
    };

    // Score the current `choice` through the delta path: transform the
    // bound placement into it cluster by cluster as one batch of moves,
    // then aggregate once.
    const auto evaluate_delta = [&]() {
      if (have_bound) {
        for (int c = 0; c < k; ++c) {
          const int to = choice[static_cast<std::size_t>(c)];
          if (to == bound_choice[static_cast<std::size_t>(c)]) continue;
          for (const spg::StageId s : members[static_cast<std::size_t>(c)]) {
            delta.apply_move(s, to);
          }
          bound_choice[static_cast<std::size_t>(c)] = to;
        }
        consider(delta.refresh(), delta.mapping());
        return;
      }
      // First leaf of this partition: bind a fresh mapping with default
      // routes and per-core downgraded modes (the same clamp rule the
      // incremental protocol maintains, so later moves stay consistent).
      mapping::Mapping m;
      m.core_of.resize(g.size());
      for (spg::StageId i = 0; i < g.size(); ++i) {
        m.core_of[i] = choice[static_cast<std::size_t>(cluster_of[i])];
      }
      mapping::attach_routes(g, p.topology, m);
      std::vector<double> work(static_cast<std::size_t>(cores), 0.0);
      for (spg::StageId i = 0; i < g.size(); ++i) {
        work[static_cast<std::size_t>(m.core_of[i])] += g.stage(i).work;
      }
      m.mode_of_core.assign(static_cast<std::size_t>(cores), 0);
      for (int c = 0; c < cores; ++c) {
        const double w = work[static_cast<std::size_t>(c)];
        if (w <= 0.0) continue;
        const double scale = p.topology.core_speed_scale(c);
        const std::size_t mode = p.speeds.slowest_feasible(w / scale, T);
        m.mode_of_core[static_cast<std::size_t>(c)] =
            mode == p.speeds.mode_count() ? mode - 1 : mode;
      }
      const auto& ev = delta.bind(m);
      have_bound = ev.error.empty();
      if (have_bound) bound_choice = choice;
      consider(ev, m);
    };

    auto place = [&](auto&& self, int depth) -> void {
      if (fuel == 0) {
        budget_hit = true;
        return;
      }
      if (depth == k - 1 && have_bound && !options_.try_yx_routes &&
          members[static_cast<std::size_t>(k - 1)].size() == 1) {
        // Innermost level with a singleton last cluster: sync the bound
        // state to the prefix choices once, then score every remaining core
        // for the lone stage in one batched pass.  Only candidates that can
        // beat the incumbent (within a re-check margin) are re-scored
        // through the exact delta path; fuel is spent per candidate in the
        // same core order as the scalar loop, so candidate counts match.
        const spg::StageId lone = members[static_cast<std::size_t>(k - 1)][0];
        bool moved = false;
        for (int c = 0; c + 1 < k; ++c) {
          const int to = choice[static_cast<std::size_t>(c)];
          if (to == bound_choice[static_cast<std::size_t>(c)]) continue;
          for (const spg::StageId s : members[static_cast<std::size_t>(c)]) {
            delta.apply_move(s, to);
          }
          bound_choice[static_cast<std::size_t>(c)] = to;
          moved = true;
        }
        if (moved) delta.refresh();  // batch scoring needs fresh work/modes
        const int home = delta.mapping().core_of[lone];

        bool stay = false;
        batch_targets.clear();
        for (int c = 0; c < cores; ++c) {
          if (used[static_cast<std::size_t>(c)]) continue;
          if (fuel == 0) {
            budget_hit = true;
            break;
          }
          --fuel;
          if (c == home) {
            stay = true;
          } else {
            batch_targets.push_back(c);
          }
        }
        if (stay) {
          // The stage already sits on `home`: the bound state itself is
          // this candidate.
          choice[static_cast<std::size_t>(depth)] = home;
          evaluate_delta();
        }
        if (!batch_targets.empty()) {
          const auto& scores = delta.evaluate_move_batch(lone, batch_targets);
          for (std::size_t i = 0; i < batch_targets.size(); ++i) {
            const auto& sc = scores[i];
            const bool ok = options_.require_dag_partition
                                ? sc.valid()
                                : sc.meets_period;
            if (!ok) continue;
            // Batch scores follow evaluate_move's delta arithmetic, while
            // the committed path re-derives core work in refresh(); the two
            // can differ by ulps, so near-ties are re-scored rather than
            // filtered.
            if (best.success && sc.energy > best.eval.energy * (1.0 + 1e-9)) {
              continue;
            }
            choice[static_cast<std::size_t>(depth)] = batch_targets[i];
            evaluate_delta();
          }
        }
        return;
      }
      if (depth == k) {
        --fuel;
        evaluate_delta();
        if (options_.try_yx_routes) evaluate_yx();
        return;
      }
      for (int c = 0; c < cores; ++c) {
        if (used[static_cast<std::size_t>(c)]) continue;
        used[static_cast<std::size_t>(c)] = 1;
        choice[static_cast<std::size_t>(depth)] = c;
        self(self, depth + 1);
        used[static_cast<std::size_t>(c)] = 0;
        if (budget_hit) return;
      }
    };
    place(place, 0);
  };

  {
    // One span for the whole enumeration; per-partition spans would swamp
    // the trace (candidate counts run into the tens of thousands).
    obs::Span span("exact.enumerate");
    if (options_.require_dag_partition) {
      PartitionEnumerator en(g, cores, &fuel);
      en.enumerate(try_partition);
    } else {
      enumerate_set_partitions(g.size(), cores, &fuel, try_partition);
    }
    if (span.active()) {
      span.detail("candidates",
                  static_cast<std::uint64_t>(options_.max_candidates - fuel));
    }
  }

  if (!best.success && budget_hit) {
    return Result::fail("Exact: enumeration budget exceeded");
  }
  return best;
}

}  // namespace spgcmp::heuristics
