#include "mapping/evaluator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/thread_pool.hpp"

namespace spgcmp::mapping {

namespace {

/// Dense index of a link already known to exist (validation happened when
/// the path was checked / the routing table was built).
inline int dense_link(const cmp::Grid& grid, cmp::LinkId l) noexcept {
  return grid.core_index(l.from) * 4 + static_cast<int>(l.dir);
}

// Built with append rather than operator+ chains: GCC 12's -Wrestrict
// false-positives on `"(" + std::to_string(...)` in -O2 builds.
std::string core_str(cmp::CoreId c) {
  std::string s = "(";
  s += std::to_string(c.row);
  s += ',';
  s += std::to_string(c.col);
  s += ')';
  return s;
}

void reset_scalars(Evaluation& ev) {
  ev.error.clear();
  ev.dag_partition_ok = false;
  ev.meets_period = false;
  ev.period = 0.0;
  ev.max_core_time = 0.0;
  ev.max_link_time = 0.0;
  ev.comp_energy = 0.0;
  ev.comm_energy = 0.0;
  ev.energy = 0.0;
  ev.active_cores = 0;
}

void copy_scalars(Evaluation& dst, const Evaluation& src) {
  dst.error = src.error;
  dst.dag_partition_ok = src.dag_partition_ok;
  dst.meets_period = src.meets_period;
  dst.period = src.period;
  dst.max_core_time = src.max_core_time;
  dst.max_link_time = src.max_link_time;
  dst.comp_energy = src.comp_energy;
  dst.comm_energy = src.comm_energy;
  dst.energy = src.energy;
  dst.active_cores = src.active_cores;
}

thread_local EvalCounterSink* tl_eval_sink = nullptr;

/// Add `n` calls of one kind to the per-solve sink installed on this
/// thread, if any.
inline void count_eval(std::atomic<std::uint64_t> EvalCounterSink::*cell,
                       std::uint64_t n = 1) noexcept {
  if (EvalCounterSink* sink = tl_eval_sink) {
    (sink->*cell).fetch_add(n, std::memory_order_relaxed);
  }
}

void to_score(const Evaluation& ev, BatchScore& out) noexcept {
  out.dag_partition_ok = ev.dag_partition_ok;
  out.meets_period = ev.meets_period;
  out.period = ev.period;
  out.max_core_time = ev.max_core_time;
  out.max_link_time = ev.max_link_time;
  out.comp_energy = ev.comp_energy;
  out.comm_energy = ev.comm_energy;
  out.energy = ev.energy;
  out.active_cores = ev.active_cores;
}

// Registered when this TU is linked (i.e. whenever the evaluator exists in
// the program): pool workers adopt the spawning thread's sink, so solvers
// that parallelize internally keep exact per-solve attribution.
const bool kEvalSinkPropagatorRegistered = [] {
  util::register_thread_context(
      {[]() noexcept -> void* { return tl_eval_sink; },
       [](void* sink) noexcept -> void* {
         void* prev = tl_eval_sink;
         tl_eval_sink = static_cast<EvalCounterSink*>(sink);
         return prev;
       },
       [](void* prev) noexcept {
         tl_eval_sink = static_cast<EvalCounterSink*>(prev);
       }});
  return true;
}();

}  // namespace

EvalCounterSink* eval_sink() noexcept { return tl_eval_sink; }

ScopedEvalSink::ScopedEvalSink(EvalCounterSink* sink) noexcept
    : prev_(tl_eval_sink) {
  tl_eval_sink = sink;
}

ScopedEvalSink::~ScopedEvalSink() { tl_eval_sink = prev_; }

Evaluator::Evaluator(const spg::Spg& g, const cmp::Platform& p, double T)
    : g_(&g), p_(&p), T_(T) {
  const auto cores = static_cast<std::size_t>(p.grid().core_count());
  const auto links = static_cast<std::size_t>(p.topology.link_count());
  ev_.core_work.assign(cores, 0.0);
  ev_.link_load.assign(links, 0.0);
  stage_count_.assign(cores, 0);
  link_paths_.assign(links, 0);
  link_epoch_.assign(links, 0);
  q_.reset(p.grid().core_count());
  // Hoist loop-invariant factors of the aggregation: identical operands
  // give identical bits, so caching changes no result.
  scale_.resize(cores);
  for (int c = 0; c < p.grid().core_count(); ++c) {
    scale_[static_cast<std::size_t>(c)] = p.topology.core_speed_scale(c);
  }
  leak_energy_ = p.speeds.leak_power() * T_;
}

void Evaluator::accumulate_work(const std::vector<int>& core_of) {
  std::fill(ev_.core_work.begin(), ev_.core_work.end(), 0.0);
  std::fill(stage_count_.begin(), stage_count_.end(), 0);
  for (spg::StageId i = 0; i < g_->size(); ++i) {
    const auto c = static_cast<std::size_t>(core_of[i]);
    ev_.core_work[c] += g_->stage(i).work;
    ++stage_count_[c];
  }
}

// Flat scalar aggregation over the arenas (core work / stage counts / link
// loads), shared verbatim by every evaluation path — scalar and batched —
// so all of them produce bit-identical energies for identical arena state.
// The quotient check is the caller's job (out.dag_partition_ok is left
// untouched): full paths rebuild `q_`, the incremental and batch paths
// apply an O(deg) delta to the maintained quotient instead.
const Evaluation& Evaluator::aggregate_scalars(
    Evaluation& out, const std::vector<std::size_t>& mode_of_core) {
  const auto& speeds = p_->speeds;

  out.max_core_time = 0.0;
  out.comp_energy = 0.0;
  out.active_cores = 0;
  bool speed_ok = true;
  const int cores = p_->grid().core_count();
  for (int c = 0; c < cores; ++c) {
    const double w = ev_.core_work[static_cast<std::size_t>(c)];
    if (w <= 0.0) continue;  // inactive core (or zero-work cluster): skip
    ++out.active_cores;
    const std::size_t k = mode_of_core[static_cast<std::size_t>(c)];
    if (k >= speeds.mode_count()) {
      speed_ok = false;
      continue;
    }
    const double eff = speeds.speed(k) * scale_[static_cast<std::size_t>(c)];
    const double t = w / eff;
    out.max_core_time = std::max(out.max_core_time, t);
    out.comp_energy += leak_energy_ + (w / eff) * speeds.dynamic_power(k);
  }
  // Cores holding only zero-work stages still count as active (they consume
  // leakage and occupy the core).
  for (int c = 0; c < cores; ++c) {
    if (stage_count_[static_cast<std::size_t>(c)] > 0 &&
        ev_.core_work[static_cast<std::size_t>(c)] <= 0.0) {
      ++out.active_cores;
      out.comp_energy += leak_energy_;
    }
  }

  out.max_link_time = 0.0;
  out.comm_energy = p_->comm.leak_power * T_;
  double total_link_bytes = 0.0;
  const double bw = p_->grid().bandwidth();
  for (const double b : ev_.link_load) {
    if (b <= 0.0) continue;
    out.max_link_time = std::max(out.max_link_time, b / bw);
    total_link_bytes += b;
  }
  out.comm_energy += total_link_bytes * p_->comm.energy_per_byte;

  out.period = std::max(out.max_core_time, out.max_link_time);
  out.meets_period = speed_ok && out.period <= T_ * (1.0 + 1e-12);
  out.energy = out.comp_energy + out.comm_energy;
  return out;
}

const Evaluation& Evaluator::evaluate_full(const Mapping& m) {
  count_eval(&EvalCounterSink::full);
  bound_ = false;
  have_pending_ = false;
  reset_scalars(ev_);

  const auto& grid = p_->grid();
  const auto& topo = p_->topology;
  const std::size_t n = g_->size();

  if (m.core_of.size() != n) {
    ev_.error = "core_of arity mismatch";
    return ev_;
  }
  if (m.edge_paths.size() != g_->edge_count()) {
    ev_.error = "edge_paths arity mismatch";
    return ev_;
  }
  for (const int c : m.core_of) {
    if (c < 0 || c >= grid.core_count()) {
      ev_.error = "stage mapped outside the grid";
      return ev_;
    }
  }
  if (m.mode_of_core.size() != static_cast<std::size_t>(grid.core_count())) {
    ev_.error = "mode_of_core arity mismatch";
    return ev_;
  }

  accumulate_work(m.core_of);

  // Link loads from explicit paths.  Each path is walked once: continuity,
  // link existence (per the topology, so torus wrap links are fine) and the
  // dense index all come out of the same pass — no duplicate validation.
  std::fill(ev_.link_load.begin(), ev_.link_load.end(), 0.0);
  std::fill(link_paths_.begin(), link_paths_.end(), 0);
  for (spg::EdgeId e = 0; e < g_->edge_count(); ++e) {
    const auto& edge = g_->edge(e);
    const cmp::CoreId src = grid.core_at(m.core_of[edge.src]);
    const cmp::CoreId dst = grid.core_at(m.core_of[edge.dst]);
    const auto& path = m.edge_paths[e];
    if (src == dst) {
      if (!path.empty()) {
        ev_.error = "co-located edge has a non-empty path";
        return ev_;
      }
      continue;
    }
    if (path.empty()) {
      ev_.error = "cross-core edge has no path";
      return ev_;
    }
    cmp::CoreId cur = src;
    for (const auto& link : path) {
      if (!(link.from == cur)) {
        ev_.error = "path discontinuity: expected a link out of core " +
                    core_str(cur) + ", got one out of " + core_str(link.from);
        return ev_;
      }
      if (!topo.has_link(link.from, link.dir)) {
        ev_.error = "path uses a non-existent link out of core " +
                    core_str(link.from) + " toward " + cmp::to_string(link.dir);
        return ev_;
      }
      const auto idx = static_cast<std::size_t>(dense_link(grid, link));
      ev_.link_load[idx] += edge.bytes;
      ++link_paths_[idx];
      cur = topo.link_target(link.from, link.dir);
    }
    if (!(cur == dst)) {
      ev_.error = "path does not reach destination core " + core_str(dst) +
                  " (stops at " + core_str(cur) + ")";
      return ev_;
    }
  }

  ev_.dag_partition_ok =
      quotient_acyclic_bits(*g_, m.core_of, grid.core_count(), q_);
  return aggregate_scalars(ev_, m.mode_of_core);
}

const Evaluation& Evaluator::evaluate_placement(
    const std::vector<int>& core_of, const std::vector<std::size_t>& mode_of_core) {
  count_eval(&EvalCounterSink::placement);
  bound_ = false;
  have_pending_ = false;
  reset_scalars(ev_);

  const auto& grid = p_->grid();
  const auto& topo = p_->topology;
  if (core_of.size() != g_->size()) {
    ev_.error = "core_of arity mismatch";
    return ev_;
  }
  for (const int c : core_of) {
    if (c < 0 || c >= grid.core_count()) {
      ev_.error = "stage mapped outside the grid";
      return ev_;
    }
  }
  if (mode_of_core.size() != static_cast<std::size_t>(grid.core_count())) {
    ev_.error = "mode_of_core arity mismatch";
    return ev_;
  }

  accumulate_work(core_of);
  std::fill(ev_.link_load.begin(), ev_.link_load.end(), 0.0);
  std::fill(link_paths_.begin(), link_paths_.end(), 0);
  for (const auto& e : g_->edges()) {
    const int a = core_of[e.src];
    const int b = core_of[e.dst];
    if (a == b) continue;
    for (const int idx : topo.route_links(a, b)) {
      ev_.link_load[static_cast<std::size_t>(idx)] += e.bytes;
      ++link_paths_[static_cast<std::size_t>(idx)];
    }
  }
  ev_.dag_partition_ok =
      quotient_acyclic_bits(*g_, core_of, grid.core_count(), q_);
  return aggregate_scalars(ev_, mode_of_core);
}

const Evaluation& Evaluator::bind(const Mapping& m) {
  // evaluate_full resets bound_; rebind only on structural success.
  m_ = m;
  evaluate_full(m_);
  bound_ = ev_.error.empty();
  return ev_;
}

std::size_t Evaluator::downgraded_mode(double work, int core) const {
  if (work <= 0.0) return 0;
  const double scale = p_->topology.core_speed_scale(core);
  const std::size_t k = p_->speeds.slowest_feasible(work / scale, T_);
  // Clamp like assign_slowest_modes: the period check fails on its own when
  // even the fastest mode is too slow.
  return k == p_->speeds.mode_count() ? k - 1 : k;
}

void Evaluator::touch_link(int index) {
  auto& stamp = link_epoch_[static_cast<std::size_t>(index)];
  if (stamp != epoch_) {
    stamp = epoch_;
    journal_links_.push_back(
        LinkDelta{index, ev_.link_load[static_cast<std::size_t>(index)],
                  link_paths_[static_cast<std::size_t>(index)]});
  }
}

void Evaluator::drop_edge_path(spg::EdgeId e, bool journal) {
  const double bytes = g_->edge(e).bytes;
  for (const auto& link : m_.edge_paths[e]) {
    const auto idx = static_cast<std::size_t>(dense_link(p_->grid(), link));
    if (journal) touch_link(static_cast<int>(idx));
    ev_.link_load[idx] -= bytes;
    // A link whose path count drains to zero is reset to exactly 0.0 bytes
    // — (x + b) - b leaves floating-point residue, and an idle link must
    // not retain phantom load.
    if (--link_paths_[idx] == 0) ev_.link_load[idx] = 0.0;
  }
}

void Evaluator::add_edge_route(int a, int b, double bytes, bool journal) {
  for (const int i : p_->topology.route_links(a, b)) {
    const auto idx = static_cast<std::size_t>(i);
    if (journal) touch_link(i);
    ev_.link_load[idx] += bytes;
    ++link_paths_[idx];
  }
}

void Evaluator::shift_quotient(spg::StageId s, int from, int to) {
  for (const spg::EdgeId e : g_->in_edges(s)) {
    const int uc = m_.core_of[g_->edge(e).src];
    if (uc != from) q_.remove_edge(uc, from);
    if (uc != to) q_.add_edge(uc, to);
  }
  for (const spg::EdgeId e : g_->out_edges(s)) {
    const int vc = m_.core_of[g_->edge(e).dst];
    if (vc != from) q_.remove_edge(from, vc);
    if (vc != to) q_.add_edge(to, vc);
  }
}

void Evaluator::materialize_default_routes(spg::StageId s, int to) {
  const auto& topo = p_->topology;
  for (const spg::EdgeId e : g_->in_edges(s)) {
    const int uc = m_.core_of[g_->edge(e).src];
    auto& path = m_.edge_paths[e];
    if (uc == to) {
      path.clear();
    } else {
      const auto r = topo.route(uc, to);
      path.assign(r.begin(), r.end());
    }
  }
  for (const spg::EdgeId e : g_->out_edges(s)) {
    const int vc = m_.core_of[g_->edge(e).dst];
    auto& path = m_.edge_paths[e];
    if (vc == to) {
      path.clear();
    } else {
      const auto r = topo.route(to, vc);
      path.assign(r.begin(), r.end());
    }
  }
}

const Evaluation& Evaluator::evaluate_move(spg::StageId s, int to) {
  if (!bound_) throw std::logic_error("Evaluator: evaluate_move without bind");
  count_eval(&EvalCounterSink::incremental);
  if (to < 0 || to >= p_->grid().core_count()) {
    throw std::out_of_range("Evaluator: move target outside the grid");
  }
  const int from = m_.core_of[s];
  if (to == from) {
    throw std::invalid_argument("Evaluator: stage already on the target core");
  }

  have_pending_ = false;
  journal_links_.clear();
  pending_links_.clear();
  if (++epoch_ == 0) {
    std::fill(link_epoch_.begin(), link_epoch_.end(), 0);
    epoch_ = 1;
  }

  // Acyclicity: shift the stage's quotient edges to `to`, test, shift back
  // — the same answer the batch path gets from its frozen closure, by
  // an independent route.
  shift_quotient(s, from, to);
  const bool dag_ok = q_.acyclic();
  shift_quotient(s, to, from);

  // Link deltas: the moved stage's incident edges lose their bound paths
  // and gain topology default routes, with every touched link journaled
  // for the rollback below.
  for (const spg::EdgeId e : g_->in_edges(s)) {
    const auto& edge = g_->edge(e);
    const int uc = m_.core_of[edge.src];
    if (uc != from) drop_edge_path(e, /*journal=*/true);
    if (uc != to) add_edge_route(uc, to, edge.bytes, /*journal=*/true);
  }
  for (const spg::EdgeId e : g_->out_edges(s)) {
    const auto& edge = g_->edge(e);
    const int vc = m_.core_of[edge.dst];
    if (vc != from) drop_edge_path(e, /*journal=*/true);
    if (vc != to) add_edge_route(to, vc, edge.bytes, /*journal=*/true);
  }

  // Core work, stage counts and re-downgraded modes of the touched cores.
  const double w = g_->stage(s).work;
  const double old_wf = ev_.core_work[static_cast<std::size_t>(from)];
  const double old_wt = ev_.core_work[static_cast<std::size_t>(to)];
  pending_work_from_ = old_wf - w;
  pending_work_to_ = old_wt + w;
  pending_mode_from_ = downgraded_mode(pending_work_from_, from);
  pending_mode_to_ = downgraded_mode(pending_work_to_, to);
  const std::size_t old_mf = m_.mode_of_core[static_cast<std::size_t>(from)];
  const std::size_t old_mt = m_.mode_of_core[static_cast<std::size_t>(to)];

  // Apply to the arenas, aggregate, then restore the bound state exactly
  // (old values are reinstated verbatim, so no floating-point drift).
  ev_.core_work[static_cast<std::size_t>(from)] = pending_work_from_;
  ev_.core_work[static_cast<std::size_t>(to)] = pending_work_to_;
  --stage_count_[static_cast<std::size_t>(from)];
  ++stage_count_[static_cast<std::size_t>(to)];
  m_.core_of[s] = to;
  m_.mode_of_core[static_cast<std::size_t>(from)] = pending_mode_from_;
  m_.mode_of_core[static_cast<std::size_t>(to)] = pending_mode_to_;

  reset_scalars(move_ev_);
  move_ev_.dag_partition_ok = dag_ok;
  aggregate_scalars(move_ev_, m_.mode_of_core);

  for (const auto& old : journal_links_) {
    const auto idx = static_cast<std::size_t>(old.index);
    pending_links_.push_back(
        LinkDelta{old.index, ev_.link_load[idx], link_paths_[idx]});
    ev_.link_load[idx] = old.load;
    link_paths_[idx] = old.paths;
  }
  ev_.core_work[static_cast<std::size_t>(from)] = old_wf;
  ev_.core_work[static_cast<std::size_t>(to)] = old_wt;
  ++stage_count_[static_cast<std::size_t>(from)];
  --stage_count_[static_cast<std::size_t>(to)];
  m_.core_of[s] = from;
  m_.mode_of_core[static_cast<std::size_t>(from)] = old_mf;
  m_.mode_of_core[static_cast<std::size_t>(to)] = old_mt;

  have_pending_ = true;
  pending_stage_ = s;
  pending_from_ = from;
  pending_to_ = to;
  return move_ev_;
}

const Evaluation& Evaluator::commit_move() {
  if (!have_pending_) throw std::logic_error("Evaluator: commit without evaluate_move");
  const spg::StageId s = pending_stage_;
  const int from = pending_from_;
  const int to = pending_to_;

  shift_quotient(s, from, to);
  --stage_count_[static_cast<std::size_t>(from)];
  ++stage_count_[static_cast<std::size_t>(to)];
  for (const auto& next : pending_links_) {
    ev_.link_load[static_cast<std::size_t>(next.index)] = next.load;
    link_paths_[static_cast<std::size_t>(next.index)] = next.paths;
  }
  m_.core_of[s] = to;
  // Re-derive the two touched cores' work exactly (same stage order as
  // accumulate_work): repeated add/subtract deltas would otherwise leave
  // floating-point residue, e.g. a freed core stuck at a nonzero epsilon
  // that still counts as active.
  {
    double wf = 0.0, wt = 0.0;
    for (spg::StageId i = 0; i < g_->size(); ++i) {
      if (m_.core_of[i] == from) {
        wf += g_->stage(i).work;
      } else if (m_.core_of[i] == to) {
        wt += g_->stage(i).work;
      }
    }
    ev_.core_work[static_cast<std::size_t>(from)] = wf;
    ev_.core_work[static_cast<std::size_t>(to)] = wt;
  }
  m_.mode_of_core[static_cast<std::size_t>(from)] = pending_mode_from_;
  m_.mode_of_core[static_cast<std::size_t>(to)] = pending_mode_to_;

  // Materialize the default routes the move was scored with.
  materialize_default_routes(s, to);

  copy_scalars(ev_, move_ev_);
  have_pending_ = false;
  return ev_;
}

void Evaluator::apply_move(spg::StageId s, int to) {
  if (!bound_) throw std::logic_error("Evaluator: apply_move without bind");
  if (to < 0 || to >= p_->grid().core_count()) {
    throw std::out_of_range("Evaluator: move target outside the grid");
  }
  const int from = m_.core_of[s];
  if (to == from) {
    throw std::invalid_argument("Evaluator: stage already on the target core");
  }
  have_pending_ = false;  // a pending evaluate_move is invalidated

  shift_quotient(s, from, to);
  // No journaling: the change is permanent, there is nothing to roll back.
  for (const spg::EdgeId e : g_->in_edges(s)) {
    const auto& edge = g_->edge(e);
    const int uc = m_.core_of[edge.src];
    if (uc != from) drop_edge_path(e, /*journal=*/false);
    if (uc != to) add_edge_route(uc, to, edge.bytes, /*journal=*/false);
  }
  for (const spg::EdgeId e : g_->out_edges(s)) {
    const auto& edge = g_->edge(e);
    const int vc = m_.core_of[edge.dst];
    if (vc != from) drop_edge_path(e, /*journal=*/false);
    if (vc != to) add_edge_route(to, vc, edge.bytes, /*journal=*/false);
  }

  --stage_count_[static_cast<std::size_t>(from)];
  ++stage_count_[static_cast<std::size_t>(to)];
  m_.core_of[s] = to;

  materialize_default_routes(s, to);
}

const Evaluation& Evaluator::refresh() {
  if (!bound_) throw std::logic_error("Evaluator: refresh without bind");
  count_eval(&EvalCounterSink::incremental);
  have_pending_ = false;
  accumulate_work(m_.core_of);
  const int cores = p_->grid().core_count();
  for (int c = 0; c < cores; ++c) {
    m_.mode_of_core[static_cast<std::size_t>(c)] =
        downgraded_mode(ev_.core_work[static_cast<std::size_t>(c)], c);
  }
  reset_scalars(ev_);
  // The maintained quotient already reflects every applied move.
  ev_.dag_partition_ok = q_.acyclic();
  return aggregate_scalars(ev_, m_.mode_of_core);
}

bool Evaluator::batch_stays_acyclic(int t) {
  // Every candidate edge is incident to t, so placing the stage there
  // creates a cycle iff t's closure row hits a predecessor u (u -> t
  // closes t ->* u), some successor v reaches t (t -> v closes v ->* t),
  // or a successor is / reaches a predecessor (u -> t -> v closes
  // v ->* u) — O(deg) word ops against the frozen closure instead of a
  // per-candidate fixpoint.
  const auto kt = static_cast<std::size_t>(t);
  const bool pred_t = batch_pred_.test(kt);
  if (pred_t) batch_pred_.reset(kt);  // a colocated edge, never added
  bool ok = !q_.closure_row(t).intersects(batch_pred_);
  for (const auto& be : batch_edges_) {
    if (!ok) break;
    if (be.incoming || be.other == t) continue;
    const auto& rv = q_.closure_row(be.other);
    if (rv.test(kt) || batch_pred_.test(static_cast<std::size_t>(be.other)) ||
        rv.intersects(batch_pred_)) {
      ok = false;
    }
  }
  if (pred_t) batch_pred_.set(kt);
  return ok;
}

const std::vector<BatchScore>& Evaluator::evaluate_move_batch(
    spg::StageId s, const std::vector<int>& targets) {
  if (!bound_) {
    throw std::logic_error("Evaluator: evaluate_move_batch without bind");
  }
  const int cores = p_->grid().core_count();
  const int from = m_.core_of[s];
  for (const int t : targets) {
    if (t < 0 || t >= cores) {
      throw std::out_of_range("Evaluator: move target outside the grid");
    }
    if (t == from) {
      throw std::invalid_argument("Evaluator: stage already on the target core");
    }
  }
  count_eval(&EvalCounterSink::batch, targets.size());
  have_pending_ = false;  // any pending evaluate_move is invalidated

  // Cache the incident edges in the scalar processing order (in-edges, then
  // out-edges) with their bound drop operations precompiled from the bound
  // paths — each candidate replays them in exactly evaluate_move's order.
  batch_edges_.clear();
  batch_drops_.clear();
  const auto compile = [&](spg::EdgeId e, bool incoming) {
    const auto& edge = g_->edge(e);
    BatchEdge be;
    be.incoming = incoming;
    be.bytes = edge.bytes;
    be.other = m_.core_of[incoming ? edge.src : edge.dst];
    be.drop_begin = static_cast<std::uint32_t>(batch_drops_.size());
    if (be.other != from) {
      for (const auto& link : m_.edge_paths[e]) {
        batch_drops_.push_back(
            LinkOp{dense_link(p_->grid(), link), edge.bytes});
      }
    }
    be.drop_end = static_cast<std::uint32_t>(batch_drops_.size());
    batch_edges_.push_back(be);
  };
  for (const spg::EdgeId e : g_->in_edges(s)) compile(e, true);
  for (const spg::EdgeId e : g_->out_edges(s)) compile(e, false);

  // The candidate-independent half of the quotient shift: s's edges leave
  // `from` once, re-added after the batch.
  for (const auto& be : batch_edges_) {
    if (be.other == from) continue;
    if (be.incoming) q_.remove_edge(be.other, from); else q_.remove_edge(from, be.other);
  }

  // Freeze the base: the predecessor cores the per-candidate cycle test
  // probes, and the detached quotient's reachability closure.
  batch_pred_ = util::DynBitset(static_cast<std::size_t>(cores));
  for (const auto& be : batch_edges_) {
    if (be.incoming) batch_pred_.set(static_cast<std::size_t>(be.other));
  }
  const bool base_acyclic = q_.acyclic();

  // Source-core work / mode are candidate-independent: pre-apply them.
  const double w = g_->stage(s).work;
  const auto kf = static_cast<std::size_t>(from);
  const double old_wf = ev_.core_work[kf];
  const std::size_t old_mf = m_.mode_of_core[kf];
  const double new_wf = old_wf - w;
  ev_.core_work[kf] = new_wf;
  m_.mode_of_core[kf] = downgraded_mode(new_wf, from);
  --stage_count_[kf];

  batch_scores_.resize(targets.size());
  for (std::size_t ci = 0; ci < targets.size(); ++ci) {
    const int t = targets[ci];
    const auto kt = static_cast<std::size_t>(t);

    const bool dag_ok = base_acyclic && batch_stays_acyclic(t);

    // Link replay, interleaved drop/add per edge like the scalar path.
    journal_links_.clear();
    if (++epoch_ == 0) {
      std::fill(link_epoch_.begin(), link_epoch_.end(), 0);
      epoch_ = 1;
    }
    for (const auto& be : batch_edges_) {
      for (auto d = be.drop_begin; d != be.drop_end; ++d) {
        const auto& op = batch_drops_[d];
        touch_link(op.link);
        const auto idx = static_cast<std::size_t>(op.link);
        ev_.link_load[idx] -= op.bytes;
        if (--link_paths_[idx] == 0) ev_.link_load[idx] = 0.0;
      }
      if (be.other == t) continue;
      if (be.incoming) {
        add_edge_route(be.other, t, be.bytes, /*journal=*/true);
      } else {
        add_edge_route(t, be.other, be.bytes, /*journal=*/true);
      }
    }

    const double old_wt = ev_.core_work[kt];
    const std::size_t old_mt = m_.mode_of_core[kt];
    ev_.core_work[kt] = old_wt + w;
    ++stage_count_[kt];
    m_.mode_of_core[kt] = downgraded_mode(old_wt + w, t);

    reset_scalars(batch_ev_);
    batch_ev_.dag_partition_ok = dag_ok;
    aggregate_scalars(batch_ev_, m_.mode_of_core);
    to_score(batch_ev_, batch_scores_[ci]);

    ev_.core_work[kt] = old_wt;
    --stage_count_[kt];
    m_.mode_of_core[kt] = old_mt;
    for (const auto& old : journal_links_) {
      ev_.link_load[static_cast<std::size_t>(old.index)] = old.load;
      link_paths_[static_cast<std::size_t>(old.index)] = old.paths;
    }
  }

  // Restore the bound state exactly.
  ev_.core_work[kf] = old_wf;
  m_.mode_of_core[kf] = old_mf;
  ++stage_count_[kf];
  for (const auto& be : batch_edges_) {
    if (be.other == from) continue;
    if (be.incoming) q_.add_edge(be.other, from); else q_.add_edge(from, be.other);
  }
  return batch_scores_;
}

Evaluation evaluate(const spg::Spg& g, const cmp::Platform& p, const Mapping& m,
                    double T) {
  Evaluator ev(g, p, T);
  return ev.evaluate_full(m);
}

}  // namespace spgcmp::mapping
