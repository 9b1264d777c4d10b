#pragma once

// Reusable, arena-based mapping evaluator.
//
// The free function mapping::evaluate() rebuilds every workspace it needs
// (per-core work, per-link loads, the cluster quotient) on each call, which
// makes it expensive inside heuristic inner loops (refine's hill climber,
// the random heuristic's trials, exact enumeration).  An Evaluator owns
// those workspaces:
//
//   * per-core work / stage-count / per-link load arenas, allocated once
//     and reused across calls;
//   * the quotient DAG as flat index vectors (CSR adjacency + in-degrees
//     keyed by core index) — no std::map / std::set;
//   * the platform topology's precomputed routing tables, so default routes
//     are spans instead of freshly built std::vectors.
//
// Scoring paths:
//
//   evaluate_full(m)        arbitrary mapping with explicit paths; validates
//                           structure and produces results identical to
//                           mapping::evaluate().
//   evaluate_placement(..)  placement + modes with *implicit* topology
//                           default routes; skips path materialization and
//                           validation entirely (routes are valid by
//                           construction).
//   bind / evaluate_move /  incremental protocol for single-stage moves:
//   commit_move             only the two affected cores and the moved
//                           stage's incident-edge routes are touched, then
//                           the cheap O(cores + links + edges) scalar pass
//                           re-aggregates.  evaluate_move leaves the bound
//                           state untouched until commit_move.
//   evaluate_move_batch     evaluate_move for every target core of one
//                           stage in a single pass, bit for bit.
//   apply_move / refresh    several moves of the bound state, aggregated
//                           once.
//
// Move evaluations return scalar results only (their `core_work` /
// `link_load` vectors stay empty); full evaluations expose the arenas.
// References returned by any method are invalidated by the next call.
// Evaluators are cheap to construct (no routing-table build; tables live in
// the Topology) but are not thread-safe; use one per thread.

#include <atomic>
#include <cstdint>
#include <vector>

#include "mapping/mapping.hpp"

namespace spgcmp::mapping {

/// Evaluator call counts by path: the value type of EvalCounterSink::totals().
struct EvalCounters {
  std::uint64_t full = 0;         ///< evaluate_full / bind / free evaluate()
  std::uint64_t placement = 0;    ///< evaluate_placement
  std::uint64_t incremental = 0;  ///< evaluate_move / refresh
  std::uint64_t batch = 0;        ///< candidates scored by evaluate_move_batch
};

/// Explicit per-solve accumulation target.  solve::run installs one on the
/// calling thread for the duration of a solve (ScopedEvalSink); every
/// evaluator call on a thread with a sink installed counts into it.
/// The util thread-pool layers re-install the spawning thread's sink around
/// worker tasks (see util::register_thread_context), so a solver that fans
/// work out to a ThreadPool or parallel_for still attributes every
/// evaluation to its own solve.
struct EvalCounterSink {
  std::atomic<std::uint64_t> full{0};
  std::atomic<std::uint64_t> placement{0};
  std::atomic<std::uint64_t> incremental{0};
  std::atomic<std::uint64_t> batch{0};

  [[nodiscard]] EvalCounters totals() const noexcept {
    return EvalCounters{full.load(std::memory_order_relaxed),
                        placement.load(std::memory_order_relaxed),
                        incremental.load(std::memory_order_relaxed),
                        batch.load(std::memory_order_relaxed)};
  }
};

/// The sink installed on the calling thread, or null when none is active.
[[nodiscard]] EvalCounterSink* eval_sink() noexcept;

/// RAII installation of a sink on the calling thread; restores the previous
/// sink (nesting solves is legal — the innermost sink collects, and its
/// scope exit does not fold counts upward; each solve::run owns its own).
class ScopedEvalSink {
 public:
  explicit ScopedEvalSink(EvalCounterSink* sink) noexcept;
  ~ScopedEvalSink();
  ScopedEvalSink(const ScopedEvalSink&) = delete;
  ScopedEvalSink& operator=(const ScopedEvalSink&) = delete;

 private:
  EvalCounterSink* prev_;
};

/// Scalar result of one batched candidate: the scalar subset of Evaluation.
/// Batched paths never produce structural errors — routes are implicit
/// topology defaults, valid by construction — so there is no error string.
struct BatchScore {
  bool dag_partition_ok = false;
  bool meets_period = false;
  double period = 0.0;
  double max_core_time = 0.0;
  double max_link_time = 0.0;
  double comp_energy = 0.0;
  double comm_energy = 0.0;
  double energy = 0.0;
  int active_cores = 0;

  [[nodiscard]] bool valid() const noexcept {
    return dag_partition_ok && meets_period;
  }
};

class Evaluator {
 public:
  /// Evaluate against period bound `T`; `g` and `p` must outlive the
  /// Evaluator.
  Evaluator(const spg::Spg& g, const cmp::Platform& p, double T);

  [[nodiscard]] double period_bound() const noexcept { return T_; }

  /// Full evaluation of an arbitrary mapping (explicit paths, validated).
  /// Invalidates any previous bind().
  const Evaluation& evaluate_full(const Mapping& m);

  /// Full evaluation of a placement under implicit topology-default routes:
  /// `core_of` maps stages to cores, `mode_of_core` is indexed by core.
  /// No paths are built or checked.  Invalidates any previous bind().
  const Evaluation& evaluate_placement(const std::vector<int>& core_of,
                                       const std::vector<std::size_t>& mode_of_core);

  // --- incremental single-stage-move protocol ---------------------------

  /// Copy `m` as the bound state and fully evaluate it.  `m` must be
  /// structurally valid (Evaluation::error empty) for moves to be allowed.
  const Evaluation& bind(const Mapping& m);

  /// The bound mapping (with all committed moves applied).
  [[nodiscard]] const Mapping& mapping() const noexcept { return m_; }

  /// Evaluation of the bound mapping (updated by commit_move).
  [[nodiscard]] const Evaluation& current() const noexcept { return ev_; }

  /// Evaluate moving stage `s` to core `to` (its incident edges rerouted
  /// onto topology default routes, the two touched cores re-downgraded to
  /// their slowest feasible modes).  The bound state is left unchanged.
  const Evaluation& evaluate_move(spg::StageId s, int to);

  /// Apply the most recently evaluated move; returns the updated current
  /// evaluation.  Throws std::logic_error without a preceding
  /// evaluate_move.
  const Evaluation& commit_move();

  // --- batched move protocol --------------------------------------------
  //
  // Moving a whole cluster one stage at a time through evaluate_move /
  // commit_move pays one scalar re-aggregation per stage, with every
  // intermediate result discarded.  A batch applies each move to the
  // arenas and routes only, then aggregates once:
  //
  //   ev.apply_move(s0, c); ev.apply_move(s1, c); ...; ev.refresh();

  /// Apply a single-stage move to the bound state without re-aggregating:
  /// link loads, routes, stage counts and the placement are updated, but
  /// scalars, per-core work and modes stay stale until refresh().  Between
  /// apply_move and refresh only further apply_move calls are allowed
  /// (evaluate_move needs refreshed work/mode state).
  void apply_move(spg::StageId s, int to);

  /// Re-aggregate the bound state after a batch of apply_move calls:
  /// recomputes per-core work, re-downgrades *every* core to its slowest
  /// feasible mode (the invariant the move protocol maintains), and
  /// rebuilds the scalar evaluation.
  const Evaluation& refresh();

  // --- batched scoring --------------------------------------------------
  //
  // evaluate_move_batch scores every candidate core of ONE stage in a single
  // structure-of-arrays pass: incident-edge lists, bound-path drops and the
  // source core's work/mode are hoisted out of the per-candidate loop, so
  // each candidate costs O(deg + cores + links).  Scores are bit-identical
  // to evaluate_move: the aggregation runs through the same code on the
  // same arenas, and per-link sums replay the scalar operation order
  // exactly (FP addition is not associative, so the order is part of the
  // contract).  The returned reference is invalidated by the next batch
  // call on this Evaluator.

  /// Score moving bound stage `s` to each entry of `targets` (each distinct
  /// from its current core).  Element i is bit-identical to
  /// evaluate_move(s, targets[i]).  The bound state is untouched and no
  /// pending move is left behind — re-score the winner with evaluate_move
  /// to commit it.
  const std::vector<BatchScore>& evaluate_move_batch(
      spg::StageId s, const std::vector<int>& targets);

 private:
  const Evaluation& aggregate_scalars(Evaluation& out,
                                      const std::vector<std::size_t>& mode_of_core);
  /// Update the maintained quotient `q_` for stage `s` leaving core `from`
  /// for core `to` (reads only the *other* endpoint cores, so it is valid
  /// whichever of the two cores m_.core_of[s] currently names).  Reverting
  /// a shift is shift_quotient(s, to, from).
  void shift_quotient(spg::StageId s, int from, int to);
  void accumulate_work(const std::vector<int>& core_of);
  void touch_link(int index);
  [[nodiscard]] std::size_t downgraded_mode(double work, int core) const;
  // Shared link accounting of the move protocols.  `journal` records the
  // pre-change state for evaluate_move's rollback; apply_move changes the
  // bound state permanently and passes false.
  void drop_edge_path(spg::EdgeId e, bool journal);
  void add_edge_route(int a, int b, double bytes, bool journal);
  /// Rewrite the moved stage's incident edge paths to the topology default
  /// routes its links were charged with (m_.core_of[s] must already be `to`).
  void materialize_default_routes(spg::StageId s, int to);
  /// Whether placing the batched stage on core `t` keeps the quotient
  /// acyclic, given the acyclic frozen base closure (the stage's quotient
  /// edges detached) and its predecessor cores in batch_pred_.
  bool batch_stays_acyclic(int t);

  const spg::Spg* g_;
  const cmp::Platform* p_;
  double T_;

  Evaluation ev_;       ///< current result; its core_work/link_load are the arenas
  Evaluation move_ev_;  ///< scalar-only result of the last evaluate_move

  // Bound state.
  Mapping m_;
  bool bound_ = false;

  // Arenas.
  std::vector<int> stage_count_;       ///< stages per core
  std::vector<int> link_paths_;        ///< paths crossing each link; a link
                                       ///< whose count drains to 0 gets its
                                       ///< load reset to exactly 0.0, so
                                       ///< add/subtract deltas cannot leave
                                       ///< epsilon residue on idle links
  BitQuotient q_;                      ///< quotient of the last evaluated /
                                       ///< bound placement; maintained in
                                       ///< O(deg) by the move protocol
  std::vector<double> scale_;          ///< cached topology core_speed_scale
  double leak_energy_ = 0.0;           ///< cached leak_power() * T

  // Batch arenas.
  std::vector<BatchScore> batch_scores_;
  Evaluation batch_ev_;  ///< scalar scratch for aggregation
  /// One cached incident edge of the batched stage, in the order
  /// evaluate_move processes them (in-edges, then out-edges).
  struct BatchEdge {
    int other;        ///< core of the fixed endpoint
    bool incoming;    ///< true: other -> s, false: s -> other
    double bytes;
    std::uint32_t drop_begin, drop_end;  ///< span into batch_drops_
  };
  std::vector<BatchEdge> batch_edges_;
  /// Precompiled (link, bytes) drop operations replaying the bound paths of
  /// the incident edges.
  struct LinkOp {
    int link;
    double bytes;
  };
  std::vector<LinkOp> batch_drops_;
  /// Cores feeding the batched stage (its quotient predecessors), as a
  /// bitset probed against the base closure for the per-candidate cycle test.
  util::DynBitset batch_pred_;

  // Move journal / pending move.
  struct LinkDelta {
    int index;
    double load;
    int paths;
  };
  std::vector<std::uint32_t> link_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<LinkDelta> journal_links_;   ///< pre-move link state
  std::vector<LinkDelta> pending_links_;   ///< post-move link state
  bool have_pending_ = false;
  spg::StageId pending_stage_ = 0;
  int pending_from_ = 0;
  int pending_to_ = 0;
  double pending_work_from_ = 0.0;
  double pending_work_to_ = 0.0;
  std::size_t pending_mode_from_ = 0;
  std::size_t pending_mode_to_ = 0;
};

}  // namespace spgcmp::mapping
