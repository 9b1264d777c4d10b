#pragma once

// Parallel experiment-sweep runner.
//
// Every table and figure of Section 6.2 is an aggregation over independent
// (workload, platform, period-search) campaigns.  They run through one
// instance pipeline, run_pipeline, with three guarantees:
//
//   1. Deterministic per-instance seeding: task t draws all randomness from
//      Rng(t.seed) (instance_seed derives such seeds), never from shared
//      generator state, so which thread runs it is irrelevant.
//   2. Thread-count independence: results are stored by task index and
//      handed back batch by batch in the order the batches opened, so a
//      1-thread and an 8-thread run produce byte-identical output.
//   3. Structured emission: a BenchReport collects named cells and writes a
//      BENCH_<name>.json document for downstream tooling.
//
// The pipeline has no barrier between batches: `threads` workers pull
// instances from one queue, and a worker that finds it empty opens the
// next batch (the campaign service's next pending shard, bench_run_all's
// next sweep) while the others finish the batches already open.  Instances
// still start in batch order, so only idle time moves, never solver work.
//
// campaign::SweepPlan expands a sweep spec into tasks and cuts them into
// batches; campaign::sweep_report folds its results into BenchReports.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "util/rng.hpp"

namespace spgcmp::harness {

/// Deterministic seed for instance `index` of stream `base` (splitmix64
/// over the pair; avalanche on both inputs so adjacent indices decorrelate).
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t base,
                                          std::uint64_t index) noexcept;

/// The number of worker threads a sweep will actually run on: `threads`
/// itself when positive, hardware concurrency (at least 1) when 0.  This is
/// the single normalization point for every `--threads` flag.
[[nodiscard]] std::size_t normalize_threads(std::size_t threads) noexcept;

/// One explicitly-seeded instance of a sweep: its workload is
/// make(Rng(seed)).  Seeds are fixed at expansion time, so they stay
/// stable when a grid is subset or cut into shards.
struct GeneratedTask {
  std::uint64_t seed = 0;
  std::function<spg::Spg(util::Rng&)> make;
};

/// Run one task's period-search campaign on platform `p` with fresh solvers
/// from `solvers`, under a `sweep.instance` span carrying `index`.
[[nodiscard]] Campaign run_task(const GeneratedTask& task, std::size_t index,
                                const cmp::Platform& p,
                                const solve::SolverSet& solvers);

/// One batch of independent instances for run_pipeline.
struct Batch {
  std::size_t size = 0;  ///< instances in the batch; 0 is allowed
  /// Run instance i, 0 <= i < size: called once per i, on any worker, in
  /// parallel with other instances (store the result by index).
  std::function<void(std::size_t)> run;
  /// Called once every instance has run and every batch opened earlier is
  /// done: batches finish in the order they opened.  Runs on a worker,
  /// never concurrently with another batch's `done`, but possibly while
  /// other batches' instances run or the next batch opens.
  std::function<void()> done;
};

/// Opens the next batch, or says there is none.  Called by the worker that
/// finds every opened instance taken, never concurrently with itself;
/// after it returns std::nullopt it is not called again.
using BatchSource = std::function<std::optional<Batch>()>;

/// Run batches from `next` on `threads` workers (0 = hardware concurrency;
/// the calling thread is one of them) until `next` has none left and every
/// opened batch is done.  The first exception thrown by an instance, by
/// `next` or by `done` stops the pipeline: no batch opens or finishes after
/// it, instances already running complete, and it is rethrown here.
void run_pipeline(const BatchSource& next, std::size_t threads);

/// run_pipeline over a fixed list of batches, opened in list order.
void run_pipeline(std::vector<Batch> batches, std::size_t threads);

// ------------------------------------------------------------------------
// Structured bench output (BENCH_*.json).

/// One result cell: a labelled row of per-heuristic values.
struct BenchCell {
  /// Ordered label pairs identifying the cell, e.g. {{"ccr","10"},
  /// {"elevation","5"}} or {{"app","FMRadio"},{"ccr","original"}}.
  std::vector<std::pair<std::string, std::string>> labels;
  double period = 0.0;                 ///< retained period; 0 when averaged
  std::vector<double> values;          ///< per heuristic (metric in `metric`)
  std::vector<std::size_t> failures;   ///< per heuristic
  std::size_t workloads = 1;           ///< instances aggregated into this cell
};

/// A full bench result destined for BENCH_<name>.json.
struct BenchReport {
  std::string name;                    ///< e.g. "fig8_streamit_4x4"
  std::string metric;                  ///< e.g. "normalized_energy"
  std::vector<std::pair<std::string, std::string>> meta;  ///< grid, apps, ...
  std::vector<std::string> heuristics;
  std::vector<BenchCell> cells;

  /// Serialize as a stable, pretty-printed JSON document.
  void write_json(std::ostream& os) const;

  /// Write to `<dir>/BENCH_<name>.json`; returns the path written.
  [[nodiscard]] std::string write_json_file(const std::string& dir) const;
};

}  // namespace spgcmp::harness
