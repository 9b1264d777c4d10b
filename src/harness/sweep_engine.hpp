#pragma once

// Parallel experiment-sweep runner.
//
// Every table and figure of Section 6.2 is an aggregation over independent
// (workload, platform, period-search) campaigns.  run_tasks batches those
// campaigns through util::ThreadPool with three guarantees:
//
//   1. Deterministic per-instance seeding: task t draws all randomness from
//      Rng(t.seed) (instance_seed derives such seeds), never from shared
//      generator state, so which thread runs it is irrelevant.
//   2. Thread-count independence: results are stored by task index, so a
//      1-thread and an 8-thread run produce byte-identical output.
//   3. Structured emission: a BenchReport collects named cells and writes a
//      BENCH_<name>.json document for downstream tooling.
//
// campaign::SweepPlan expands a sweep spec into tasks and is the one caller
// that schedules whole figures; campaign::sweep_report folds its results
// into BenchReports.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
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

/// Run the period-search campaign of tasks [first, last) on `threads`
/// workers (0 = hardware concurrency); result[0] is task `first`.  Each
/// instance gets fresh solvers from `solvers`.  Results are independent of
/// the thread count and of how a batch is cut into slices, which is what
/// lets a resumed campaign skip completed shards and still merge
/// byte-identically.
[[nodiscard]] std::vector<Campaign> run_tasks(const std::vector<GeneratedTask>& tasks,
                                              std::size_t first, std::size_t last,
                                              const cmp::Platform& p,
                                              const solve::SolverSet& solvers,
                                              std::size_t threads);

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
