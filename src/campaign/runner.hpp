#pragma once

// Sweep expansion and shard execution.
//
// A SweepSpec expands into a SweepPlan: a deterministic, ordered list of
// instance tasks (each carrying its own seed, so which shard or thread runs
// it is irrelevant) cut into fixed-size shards.  Shards are the unit of
// persistence and resume: the service feeds them in order to
// harness::run_pipeline as batches, appends each finished shard to the
// campaign's JSONL log, and a resumed campaign simply skips shard indices
// already on disk.  The one-shot path (bench_run_all) feeds whole plans to
// the same pipeline, one batch per sweep; run_all is its one-batch case.
//
// Results are carried as InstanceResult — the raw per-heuristic outcome
// (retained period, energy, success) of one instance.  Raw energies rather
// than normalized values are persisted because every derived metric
// (E/Emin, mean 1/E) is recomputed from them by InstanceResult itself, so
// a merge over restored doubles is bit-identical to an in-memory one-shot
// run.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/spec.hpp"
#include "cmp/cmp.hpp"
#include "harness/sweep_engine.hpp"
#include "solve/registry.hpp"

namespace spgcmp::campaign {

/// The solver set a sweep runs: its `heuristics` subset when given, the
/// paper set otherwise.  Throws solve::SolverError on invalid specs.
[[nodiscard]] solve::SolverSet sweep_solvers(const SweepSpec& spec);

/// Display names of sweep_solvers(spec), in report order.
[[nodiscard]] std::vector<std::string> sweep_solver_names(const SweepSpec& spec);

/// Raw outcome of one instance (one period-search campaign).
struct InstanceResult {
  double period = 0.0;                ///< retained period bound
  std::vector<double> energy;         ///< per heuristic; raw J, 0 on failure
  std::vector<std::uint8_t> success;  ///< per heuristic

  /// Minimum energy among successful heuristics; 0 when all failed.
  [[nodiscard]] double best_energy() const;
  /// Energy of heuristic h divided by best_energy() (E/Emin, Figures 8/9);
  /// 0 when h failed.
  [[nodiscard]] double normalized_energy(std::size_t h) const;
  /// best_energy() / energy(h) — the "1/E" normalization of Figs 10-13.
  [[nodiscard]] double normalized_inverse_energy(std::size_t h) const;
};

/// Compress a finished campaign into its persisted form.
[[nodiscard]] InstanceResult summarize(const harness::Campaign& c);

/// Deterministic seed of workload `w` of a random sweep, derived from
/// (n, elevation, ccr bucket, index) so any re-run — at any thread count,
/// elevation subset or replication count — sees identical workloads.
[[nodiscard]] std::uint64_t random_workload_seed(std::uint64_t seed_base,
                                                 std::size_t n, int y, double ccr,
                                                 std::size_t w);

/// A fully-expanded sweep: platform, ordered instance tasks, shard grid.
class SweepPlan {
 public:
  SweepPlan(SweepSpec spec, const std::string& topology);

  [[nodiscard]] const SweepSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& topology() const noexcept { return topology_; }
  [[nodiscard]] const cmp::Platform& platform() const noexcept { return platform_; }
  /// The resolved solver set every shard of this plan runs.
  [[nodiscard]] const solve::SolverSet& solvers() const noexcept {
    return solvers_;
  }

  [[nodiscard]] std::size_t instance_count() const noexcept { return tasks_.size(); }
  [[nodiscard]] std::size_t shard_size() const noexcept { return shard_size_; }
  [[nodiscard]] std::size_t shard_count() const noexcept;
  /// Instance range [first, last) of one shard.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t shard) const noexcept;

  /// Instances [first, last) as one pipeline batch: each result is stored
  /// by index, and `done` receives them in instance order once all have
  /// run.  The plan must outlive the batch.
  [[nodiscard]] harness::Batch batch(
      std::size_t first, std::size_t last,
      std::function<void(std::vector<InstanceResult>)> done) const;

  /// Execute every instance as one batch on `threads` workers.
  [[nodiscard]] std::vector<InstanceResult> run_all(std::size_t threads) const;

 private:
  SweepSpec spec_;
  std::string topology_;
  cmp::Platform platform_;
  solve::SolverSet solvers_;
  std::vector<harness::GeneratedTask> tasks_;
  std::size_t shard_size_;
};

/// Service default shard size (instances per shard).
inline constexpr std::size_t kDefaultShardSize = 16;

}  // namespace spgcmp::campaign
