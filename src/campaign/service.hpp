#pragma once

// The campaign service: a long-running, resumable sweep driver.
//
// run() expands every sweep of the spec into deterministic shards and
// feeds the pending ones, in (sweep, shard) order, to one
// harness::run_pipeline: a worker that runs out of instances opens the next
// shard while the others finish the open ones, so no worker waits at a
// shard boundary.  Finished shards are appended to the store's JSONL log in
// the order they opened, and a manifest is checkpointed every few.
// Because shards are deterministic and persisted with full-precision
// doubles, a campaign killed at any point resumes with zero re-execution
// of completed shards and merges to byte-identical BENCH_*.json output —
// at any thread count.
//
// merge() folds the shard log back into the BENCH_<name>.json documents the
// one-shot bench_run_all emits, plus the spec's derived failure tables.

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/spec.hpp"
#include "campaign/store.hpp"

namespace spgcmp::campaign {

struct ServiceOptions {
  std::size_t threads = 0;  ///< sweep threads; 0 = hardware concurrency
  /// Open at most this many *new* shards (0 = no limit); every opened shard
  /// runs and persists.  Used by tests and the CI smoke to simulate a
  /// killed campaign, and by batch schedulers to run a campaign in
  /// fixed-size quanta.
  std::size_t max_shards = 0;
  /// Manifest refresh cadence in persisted shards; 0 = only the final
  /// manifest.
  std::size_t checkpoint_every = 8;
  /// Optional progress stream: one line as each shard opens, a summary at
  /// the end.
  std::ostream* log = nullptr;
  /// Cooperative stop flag (util::stop_signal's, or a test's atomic),
  /// polled as each shard would open: once raised, no shard opens, the open
  /// ones finish and are persisted, the manifest is checkpointed, and run()
  /// returns with `interrupted` set — the graceful-pause path behind
  /// SIGINT/SIGTERM.
  const std::atomic<bool>* stop = nullptr;
  /// Multi-worker scale-out: a non-empty worker id makes this run claim
  /// shards through per-shard lease files (campaign/lease.hpp) so N
  /// processes can share one campaign directory, and routes its shard
  /// records to <dir>/shards-<worker>.jsonl.  A lease is claimed as its
  /// shard opens, never ahead, and released once the shard is persisted.  Results merge
  /// byte-identical to a single-process run.  Empty = classic
  /// single-worker execution, no leases.
  std::string worker;
  /// Lease staleness horizon: a lease not re-stamped for this long (its
  /// worker crashed) is reclaimed by whoever finds it next.
  double lease_ttl = 30.0;
};

/// What one run() call did.
struct RunSummary {
  std::size_t shards_total = 0;
  std::size_t shards_skipped = 0;   ///< already complete when run() started
  std::size_t shards_executed = 0;  ///< newly executed by this call
  bool complete = false;            ///< every shard of the campaign is done
  bool interrupted = false;         ///< the stop flag ended the run early
};

/// Per-sweep progress for status reporting.
struct SweepStatus {
  std::string name;
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
  std::size_t instances_total = 0;
  /// Wall-clock seconds summed over this sweep's *timed* done shards
  /// (records written before shard timing existed don't contribute).
  double wall_seconds = 0.0;
  std::size_t shards_timed = 0;
  /// Pending shards currently claimed by a live worker's lease.
  std::size_t shards_leased = 0;
};

struct StatusReport {
  std::string campaign;
  std::vector<SweepStatus> sweeps;
  [[nodiscard]] std::size_t shards_done() const noexcept;
  [[nodiscard]] std::size_t shards_total() const noexcept;
  [[nodiscard]] std::size_t shards_leased() const noexcept;
  [[nodiscard]] double wall_seconds() const noexcept;
  [[nodiscard]] std::size_t shards_timed() const noexcept;
  /// Mean timed-shard throughput; 0 when nothing is timed yet.
  [[nodiscard]] double shards_per_second() const noexcept;
  /// Remaining shards over shards_per_second(); negative when unknown
  /// (no timed shards to extrapolate from).
  [[nodiscard]] double eta_seconds() const noexcept;
};

/// Render a status report as one stable JSON document (the `status --json`
/// output; golden-tested, so field set and order are part of the tool's
/// contract).  Unknown throughput/ETA render as null.
void render_status_json(const StatusReport& rep, std::ostream& os);

class CampaignService {
 public:
  /// Bind a spec to a campaign directory, initializing the store (throws
  /// if the directory already holds a different spec).
  CampaignService(CampaignSpec spec, const std::string& dir);

  /// Re-open an initialized campaign directory (the resume path: the spec
  /// comes from the store).
  [[nodiscard]] static CampaignService open(const std::string& dir);

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const CampaignStore& store() const noexcept { return store_; }

  /// Execute pending shards, opened in deterministic order; see
  /// ServiceOptions.  With a worker id set, shards are claimed through
  /// leases and the run keeps rescanning until the campaign completes or
  /// only other live workers' shards remain.
  RunSummary run(const ServiceOptions& opt);

  /// Progress snapshot; `lease_ttl` bounds which leases still count as
  /// live claims for shards_leased.
  [[nodiscard]] StatusReport status(double lease_ttl = 30.0) const;

  /// Merge completed shards into BENCH_*.json files under `out_dir`
  /// (sweep reports first, then derived tables, in spec order).  Throws if
  /// any shard is missing, naming the first gap.  Returns written paths.
  std::vector<std::string> merge(const std::string& out_dir) const;

  /// Build the merged reports in memory (shared by merge and tests).
  [[nodiscard]] std::vector<harness::BenchReport> merged_reports() const;

 private:
  [[nodiscard]] std::vector<SweepPlan> plans() const;
  RunSummary run_single(const ServiceOptions& opt);
  RunSummary run_leased(const ServiceOptions& opt);

  CampaignSpec spec_;
  CampaignStore store_;
};

}  // namespace spgcmp::campaign
