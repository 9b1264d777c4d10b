#pragma once

// On-disk state of one campaign directory.
//
//   <dir>/spec.campaign        the campaign spec (written once at init —
//                              atomically, so concurrent worker inits are
//                              safe; resume re-parses it and refuses a
//                              mismatching --spec)
//   <dir>/shards.jsonl         append-only log: one compact JSON record
//                              per completed shard, flushed per record
//   <dir>/shards-<worker>.jsonl   the same, one per multi-worker campaign
//                              worker (set_worker); loaders read all logs
//   <dir>/MANIFEST.json        periodic checkpoint summary (progress
//                              counters); advisory — the JSONL logs are
//                              the source of truth, so a stale manifest
//                              after a kill is harmless
//   <dir>/leases/              per-shard worker leases (campaign/lease.hpp)
//
// The store knows nothing about scheduling; it only persists and restores
// (sweep, shard) -> results records and the spec text.  Multi-worker
// campaigns give each worker its own shard log so appends never interleave
// within a record; load_shards() folds all logs together, keeping the
// first record per shard (every record is a deterministic replay of the
// same instances, so which one wins is immaterial).
//
// Thread safety: a CampaignStore holds no mutable shared state and no
// locks — durability and mutual exclusion are delegated to the filesystem
// (atomic rename for spec/manifest, O_APPEND per-worker logs), so there is
// nothing for the thread-safety analysis to guard here.  Each worker
// thread/process uses its own store handle.

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace spgcmp::campaign {

class CampaignStore {
 public:
  explicit CampaignStore(std::string dir);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] std::string spec_path() const;
  [[nodiscard]] std::string shards_path() const;
  [[nodiscard]] std::string manifest_path() const;

  /// Route this store's appends to <dir>/shards-<worker>.jsonl instead of
  /// the shared shards.jsonl (multi-worker campaigns: one log per worker,
  /// so concurrent appends never share a file).  Empty restores the
  /// single-worker path.  Loading always reads every log.
  void set_worker(const std::string& worker);

  /// True when the directory holds an initialized campaign (spec present).
  [[nodiscard]] bool initialized() const;

  /// Create the directory and write the spec.  Throws if a different spec
  /// is already present (a campaign directory is bound to one spec).
  void initialize(const CampaignSpec& spec);

  /// Re-parse the stored spec.
  [[nodiscard]] CampaignSpec load_spec() const;

  /// One persisted shard: its instance results plus wall-clock seconds
  /// (steady clock) from the previous record its run persisted, or the
  /// run's start, to this one, so the records of one run add up to its
  /// elapsed time however its shards overlapped.  `wall_seconds < 0` means
  /// the record predates shard timing — the field is optional on read so
  /// logs written before it existed stay loadable.
  struct ShardRecord {
    std::vector<InstanceResult> results;
    double wall_seconds = -1.0;
  };

  /// Results of completed shards, keyed by (sweep name, shard index).
  /// Tolerates a truncated final JSONL record (mid-write kill); a record
  /// for the same shard appearing twice keeps the first (both are
  /// deterministic replays of the same instances).
  using ShardMap = std::map<std::pair<std::string, std::size_t>, ShardRecord>;
  [[nodiscard]] ShardMap load_shards() const;

  /// Append one completed shard and flush.  `wall_seconds < 0` omits the
  /// timing field.
  void append_shard(const std::string& sweep, std::size_t shard,
                    const std::vector<InstanceResult>& results,
                    double wall_seconds = -1.0);

  /// Checkpoint manifest.
  struct Manifest {
    std::string campaign;
    std::size_t shards_total = 0;
    std::size_t shards_done = 0;
    /// Sum of wall_seconds over timed done shards; optional on read (old
    /// manifests report 0) so `status` can estimate throughput cheaply.
    double wall_seconds_done = 0.0;
  };
  /// Written atomically (temp file + rename) so readers never see a torn
  /// manifest.
  void write_manifest(const Manifest& m) const;
  [[nodiscard]] std::optional<Manifest> read_manifest() const;

 private:
  /// The log append_shard writes to (worker log when a worker is set).
  [[nodiscard]] std::string append_path() const;

  /// Fold one JSONL shard log into `shards` (keep-first per shard).
  void load_shard_log(const std::string& path, ShardMap& shards) const;

  std::string dir_;
  std::string worker_;
};

}  // namespace spgcmp::campaign
