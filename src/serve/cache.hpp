#pragma once

// Size-bounded LRU memo cache of rendered solve reports.
//
// Keys are full canonical keys (serve/canonical.hpp) — exact strings, so
// a hit is a proof of problem identity, not a hash gamble.  Values are the
// compact JSON report payloads exactly as first rendered, so a hit is
// served byte-identically to the cold solve without re-serialization.
// The cache is mutex-guarded: the daemon's pool workers look up and insert
// concurrently, and the counters feed the summary/bench cells.

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/thread_annotations.hpp"

namespace spgcmp::serve {

class MemoCache {
 public:
  /// `capacity` bounds the number of retained entries; 0 disables caching
  /// (every lookup misses, inserts are dropped).
  explicit MemoCache(std::size_t capacity) : capacity_(capacity) {}

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };

  /// The cached payload for `key`, bumping it to most-recently-used;
  /// counts a hit or a miss.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key)
      SPGCMP_EXCLUDES(mutex_);

  /// Insert (or refresh) a payload, evicting the least-recently-used
  /// entry when over capacity.
  void insert(const std::string& key, std::string payload)
      SPGCMP_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const SPGCMP_EXCLUDES(mutex_);

 private:
  using Entry = std::pair<std::string, std::string>;  // key, payload

  mutable util::Mutex mutex_;
  const std::size_t capacity_;  // immutable after construction, unguarded
  std::list<Entry> lru_ SPGCMP_GUARDED_BY(mutex_);  // front = most recent
  // Keys are views of the list's own keys (list nodes never move), so a
  // canonical key, often several kB, is held once per entry.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_
      SPGCMP_GUARDED_BY(mutex_);
  std::uint64_t hits_ SPGCMP_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ SPGCMP_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ SPGCMP_GUARDED_BY(mutex_) = 0;
};

}  // namespace spgcmp::serve
