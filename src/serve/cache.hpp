#pragma once

// Size-bounded LRU memo cache of rendered solve reports.
//
// Keys are compact exact keys (serve/canonical.hpp compact_key) — exact
// strings, so a hit is a proof of problem identity, not a hash gamble.
// Values are the compact JSON report payloads exactly as first rendered,
// so a hit is served byte-identically to the cold solve without
// re-serialization.  Each entry also stores the digest of its text key
// (canonical_key's fnv1a64, the response's "key"), so a hit answers
// without formatting that text.
//
// Each entry may hold one alias: the text of a request document that
// named it (serve/protocol.hpp request_alias), again exact, not a digest.
// Aliases are indexed like keys, by views into their entries: evicting an
// entry drops its alias, a new alias replaces the entry's old one, and
// giving an alias to a second entry takes it from the first — so the
// alias index never holds more than one alias per entry.  find_alias
// counts nothing and leaves recency alone: the hit and miss counters see
// exactly one counted lookup per request, whichever way it was keyed.
//
// The cache is mutex-guarded: the daemon's pool workers look up and insert
// concurrently, and the counters feed the summary/bench cells.

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

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

  /// A counted lookup's answer.
  struct Hit {
    std::string payload;
    std::uint64_t digest = 0;  ///< as inserted
  };

  /// What an alias names.
  struct Aliased {
    std::string key;
    std::uint64_t digest = 0;
  };

  /// The cached payload for `key`, bumping it to most-recently-used;
  /// counts a hit or a miss.
  [[nodiscard]] std::optional<Hit> lookup(const std::string& key)
      SPGCMP_EXCLUDES(mutex_);

  /// Insert (or refresh) a payload with its text key's digest, evicting
  /// the least-recently-used entry when over capacity.
  void insert(const std::string& key, std::string payload,
              std::uint64_t digest = 0) SPGCMP_EXCLUDES(mutex_);

  /// The key and digest of the entry holding `alias`; counts nothing and
  /// leaves recency alone.
  [[nodiscard]] std::optional<Aliased> find_alias(std::string_view alias) const
      SPGCMP_EXCLUDES(mutex_);

  /// Make `alias` the alias of `key`'s entry (nothing when `key` is absent
  /// or `alias` empty).  Counts nothing and leaves recency alone.
  void set_alias(const std::string& key, std::string alias)
      SPGCMP_EXCLUDES(mutex_);

  [[nodiscard]] Stats stats() const SPGCMP_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::string key;
    std::string payload;
    std::uint64_t digest = 0;
    std::string alias;  ///< empty: none
  };
  using Index = std::unordered_map<std::string_view, std::list<Entry>::iterator>;

  mutable util::Mutex mutex_;
  const std::size_t capacity_;  // immutable after construction, unguarded
  std::list<Entry> lru_ SPGCMP_GUARDED_BY(mutex_);  // front = most recent
  // Both indexes view their entries' own strings (list nodes never move),
  // so a key or alias is held once per entry.
  Index index_ SPGCMP_GUARDED_BY(mutex_);
  Index aliases_ SPGCMP_GUARDED_BY(mutex_);
  std::uint64_t hits_ SPGCMP_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ SPGCMP_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ SPGCMP_GUARDED_BY(mutex_) = 0;
};

}  // namespace spgcmp::serve
