#include "serve/cache.hpp"

#include <utility>

namespace spgcmp::serve {

std::optional<MemoCache::Hit> MemoCache::lookup(const std::string& key) {
  const util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return Hit{it->second->payload, it->second->digest};
}

void MemoCache::insert(const std::string& key, std::string payload,
                       std::uint64_t digest) {
  if (capacity_ == 0) return;
  const util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent misses on the same key may both insert; the payloads are
    // identical by construction, keep the first and refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(payload), digest, {}});
  index_.emplace(lru_.front().key, lru_.begin());
  while (lru_.size() > capacity_) {
    const Entry& victim = lru_.back();
    index_.erase(victim.key);
    if (!victim.alias.empty()) aliases_.erase(victim.alias);
    lru_.pop_back();
    ++evictions_;
  }
}

std::optional<MemoCache::Aliased> MemoCache::find_alias(
    std::string_view alias) const {
  const util::MutexLock lock(mutex_);
  const auto it = aliases_.find(alias);
  if (it == aliases_.end()) return std::nullopt;
  return Aliased{it->second->key, it->second->digest};
}

void MemoCache::set_alias(const std::string& key, std::string alias) {
  if (alias.empty()) return;
  const util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return;
  Entry& entry = *it->second;
  if (entry.alias == alias) return;
  if (const auto held = aliases_.find(alias); held != aliases_.end()) {
    Entry& other = *held->second;
    aliases_.erase(held);  // before the string it views changes
    other.alias.clear();
  }
  if (!entry.alias.empty()) aliases_.erase(entry.alias);
  entry.alias = std::move(alias);
  aliases_.emplace(entry.alias, it->second);
}

MemoCache::Stats MemoCache::stats() const {
  const util::MutexLock lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

}  // namespace spgcmp::serve
