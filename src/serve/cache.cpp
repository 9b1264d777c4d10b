#include "serve/cache.hpp"

namespace spgcmp::serve {

std::optional<std::string> MemoCache::lookup(const std::string& key) {
  const util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void MemoCache::insert(const std::string& key, std::string payload) {
  if (capacity_ == 0) return;
  const util::MutexLock lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Concurrent misses on the same key may both insert; the payloads are
    // identical by construction, keep the first and refresh recency.
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(payload));
  index_.emplace(lru_.front().first, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
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
