#include "cliquemap/loccache.h"

#include <algorithm>

namespace cm::cliquemap {

const CachedLocation* LocationCache::Lookup(const Hash128& key,
                                            sim::Time now) {
  auto it = map_.find(key);
  if (it == map_.end()) {
    stats_.misses++;
    return nullptr;
  }
  if (it->second->loc.expires_at != 0 && now >= it->second->loc.expires_at) {
    lru_.erase(it->second);
    map_.erase(it);
    stats_.expirations++;
    stats_.misses++;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  stats_.hits++;
  return &it->second->loc;
}

void LocationCache::Insert(const Hash128& key, const CachedLocation& loc) {
  if (capacity_ == 0) return;
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->loc = loc;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{key, loc});
  map_[key] = lru_.begin();
  stats_.insertions++;
  EvictToCapacity();
}

void LocationCache::RaiseVersionFloor(const Hash128& key,
                                      const VersionNumber& version) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  if (it->second->loc.version < version) it->second->loc.version = version;
}

bool LocationCache::Invalidate(const Hash128& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return false;
  lru_.erase(it->second);
  map_.erase(it);
  stats_.invalidations++;
  return true;
}

size_t LocationCache::InvalidateShard(uint32_t shard) {
  size_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->loc.shard == shard) {
      map_.erase(it->key);
      it = lru_.erase(it);
      dropped++;
    } else {
      ++it;
    }
  }
  stats_.invalidations += dropped;
  return dropped;
}

size_t LocationCache::Flush() {
  const size_t dropped = map_.size();
  lru_.clear();
  map_.clear();
  stats_.invalidations += dropped;
  return dropped;
}

void LocationCache::EvictToCapacity() {
  while (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
    stats_.evictions++;
  }
}

SpeculationGovernor::SpeculationGovernor() : SpeculationGovernor(Options{}) {}

SpeculationGovernor::SpeculationGovernor(Options options)
    : options_(options),
      window_(static_cast<size_t>(std::max(1, options.window_samples)), false) {
}

void SpeculationGovernor::Record(bool success, sim::Time now) {
  attempts_++;
  if (success) successes_++;

  const int cap = static_cast<int>(window_.size());
  if (window_count_ == cap) {
    // Sliding: retire the outcome this slot is about to overwrite.
    if (!window_[window_pos_]) window_failures_--;
  } else {
    window_count_++;
  }
  window_[window_pos_] = success;
  if (!success) window_failures_++;
  window_pos_ = (window_pos_ + 1) % cap;

  if (window_count_ >= options_.min_samples &&
      double(window_failures_) >=
          options_.disable_failure_ratio * double(window_count_)) {
    disabled_until_ = now + options_.cooldown;
    trips_++;
    // Re-arm with a fresh window so the post-cooldown decision reflects
    // post-churn outcomes only.
    std::fill(window_.begin(), window_.end(), false);
    window_pos_ = window_count_ = window_failures_ = 0;
  }
}

}  // namespace cm::cliquemap
