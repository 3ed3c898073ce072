#include "cliquemap/loccache.h"

#include <algorithm>

namespace cm::cliquemap {

const CachedLocation* LocationCache::Lookup(const Hash128& key,
                                            sim::Time now) {
  const CachedLocation* loc = map_.MoveToFront(key);
  if (loc == nullptr) {
    stats_.misses++;
    return nullptr;
  }
  if (loc->expires_at != 0 && now >= loc->expires_at) {
    map_.Erase(key);
    stats_.expirations++;
    stats_.misses++;
    return nullptr;
  }
  stats_.hits++;
  return loc;
}

void LocationCache::Insert(const Hash128& key, const CachedLocation& loc) {
  if (capacity_ == 0) return;
  const size_t before = map_.size();
  map_.Put(key, loc);
  if (map_.size() == before) return;  // overwrote a live entry
  stats_.insertions++;
  while (map_.size() > capacity_) {
    const Hash128 lru = map_.Back();
    map_.Erase(lru);
    stats_.evictions++;
  }
}

void LocationCache::RaiseVersionFloor(const Hash128& key,
                                      const VersionNumber& version) {
  CachedLocation* loc = map_.Find(key);
  if (loc != nullptr && loc->version < version) loc->version = version;
}

bool LocationCache::Invalidate(const Hash128& key) {
  if (!map_.Erase(key)) return false;
  stats_.invalidations++;
  return true;
}

size_t LocationCache::InvalidateShard(uint32_t shard) {
  const size_t dropped = map_.EraseIf(
      [shard](const Hash128&, const CachedLocation& loc) {
        return loc.shard == shard;
      });
  stats_.invalidations += dropped;
  return dropped;
}

size_t LocationCache::Flush() {
  const size_t dropped = map_.size();
  map_.Clear();
  stats_.invalidations += dropped;
  return dropped;
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
