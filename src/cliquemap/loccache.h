// Client-side location cache for the 1-RMA speculative GET path (ISSUE 9;
// Storm-style client location caching, arXiv:1902.02411).
//
// Every quorumed GET pays an index phase (SCAR or 2xR bucket reads) before
// the data read. For keys this client has already quorumed, the cache
// remembers where the DataEntry lived — (replica shard, Pointer,
// last-quorumed VersionNumber, config id) — so the next GET can issue ONE
// direct RMA data read at the cached pointer and validate the result
// end-to-end instead of re-quoruming the index:
//
//   * CRC32C over (KeyHash, Version, Key, Value) guards torn reads and
//     reused slots (a Set/eviction that recycled the slot for another key
//     fails the keyhash/full-key compare);
//   * version-monotonic acceptance (observed version >= cached quorumed
//     version) guarantees no client ever observes a version rollback
//     relative to state it previously quorumed;
//   * any mismatch invalidates the entry and falls through to the ordinary
//     quorum path, which re-populates the cache from the winning vote.
//
// The cache is bounded (LRU) and epoch-aware: config-generation bumps,
// membership-epoch changes, and resharding transitions flush affected
// shards (Client::RefreshConfig wires this through the ConfigWatcher).
// Misses and overflow-flagged buckets are never cached.
//
// A SpeculationGovernor rides alongside: a windowed failure-rate breaker
// that disables speculation for a cooldown when churn makes cached pointers
// mostly stale (each failed speculation costs one wasted RMA read before
// the quorum path runs).
#ifndef CM_CLIQUEMAP_LOCCACHE_H_
#define CM_CLIQUEMAP_LOCCACHE_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/recency_map.h"
#include "cliquemap/types.h"
#include "sim/time.h"

namespace cm::cliquemap {

// Where a key's DataEntry lived the last time this client quorumed it.
struct CachedLocation {
  uint32_t shard = 0;        // replica shard whose data region holds it
  Pointer pointer;           // region/offset/size of the DataEntry
  VersionNumber version;     // last-quorumed version: the monotonic floor
  uint32_t config_id = 0;    // shard config id when cached (revalidated)
  // Freshness lease: past this instant the entry is treated as a miss.
  // Without it, a key whose newer value lives elsewhere (the old slot is
  // freed but not clobbered) would validate — version == floor — and be
  // served stale forever. Only quorum-backed insertion renews the lease;
  // a successful speculative read deliberately does NOT (it proves the old
  // slot is intact, not that no newer version exists). 0 = never expires.
  sim::Time expires_at = 0;
};

// Location-cache counters, exported as cm.client.loccache.<field>{client=...}.
#define CM_LOCCACHE_STATS(X)                                             \
  X(hits)           /* Lookup found a (not-yet-revalidated) entry */     \
  X(misses)         /* Lookup found nothing */                           \
  X(insertions)     /* new entries (updates of live entries excluded) */ \
  X(invalidations)  /* entries dropped: explicit, shard flush, epoch */  \
  X(evictions)      /* entries dropped by the LRU cap */                 \
  X(expirations)    /* entries dropped by the freshness lease */

struct LocCacheStats {
  CM_METRICS_COUNTERS(LocCacheStats, CM_LOCCACHE_STATS)
};

// Bounded LRU map KeyHash -> CachedLocation. Single-owner (per client), no
// locking: the client's coroutines run on the simulator's single thread.
// One RecencyMap (common/recency_map.h) holds both the lookup and the LRU
// order: a flat open-addressed index over a dense entry vector whose
// entries are linked most-recent-first, so a hit is one probe plus a
// relink and no call allocates once the cache has filled.
class LocationCache {
 public:
  explicit LocationCache(size_t capacity) : capacity_(capacity) {}

  // Returns the entry for `key` (bumped to MRU), or nullptr on a miss or
  // an expired lease (the entry is dropped). The pointer is invalidated by
  // any mutating call (an Insert may grow the entry vector) — copy out
  // before awaiting.
  const CachedLocation* Lookup(const Hash128& key, sim::Time now);

  // Side-effect-free probe: no MRU bump, no expiry drop, no stats. Used by
  // the degraded-read path, which must consult the quorumed version floor
  // without perturbing the cache (a degraded answer is never quorum-backed,
  // so it must leave no trace here).
  const CachedLocation* Peek(const Hash128& key) const {
    return map_.Find(key);
  }

  // Inserts or overwrites `key`'s entry (MRU position); evicts the LRU
  // entry past capacity. A capacity of 0 disables the cache entirely.
  void Insert(const Hash128& key, const CachedLocation& loc);

  // Raises the version floor of a live entry after a successful speculative
  // read observed `version` (>= the cached floor) in the cached slot.
  void RaiseVersionFloor(const Hash128& key, const VersionNumber& version);

  // Drops `key`'s entry; returns whether one existed.
  bool Invalidate(const Hash128& key);
  // Drops every entry pointing into `shard` (config-id bump / host move).
  size_t InvalidateShard(uint32_t shard);
  // Drops everything (membership-epoch change, resharding transition).
  size_t Flush();

  size_t size() const { return map_.size(); }
  size_t capacity() const { return capacity_; }
  const LocCacheStats& stats() const { return stats_; }

 private:
  RecencyMap<CachedLocation> map_;  // front = MRU
  size_t capacity_;
  LocCacheStats stats_;
};

// Windowed failure-rate breaker for the speculative path. Outcomes feed a
// fixed-size sliding sample window; when the window's failure ratio crosses
// `disable_failure_ratio` (with at least `min_samples` observed), the
// governor trips: speculation stays off for `cooldown`, then re-arms with a
// fresh window. Deterministic — all state is a pure function of the
// (outcome, sim-time) sequence.
class SpeculationGovernor {
 public:
  struct Options {
    double disable_failure_ratio = 0.5;
    int min_samples = 16;
    int window_samples = 64;
    sim::Duration cooldown = sim::Milliseconds(50);
  };

  SpeculationGovernor();  // default Options
  explicit SpeculationGovernor(Options options);

  // Whether a speculative read may be issued at `now`.
  bool Allowed(sim::Time now) const { return now >= disabled_until_; }
  // Feeds one speculation outcome (validated hit = success).
  void Record(bool success, sim::Time now);

  int64_t trips() const { return trips_; }
  int64_t attempts() const { return attempts_; }
  int64_t successes() const { return successes_; }
  // Lifetime success ratio in percent (0..100; 100 when idle) — the
  // cm.client.loccache.success_ratio_pct gauge.
  int64_t success_ratio_pct() const {
    return attempts_ == 0 ? 100 : (successes_ * 100) / attempts_;
  }

 private:
  Options options_;
  std::vector<bool> window_;  // ring buffer of outcomes
  int window_pos_ = 0;
  int window_count_ = 0;
  int window_failures_ = 0;
  sim::Time disabled_until_ = 0;
  int64_t trips_ = 0;
  int64_t attempts_ = 0;   // lifetime
  int64_t successes_ = 0;  // lifetime
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_LOCCACHE_H_
