#include "cliquemap/eviction.h"

#include <algorithm>
#include <vector>

#include "common/recency_map.h"
#include "common/rng.h"

namespace cm::cliquemap {
namespace {

// The candidate-restricted victim choice shared by the recency policies:
// the candidate with the oldest insert/touch tick, where a key the policy
// does not track counts as never touched (tick 0); ties keep the first.
template <typename TickOf>
Hash128 OldestAmong(std::span<const Hash128> candidates, TickOf tick_of) {
  Hash128 best;
  uint64_t best_tick = ~uint64_t{0};
  for (const Hash128& c : candidates) {
    const uint64_t t = tick_of(c);
    if (t < best_tick) {
      best_tick = t;
      best = c;
    }
  }
  return best;
}

// A recency list whose value is the key's last insert/touch tick.
using TickList = RecencyMap<uint64_t>;

uint64_t TickIn(const TickList& list, const Hash128& key) {
  const uint64_t* t = list.Find(key);
  return t == nullptr ? 0 : *t;
}

// ---------------------------------------------------------------------------
// LRU
// ---------------------------------------------------------------------------

class LruPolicy final : public EvictionPolicy {
 public:
  void OnInsert(const Hash128& key) override { order_.Put(key, ++now_); }
  // Touches arrive from batched client access records and may reference
  // keys evicted in the meantime; they refresh only resident entries.
  void OnTouch(const Hash128& key) override {
    if (uint64_t* tick = order_.MoveToFront(key)) *tick = ++now_;
  }
  void OnRemove(const Hash128& key) override { order_.Erase(key); }

  Hash128 Victim() override {
    return order_.empty() ? Hash128{} : order_.Back();
  }
  Hash128 VictimAmong(std::span<const Hash128> candidates) override {
    return OldestAmong(candidates,
                       [this](const Hash128& k) { return TickIn(order_, k); });
  }

  size_t tracked() const override { return order_.size(); }
  std::string_view name() const override { return "lru"; }

 private:
  uint64_t now_ = 0;
  TickList order_;  // front = most recent
};

// ---------------------------------------------------------------------------
// ARC (Megiddo & Modha, FAST'03)
// ---------------------------------------------------------------------------

class ArcPolicy final : public EvictionPolicy {
 public:
  explicit ArcPolicy(size_t capacity) : c_(capacity ? capacity : 1) {}

  void OnInsert(const Hash128& key) override { Access(key); }
  // Touches refresh only resident entries (ghost adaptation happens on
  // re-insert after a miss).
  void OnTouch(const Hash128& key) override {
    if (t1_.Find(key) != nullptr || t2_.Find(key) != nullptr) Access(key);
  }

  void OnRemove(const Hash128& key) override {
    t1_.Erase(key) || t2_.Erase(key);
  }

  Hash128 Victim() override {
    // REPLACE: evict from T1 if |T1| >= max(1, p), else from T2. The victim
    // becomes a ghost so a re-reference adapts p.
    if (!t1_.empty() &&
        (t1_.size() >= std::max<size_t>(1, p_) || t2_.empty())) {
      return MoveToGhost(t1_, b1_);
    }
    if (!t2_.empty()) return MoveToGhost(t2_, b2_);
    return Hash128{};
  }

  Hash128 VictimAmong(std::span<const Hash128> candidates) override {
    return OldestAmong(candidates, [this](const Hash128& k) {
      return std::max(TickIn(t1_, k), TickIn(t2_, k));
    });
  }

  size_t tracked() const override { return t1_.size() + t2_.size(); }
  std::string_view name() const override { return "arc"; }

 private:
  // Moves `from`'s LRU key to the front of `ghost`, trimming the ghost list
  // to c; returns the key. Ghosts carry no tick.
  Hash128 MoveToGhost(TickList& from, TickList& ghost) {
    const Hash128 v = from.Back();
    from.Erase(v);
    ghost.Put(v, 0);
    while (ghost.size() > c_) {
      const Hash128 oldest = ghost.Back();
      ghost.Erase(oldest);
    }
    return v;
  }

  void Access(const Hash128& key) {
    const uint64_t tick = ++now_;
    if (t1_.Erase(key)) {  // second hit: promote to frequent
      t2_.Put(key, tick);
      return;
    }
    if (uint64_t* t = t2_.MoveToFront(key)) {  // refresh
      *t = tick;
      return;
    }
    if (b1_.Find(key) != nullptr) {  // ghost hit in recency list: grow p
      p_ = std::min(c_, p_ + std::max<size_t>(
                                 1, b2_.size() / std::max<size_t>(
                                                     1, b1_.size())));
      b1_.Erase(key);
      t2_.Put(key, tick);
      return;
    }
    if (b2_.Find(key) != nullptr) {  // ghost hit in frequency list: shrink p
      const size_t delta = std::max<size_t>(
          1, b1_.size() / std::max<size_t>(1, b2_.size()));
      p_ = delta > p_ ? 0 : p_ - delta;
      b2_.Erase(key);
      t2_.Put(key, tick);
      return;
    }
    t1_.Put(key, tick);  // brand new
  }

  size_t c_;
  size_t p_ = 0;
  uint64_t now_ = 0;
  // Resident lists T1 (seen once) and T2 (seen again) and their ghost
  // lists B1 and B2; front = MRU.
  TickList t1_, t2_, b1_, b2_;
};

// ---------------------------------------------------------------------------
// CLOCK (second chance)
// ---------------------------------------------------------------------------

class ClockPolicy final : public EvictionPolicy {
 public:
  void OnInsert(const Hash128& key) override {
    const uint64_t tick = ++now_;
    if (const size_t* i = index_.Find(key)) {
      ring_[*i].tick = tick;
      ring_[*i].referenced = true;
      return;
    }
    index_.Put(key, ring_.size());
    ring_.push_back(Node{key, tick, true});
  }

  // Like the other policies, a touch refreshes only a resident entry.
  void OnTouch(const Hash128& key) override {
    if (const size_t* i = index_.Find(key)) {
      ring_[*i].tick = ++now_;
      ring_[*i].referenced = true;
    }
  }

  void OnRemove(const Hash128& key) override {
    if (const size_t* i = index_.Find(key)) RemoveAt(*i);
  }

  Hash128 Victim() override {
    if (ring_.empty()) return Hash128{};
    for (size_t sweep = 0; sweep < 2 * ring_.size(); ++sweep) {
      if (hand_ >= ring_.size()) hand_ = 0;
      Node& n = ring_[hand_];
      if (n.referenced) {
        n.referenced = false;
        ++hand_;
      } else {
        return n.key;
      }
    }
    return ring_[hand_ % ring_.size()].key;
  }

  Hash128 VictimAmong(std::span<const Hash128> candidates) override {
    return OldestAmong(candidates, [this](const Hash128& k) {
      const size_t* i = index_.Find(k);
      return i == nullptr ? uint64_t{0} : ring_[*i].tick;
    });
  }

  size_t tracked() const override { return ring_.size(); }
  std::string_view name() const override { return "clock"; }

 private:
  struct Node {
    Hash128 key;
    uint64_t tick;  // last insert/touch
    bool referenced;
  };

  void RemoveAt(size_t i) {
    index_.Erase(ring_[i].key);
    if (i != ring_.size() - 1) {
      ring_[i] = ring_.back();
      *index_.Find(ring_[i].key) = i;
    }
    ring_.pop_back();
    if (hand_ > i) --hand_;
  }

  uint64_t now_ = 0;
  std::vector<Node> ring_;
  RecencyMap<size_t> index_;  // key -> ring position; a plain lookup
  size_t hand_ = 0;
};

// ---------------------------------------------------------------------------
// Random
// ---------------------------------------------------------------------------

class RandomPolicy final : public EvictionPolicy {
 public:
  explicit RandomPolicy(uint64_t seed) : rng_(seed) {}

  void OnInsert(const Hash128& key) override {
    if (index_.Find(key) != nullptr) return;
    index_.Put(key, keys_.size());
    keys_.push_back(key);
  }
  void OnTouch(const Hash128&) override {}
  void OnRemove(const Hash128& key) override {
    const size_t* at = index_.Find(key);
    if (at == nullptr) return;
    const size_t i = *at;
    index_.Erase(key);
    if (i != keys_.size() - 1) {
      keys_[i] = keys_.back();
      *index_.Find(keys_[i]) = i;
    }
    keys_.pop_back();
  }

  Hash128 Victim() override {
    if (keys_.empty()) return Hash128{};
    return keys_[rng_.NextBounded(keys_.size())];
  }

  Hash128 VictimAmong(std::span<const Hash128> candidates) override {
    if (candidates.empty()) return Hash128{};
    return candidates[rng_.NextBounded(candidates.size())];
  }

  size_t tracked() const override { return keys_.size(); }
  std::string_view name() const override { return "random"; }

 private:
  Rng rng_;
  std::vector<Hash128> keys_;
  RecencyMap<size_t> index_;  // key -> position in keys_; a plain lookup
};

}  // namespace

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   size_t capacity_hint,
                                                   uint64_t seed) {
  switch (kind) {
    case EvictionPolicyKind::kLru:
      return std::make_unique<LruPolicy>();
    case EvictionPolicyKind::kArc:
      return std::make_unique<ArcPolicy>(capacity_hint);
    case EvictionPolicyKind::kClock:
      return std::make_unique<ClockPolicy>();
    case EvictionPolicyKind::kRandom:
      return std::make_unique<RandomPolicy>(seed);
  }
  return std::make_unique<LruPolicy>();
}

}  // namespace cm::cliquemap
