#include <gtest/gtest.h>

#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "cliquemap/eviction.h"
#include "cliquemap/tombstone.h"
#include "common/rng.h"

namespace cm::cliquemap {
namespace {

Hash128 H(int i) { return HashKey("key-" + std::to_string(i)); }

// ---------------------------------------------------------------------------
// Reference policies: the std::list + std::unordered_map implementations of
// LRU, ARC and Random that the flat RecencyMap ports replaced, kept verbatim
// as oracles for the differential test below.
// ---------------------------------------------------------------------------

class RefTickBase : public EvictionPolicy {
 public:
  Hash128 VictimAmong(std::span<const Hash128> candidates) override {
    Hash128 best;
    uint64_t best_tick = ~uint64_t{0};
    for (const Hash128& c : candidates) {
      auto it = ticks_.find(c);
      const uint64_t t = it == ticks_.end() ? 0 : it->second;
      if (t < best_tick) {
        best_tick = t;
        best = c;
      }
    }
    return best;
  }

 protected:
  void Tick(const Hash128& key) { ticks_[key] = ++now_; }
  void Drop(const Hash128& key) { ticks_.erase(key); }

 private:
  uint64_t now_ = 0;
  std::unordered_map<Hash128, uint64_t> ticks_;
};

class RefLru final : public RefTickBase {
 public:
  void OnInsert(const Hash128& key) override { Touch(key); }
  void OnTouch(const Hash128& key) override {
    if (index_.count(key) > 0) Touch(key);
  }
  void OnRemove(const Hash128& key) override {
    auto it = index_.find(key);
    if (it != index_.end()) {
      order_.erase(it->second);
      index_.erase(it);
    }
    Drop(key);
  }
  Hash128 Victim() override {
    return order_.empty() ? Hash128{} : order_.back();
  }
  size_t tracked() const override { return index_.size(); }
  std::string_view name() const override { return "ref-lru"; }

 private:
  void Touch(const Hash128& key) {
    Tick(key);
    auto it = index_.find(key);
    if (it != index_.end()) order_.erase(it->second);
    order_.push_front(key);
    index_[key] = order_.begin();
  }

  std::list<Hash128> order_;
  std::unordered_map<Hash128, std::list<Hash128>::iterator> index_;
};

class RefArc final : public RefTickBase {
 public:
  explicit RefArc(size_t capacity) : c_(capacity ? capacity : 1) {}

  void OnInsert(const Hash128& key) override { Access(key); }
  void OnTouch(const Hash128& key) override {
    if (t1_.Contains(key) || t2_.Contains(key)) Access(key);
  }
  void OnRemove(const Hash128& key) override {
    EraseFrom(t1_, key) || EraseFrom(t2_, key);
    Drop(key);
  }
  Hash128 Victim() override {
    if (!t1_.list.empty() &&
        (t1_.list.size() >= std::max<size_t>(1, p_) || t2_.list.empty())) {
      Hash128 v = t1_.list.back();
      MoveToGhost(t1_, b1_, v);
      return v;
    }
    if (!t2_.list.empty()) {
      Hash128 v = t2_.list.back();
      MoveToGhost(t2_, b2_, v);
      return v;
    }
    return Hash128{};
  }
  size_t tracked() const override { return t1_.map.size() + t2_.map.size(); }
  std::string_view name() const override { return "ref-arc"; }

 private:
  struct Lru {
    std::list<Hash128> list;
    std::unordered_map<Hash128, std::list<Hash128>::iterator> map;

    bool Contains(const Hash128& k) const { return map.count(k) > 0; }
    void PushFront(const Hash128& k) {
      list.push_front(k);
      map[k] = list.begin();
    }
    void TrimTo(size_t n) {
      while (list.size() > n) {
        map.erase(list.back());
        list.pop_back();
      }
    }
  };

  static bool EraseFrom(Lru& l, const Hash128& k) {
    auto it = l.map.find(k);
    if (it == l.map.end()) return false;
    l.list.erase(it->second);
    l.map.erase(it);
    return true;
  }

  void MoveToGhost(Lru& from, Lru& ghost, const Hash128& k) {
    EraseFrom(from, k);
    ghost.PushFront(k);
    ghost.TrimTo(c_);
    Drop(k);
  }

  void Access(const Hash128& key) {
    Tick(key);
    if (t1_.Contains(key)) {
      EraseFrom(t1_, key);
      t2_.PushFront(key);
      return;
    }
    if (t2_.Contains(key)) {
      EraseFrom(t2_, key);
      t2_.PushFront(key);
      return;
    }
    if (b1_.Contains(key)) {
      p_ = std::min(c_, p_ + std::max<size_t>(1, b2_.list.size() /
                                                     std::max<size_t>(
                                                         1, b1_.list.size())));
      EraseFrom(b1_, key);
      t2_.PushFront(key);
      return;
    }
    if (b2_.Contains(key)) {
      size_t delta =
          std::max<size_t>(1, b1_.list.size() / std::max<size_t>(
                                                    1, b2_.list.size()));
      p_ = delta > p_ ? 0 : p_ - delta;
      EraseFrom(b2_, key);
      t2_.PushFront(key);
      return;
    }
    t1_.PushFront(key);
  }

  size_t c_;
  size_t p_ = 0;
  Lru t1_, t2_, b1_, b2_;
};

class RefRandom final : public EvictionPolicy {
 public:
  explicit RefRandom(uint64_t seed) : rng_(seed) {}

  void OnInsert(const Hash128& key) override {
    if (index_.count(key)) return;
    index_[key] = keys_.size();
    keys_.push_back(key);
  }
  void OnTouch(const Hash128&) override {}
  void OnRemove(const Hash128& key) override {
    auto it = index_.find(key);
    if (it == index_.end()) return;
    size_t i = it->second;
    index_.erase(it);
    if (i != keys_.size() - 1) {
      keys_[i] = keys_.back();
      index_[keys_[i]] = i;
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
  std::string_view name() const override { return "ref-random"; }

 private:
  Rng rng_;
  std::vector<Hash128> keys_;
  std::unordered_map<Hash128, size_t> index_;
};

class PolicyTest : public ::testing::TestWithParam<EvictionPolicyKind> {
 protected:
  std::unique_ptr<EvictionPolicy> MakePolicy(size_t cap = 64) {
    return MakeEvictionPolicy(GetParam(), cap, 7);
  }
};

TEST_P(PolicyTest, EmptyPolicyHasNoVictim) {
  auto p = MakePolicy();
  EXPECT_TRUE(p->Victim().is_zero());
  EXPECT_TRUE(p->VictimAmong({}).is_zero());
  EXPECT_EQ(p->tracked(), 0u);
}

TEST_P(PolicyTest, VictimIsTracked) {
  auto p = MakePolicy();
  for (int i = 0; i < 10; ++i) p->OnInsert(H(i));
  EXPECT_EQ(p->tracked(), 10u);
  Hash128 v = p->Victim();
  EXPECT_FALSE(v.is_zero());
  bool found = false;
  for (int i = 0; i < 10; ++i) found |= (v == H(i));
  EXPECT_TRUE(found);
}

TEST_P(PolicyTest, RemoveForgets) {
  auto p = MakePolicy();
  p->OnInsert(H(1));
  p->OnRemove(H(1));
  EXPECT_EQ(p->tracked(), 0u);
  EXPECT_TRUE(p->Victim().is_zero());
}

TEST_P(PolicyTest, RemoveOfUnknownIsSafe) {
  auto p = MakePolicy();
  p->OnRemove(H(42));
  p->OnTouch(H(42));
  EXPECT_EQ(p->tracked(), 0u);
}

TEST_P(PolicyTest, VictimAmongRestrictsToCandidates) {
  auto p = MakePolicy();
  for (int i = 0; i < 20; ++i) p->OnInsert(H(i));
  std::vector<Hash128> candidates = {H(3), H(7), H(11)};
  Hash128 v = p->VictimAmong(candidates);
  EXPECT_TRUE(v == H(3) || v == H(7) || v == H(11));
}

TEST_P(PolicyTest, EvictToCapacityDrainsEverything) {
  auto p = MakePolicy();
  for (int i = 0; i < 50; ++i) p->OnInsert(H(i));
  for (int i = 0; i < 50; ++i) {
    Hash128 v = p->Victim();
    ASSERT_FALSE(v.is_zero()) << "drained early at " << i;
    p->OnRemove(v);
  }
  EXPECT_TRUE(p->Victim().is_zero());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyTest,
                         ::testing::Values(EvictionPolicyKind::kLru,
                                           EvictionPolicyKind::kArc,
                                           EvictionPolicyKind::kClock,
                                           EvictionPolicyKind::kRandom),
                         [](const auto& info) {
                           switch (info.param) {
                             case EvictionPolicyKind::kLru: return "Lru";
                             case EvictionPolicyKind::kArc: return "Arc";
                             case EvictionPolicyKind::kClock: return "Clock";
                             case EvictionPolicyKind::kRandom: return "Random";
                           }
                           return "Unknown";
                         });

TEST(Lru, EvictsLeastRecentlyUsed) {
  auto p = MakeEvictionPolicy(EvictionPolicyKind::kLru, 0, 1);
  p->OnInsert(H(1));
  p->OnInsert(H(2));
  p->OnInsert(H(3));
  p->OnTouch(H(1));  // 2 is now least recent
  EXPECT_EQ(p->Victim(), H(2));
}

TEST(Lru, VictimAmongPicksLeastRecent) {
  auto p = MakeEvictionPolicy(EvictionPolicyKind::kLru, 0, 1);
  for (int i = 0; i < 5; ++i) p->OnInsert(H(i));
  p->OnTouch(H(0));
  std::vector<Hash128> candidates = {H(0), H(4)};
  EXPECT_EQ(p->VictimAmong(candidates), H(4));
}

TEST(Arc, FrequentKeysSurviveScan) {
  // ARC's defining property: a scan of one-shot keys must not flush keys
  // that are accessed repeatedly.
  auto p = MakeEvictionPolicy(EvictionPolicyKind::kArc, 100, 1);
  for (int i = 0; i < 50; ++i) {
    p->OnInsert(H(i));
    p->OnTouch(H(i));  // second access -> frequent (T2)
  }
  for (int i = 1000; i < 1100; ++i) p->OnInsert(H(i));  // one-shot scan
  // Evict half the tracked population; frequent keys should mostly survive.
  int frequent_evicted = 0;
  for (int e = 0; e < 75; ++e) {
    Hash128 v = p->Victim();
    if (v.is_zero()) break;
    for (int i = 0; i < 50; ++i) {
      if (v == H(i)) ++frequent_evicted;
    }
    p->OnRemove(v);
  }
  EXPECT_LT(frequent_evicted, 15);
}

TEST(Clock, SecondChanceOrdering) {
  auto p = MakeEvictionPolicy(EvictionPolicyKind::kClock, 0, 1);
  p->OnInsert(H(1));
  p->OnInsert(H(2));
  // Both referenced; first sweep clears bits, second finds H(1) first.
  Hash128 v = p->Victim();
  EXPECT_EQ(v, H(1));
  p->OnRemove(v);
  // H(2)'s bit was cleared during the sweep.
  EXPECT_EQ(p->Victim(), H(2));
}

TEST(Random, CoversAllKeysEventually) {
  auto p = MakeEvictionPolicy(EvictionPolicyKind::kRandom, 0, 99);
  for (int i = 0; i < 8; ++i) p->OnInsert(H(i));
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (int t = 0; t < 400; ++t) {
    Hash128 v = p->Victim();
    seen.insert({v.hi, v.lo});
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Clock, TouchOfAnUntrackedKeyLeavesItNeverTouched) {
  // Touch reports may name keys evicted since; like the other policies,
  // CLOCK refreshes only resident entries, so such a key stays "never
  // touched" (tick 0) and is the first choice among bucket candidates.
  auto p = MakeEvictionPolicy(EvictionPolicyKind::kClock, 0, 1);
  p->OnInsert(H(1));
  p->OnInsert(H(2));
  p->OnTouch(H(9));  // untracked
  std::vector<Hash128> candidates = {H(1), H(9)};
  EXPECT_EQ(p->VictimAmong(candidates), H(9));
  // The same holds for a key touched after its removal.
  p->OnRemove(H(2));
  p->OnTouch(H(2));
  candidates = {H(1), H(2)};
  EXPECT_EQ(p->VictimAmong(candidates), H(2));
  EXPECT_EQ(p->tracked(), 1u);
}

// The RecencyMap ports against the reference policies above: identical
// Victim, VictimAmong and tracked() over seeded streams of inserts, touches
// (including touches of untracked keys), removes and victim choices (some
// removed afterwards, some left for the backend's stale-victim path).
void ExpectSameAsReference(EvictionPolicyKind kind, EvictionPolicy& ref,
                           uint64_t seed) {
  constexpr size_t kCapacity = 48;
  auto got = MakeEvictionPolicy(kind, kCapacity, seed);
  Rng rng(seed);
  constexpr int kUniverse = 96;
  for (int op = 0; op < 20000; ++op) {
    const Hash128 k = H(static_cast<int>(rng.NextBounded(kUniverse)));
    const uint64_t roll = rng.NextBounded(100);
    if (roll < 35) {
      ref.OnInsert(k);
      got->OnInsert(k);
    } else if (roll < 60) {
      ref.OnTouch(k);
      got->OnTouch(k);
    } else if (roll < 75) {
      ref.OnRemove(k);
      got->OnRemove(k);
    } else if (roll < 88) {
      const Hash128 v = ref.Victim();
      ASSERT_EQ(got->Victim(), v) << "op " << op;
      if (!v.is_zero() && rng.NextBounded(4) != 0) {
        ref.OnRemove(v);
        got->OnRemove(v);
      }
    } else {
      std::vector<Hash128> candidates(rng.NextBounded(8));
      for (Hash128& c : candidates) {
        c = H(static_cast<int>(rng.NextBounded(kUniverse)));
      }
      ASSERT_EQ(got->VictimAmong(candidates), ref.VictimAmong(candidates))
          << "op " << op;
    }
    ASSERT_EQ(got->tracked(), ref.tracked()) << "op " << op;
  }
  // Drain: the full victim order must match too.
  for (Hash128 v = ref.Victim(); !v.is_zero(); v = ref.Victim()) {
    ASSERT_EQ(got->Victim(), v);
    ref.OnRemove(v);
    got->OnRemove(v);
  }
  EXPECT_TRUE(got->Victim().is_zero());
  EXPECT_EQ(got->tracked(), 0u);
}

TEST(PolicyDifferential, LruMatchesReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RefLru ref;
    ExpectSameAsReference(EvictionPolicyKind::kLru, ref, seed);
  }
}

TEST(PolicyDifferential, ArcMatchesReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RefArc ref(48);
    ExpectSameAsReference(EvictionPolicyKind::kArc, ref, seed);
  }
}

TEST(PolicyDifferential, RandomMatchesReference) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RefRandom ref(seed);
    ExpectSameAsReference(EvictionPolicyKind::kRandom, ref, seed);
  }
}

// ---------------------------------------------------------------------------
// TombstoneCache
// ---------------------------------------------------------------------------

TEST(Tombstones, RecordAndFind) {
  TombstoneCache t(4);
  t.Record(H(1), VersionNumber{10, 1, 1});
  ASSERT_NE(t.Find(H(1)), nullptr);
  EXPECT_EQ(t.Find(H(1))->tt_micros, 10u);
  EXPECT_EQ(t.Find(H(2)), nullptr);
}

TEST(Tombstones, KeepsMaxVersionPerKey) {
  TombstoneCache t(4);
  t.Record(H(1), VersionNumber{10, 1, 1});
  t.Record(H(1), VersionNumber{5, 1, 1});  // older; ignored
  EXPECT_EQ(t.Find(H(1))->tt_micros, 10u);
  t.Record(H(1), VersionNumber{20, 1, 1});
  EXPECT_EQ(t.Find(H(1))->tt_micros, 20u);
}

TEST(Tombstones, EvictionFoldsIntoSummary) {
  TombstoneCache t(2);
  t.Record(H(1), VersionNumber{100, 1, 1});
  t.Record(H(2), VersionNumber{50, 1, 1});
  t.Record(H(3), VersionNumber{10, 1, 1});  // evicts H(1) (FIFO)
  EXPECT_EQ(t.Find(H(1)), nullptr);
  EXPECT_EQ(t.summary(), (VersionNumber{100, 1, 1}));
  // Floor of the evicted key is now bounded by the summary.
  EXPECT_EQ(t.Floor(H(1)), (VersionNumber{100, 1, 1}));
}

TEST(Tombstones, FloorOfUnknownKeyIsSummary) {
  TombstoneCache t(2);
  EXPECT_TRUE(t.Floor(H(9)).is_zero());
  t.Record(H(1), VersionNumber{100, 1, 1});
  t.Record(H(2), VersionNumber{1, 1, 1});
  t.Record(H(3), VersionNumber{1, 1, 2});  // evict H(1) -> summary=100
  EXPECT_EQ(t.Floor(H(9)).tt_micros, 100u);
}

TEST(Tombstones, FloorIsConservativeMaxOfEntryAndSummary) {
  TombstoneCache t(2);
  t.Record(H(1), VersionNumber{100, 1, 1});
  t.Record(H(2), VersionNumber{1, 1, 1});
  t.Record(H(3), VersionNumber{2, 1, 1});  // H(1)@100 folded into summary
  // H(3)'s own tombstone (2) is below the summary (100): floor is the max.
  EXPECT_EQ(t.Floor(H(3)).tt_micros, 100u);
}

TEST(Tombstones, MergeSummaryAndWorstCase) {
  TombstoneCache t(8);
  t.Record(H(1), VersionNumber{7, 1, 1});
  t.MergeSummary(VersionNumber{50, 1, 1});
  EXPECT_EQ(t.summary().tt_micros, 50u);
  t.Record(H(2), VersionNumber{80, 1, 1});
  EXPECT_EQ(t.WorstCaseSummary().tt_micros, 80u);
}

TEST(Tombstones, ClearRemovesEntry) {
  TombstoneCache t(8);
  t.Record(H(1), VersionNumber{7, 1, 1});
  t.Clear(H(1));
  EXPECT_EQ(t.Find(H(1)), nullptr);
}

TEST(Tombstones, CapacityBounded) {
  TombstoneCache t(16);
  for (int i = 0; i < 1000; ++i) t.Record(H(i), VersionNumber{uint64_t(i), 1, 1});
  EXPECT_LE(t.size(), 16u);
  EXPECT_EQ(t.summary().tt_micros, 983u);  // highest evicted
}

}  // namespace
}  // namespace cm::cliquemap
