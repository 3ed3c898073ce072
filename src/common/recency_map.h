// RecencyMap<V>: a Hash128 -> V table whose entries form one recency list.
//
// Every recency structure in the tree (the client's location cache and the
// backends' LRU/ARC/CLOCK/random eviction policies) needs the same two
// things per key: an O(1) lookup and, for the LRU-shaped ones, a place in a
// most-recent-first order. A std::list plus a node-based unordered_map pays
// a heap node per key in each, a `%` on a prime bucket count and a pointer
// chase per chain node on every lookup. This table keeps both in flat
// arrays:
//
//   * the index is open-addressed with linear probing over a power-of-two
//     slot array (load factor <= 1/2); each slot holds a 32-bit tag (the high
//     half of the key's mixed hash, which also names its home slot) and an
//     entry number, so most probes never touch an entry. Deletion shifts
//     later members of the probe run back instead of leaving tombstones;
//   * entries live in a dense vector with a freelist and carry intrusive
//     prev/next entry numbers, so all entries form one doubly-linked
//     recency list: front = most recent, back = least recent.
//
// Nothing iterates the index, so slot layout (and thus growth) never shows
// in any observable order: the recency list alone is the iteration order.
// Pointers returned by Find/MoveToFront die at the next Put (the entry
// vector may grow) and when their key is erased.
#ifndef CM_COMMON_RECENCY_MAP_H_
#define CM_COMMON_RECENCY_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace cm {

template <typename V>
class RecencyMap {
 public:
  RecencyMap() : slots_(kMinSlots) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // `key`'s value, or nullptr. Leaves the recency order alone.
  V* Find(const Hash128& key) {
    const uint32_t e = slots_[SlotOf(key, Tag(key))].entry;
    return e == kNil ? nullptr : &entries_[e].value;
  }
  const V* Find(const Hash128& key) const {
    const uint32_t e = slots_[SlotOf(key, Tag(key))].entry;
    return e == kNil ? nullptr : &entries_[e].value;
  }

  // Moves `key` to the front; returns its value, or nullptr if absent.
  V* MoveToFront(const Hash128& key) {
    const uint32_t e = slots_[SlotOf(key, Tag(key))].entry;
    if (e == kNil) return nullptr;
    Unlink(e);
    LinkFront(e);
    return &entries_[e].value;
  }

  // Inserts `key` or overwrites its value; either way it moves to the front.
  V& Put(const Hash128& key, V value) {
    const uint32_t tag = Tag(key);
    uint32_t s = SlotOf(key, tag);
    uint32_t e = slots_[s].entry;
    if (e != kNil) {
      entries_[e].value = std::move(value);
      Unlink(e);
    } else {
      if (2 * (size_ + 1) > slots_.size()) {
        Grow();
        s = SlotOf(key, tag);
      }
      if (free_ != kNil) {
        e = free_;
        free_ = entries_[e].next;
        entries_[e].key = key;
        entries_[e].value = std::move(value);
      } else {
        e = static_cast<uint32_t>(entries_.size());
        entries_.push_back(Entry{key, std::move(value), kNil, kNil});
      }
      slots_[s] = Slot{tag, e};
      ++size_;
    }
    LinkFront(e);
    return entries_[e].value;
  }

  // Removes `key`; returns whether it was present.
  bool Erase(const Hash128& key) {
    uint32_t hole = SlotOf(key, Tag(key));
    const uint32_t e = slots_[hole].entry;
    if (e == kNil) return false;
    Unlink(e);
    entries_[e].next = free_;
    free_ = e;
    --size_;
    // Backward-shift deletion: a later member of the probe run moves into
    // the hole unless its home slot lies cyclically in (hole, j].
    const uint32_t mask = Mask();
    for (uint32_t j = (hole + 1) & mask; slots_[j].entry != kNil;
         j = (j + 1) & mask) {
      const uint32_t home = slots_[j].tag >> shift_;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].entry = kNil;
    return true;
  }

  // The least recent key. Requires !empty().
  const Hash128& Back() const { return entries_[tail_].key; }

  // Walks the list front to back and erases every entry for which
  // `pred(key, value)` holds; returns how many it erased.
  template <typename Pred>
  size_t EraseIf(Pred pred) {
    size_t erased = 0;
    for (uint32_t e = head_; e != kNil;) {
      const uint32_t next = entries_[e].next;
      if (pred(std::as_const(entries_[e].key),
               std::as_const(entries_[e].value))) {
        const Hash128 key = entries_[e].key;
        Erase(key);
        ++erased;
      }
      e = next;
    }
    return erased;
  }

  // Drops every entry; keeps the allocated slots and entries.
  void Clear() {
    for (Slot& s : slots_) s.entry = kNil;
    entries_.clear();
    head_ = tail_ = free_ = kNil;
    size_ = 0;
  }

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint32_t tag = 0;
    uint32_t entry = kNil;
  };
  struct Entry {
    Hash128 key;
    V value;
    uint32_t prev;
    uint32_t next;  // the freelist link while the entry is free
  };

  // High 32 bits of a multiplicative mix of both halves; its top
  // log2(slots) bits pick the home slot.
  static uint32_t Tag(const Hash128& key) {
    const uint64_t x = key.lo ^ (key.hi * 0xff51afd7ed558ccdull);
    return static_cast<uint32_t>((x * 0x9e3779b97f4a7c15ull) >> 32);
  }

  uint32_t Mask() const { return static_cast<uint32_t>(slots_.size() - 1); }

  // The slot holding `key`, or the empty slot that ends its probe run.
  uint32_t SlotOf(const Hash128& key, uint32_t tag) const {
    const uint32_t mask = Mask();
    for (uint32_t s = tag >> shift_;; s = (s + 1) & mask) {
      const Slot& slot = slots_[s];
      if (slot.entry == kNil ||
          (slot.tag == tag && entries_[slot.entry].key == key)) {
        return s;
      }
    }
  }

  // Doubles the slot array, re-placing each slot by its stored tag.
  void Grow() {
    const std::vector<Slot> old =
        std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
    --shift_;
    const uint32_t mask = Mask();
    for (const Slot& slot : old) {
      if (slot.entry == kNil) continue;
      uint32_t s = slot.tag >> shift_;
      while (slots_[s].entry != kNil) s = (s + 1) & mask;
      slots_[s] = slot;
    }
  }

  void Unlink(uint32_t e) {
    Entry& n = entries_[e];
    (n.prev == kNil ? head_ : entries_[n.prev].next) = n.next;
    (n.next == kNil ? tail_ : entries_[n.next].prev) = n.prev;
  }

  void LinkFront(uint32_t e) {
    Entry& n = entries_[e];
    n.prev = kNil;
    n.next = head_;
    (head_ == kNil ? tail_ : entries_[head_].prev) = e;
    head_ = e;
  }

  std::vector<Slot> slots_;
  std::vector<Entry> entries_;
  int shift_ = 32 - std::countr_zero(kMinSlots);  // 32 - log2(slots)
  uint32_t head_ = kNil;
  uint32_t tail_ = kNil;
  uint32_t free_ = kNil;
  size_t size_ = 0;
};

}  // namespace cm

#endif  // CM_COMMON_RECENCY_MAP_H_
