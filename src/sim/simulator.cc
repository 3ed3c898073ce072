#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace cm::sim {
namespace {

constexpr Time kNoEvent = std::numeric_limits<Time>::max();

// Self-starting, self-destroying wrapper that owns a detached Task<void>.
struct Detached {
  struct promise_type {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept {
      // A detached simulated actor leaking an exception is a programming
      // error: there is nobody to deliver it to.
      std::terminate();
    }
  };
};

Detached RunDetached(Task<void> task) { co_await std::move(task); }

// First set bit at index >= from in a 256-bit map, or -1.
int FindFirst(const uint64_t* occ, int from) {
  if (from >= 256) return -1;
  int w = from >> 6;
  uint64_t word = occ[w] & (~uint64_t{0} << (from & 63));
  for (;;) {
    if (word != 0) return (w << 6) + std::countr_zero(word);
    if (++w == 4) return -1;
    word = occ[w];
  }
}

void SetBit(uint64_t* occ, int i) { occ[i >> 6] |= uint64_t{1} << (i & 63); }
void ClearBit(uint64_t* occ, int i) {
  occ[i >> 6] &= ~(uint64_t{1} << (i & 63));
}

// Overflow heap order: min (t, seq) at front.
struct OverflowLater {
  bool operator()(const auto* a, const auto* b) const {
    if (a->t != b->t) return a->t > b->t;
    return a->seq > b->seq;
  }
};

}  // namespace

Simulator::Simulator() = default;

Simulator::~Simulator() { DestroyPending(); }

void Simulator::DestroyPending() {
  // Pending callables are destroyed deterministically: wheel levels inner to
  // outer, slots in index order, list order within a slot, then the overflow
  // heap. Coroutine nodes only reference their frame (never own it), exactly
  // like the old std::function-of-handle events.
  auto destroy_list = [](EventNode* n) {
    for (; n != nullptr; n = n->next) {
      if (n->invoke != nullptr && n->destroy != nullptr) n->destroy(n);
    }
  };
  for (int lvl = 0; lvl < kLevels; ++lvl) {
    for (int s = 0; s < kSlots; ++s) destroy_list(wheel_[lvl][s].head);
  }
  for (EventNode* n : overflow_) {
    if (n->invoke != nullptr && n->destroy != nullptr) n->destroy(n);
  }
}

Simulator::EventNode* Simulator::NewNode(Time t) {
  if (t < now_) {
    ++posts_in_past_;
    t = now_;
  }
  if (free_ == nullptr) RefillPool();
  EventNode* n = free_;
  free_ = n->next;
  n->next = nullptr;
  n->t = t;
  n->seq = next_seq_++;
  return n;
}

void Simulator::FreeNode(EventNode* n) {
  n->next = free_;
  free_ = n;
}

void Simulator::RefillPool() {
  constexpr size_t kBlockNodes = 256;
  pool_blocks_.emplace_back(new EventNode[kBlockNodes]);
  EventNode* block = pool_blocks_.back().get();
  for (size_t i = 0; i < kBlockNodes; ++i) {
    block[i].next = (i + 1 < kBlockNodes) ? &block[i + 1] : free_;
  }
  free_ = block;
}

void Simulator::Classify(EventNode* n) {
  const Time t = n->t;
  n->next = nullptr;
  if ((t >> 8) == (base_ >> 8)) {
    // Same 256ns block: level 0, one slot per distinct t.
    Slot& sl = wheel_[0][t & 255];
    if (sl.head == nullptr) {
      sl.head = sl.tail = n;
      SetBit(occupancy_[0], int(t & 255));
    } else {
      sl.tail->next = n;
      sl.tail = n;
    }
    return;
  }
  int level;
  int slot;
  if ((t >> 16) == (base_ >> 16)) {
    level = 1;
    slot = int((t >> 8) & 255);
  } else if ((t >> 24) == (base_ >> 24)) {
    level = 2;
    slot = int((t >> 16) & 255);
  } else if ((t >> 32) == (base_ >> 32)) {
    level = 3;
    slot = int((t >> 24) & 255);
  } else {
    overflow_.push_back(n);
    std::push_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    return;
  }
  Slot& sl = wheel_[level][slot];
  if (sl.head == nullptr) {
    sl.head = sl.tail = n;
    SetBit(occupancy_[level], slot);
  } else {
    sl.tail->next = n;
    sl.tail = n;
  }
}

void Simulator::CascadeSlot(int level, int slot) {
  Slot moved = wheel_[level][slot];
  wheel_[level][slot] = Slot{};
  ClearBit(occupancy_[level], slot);
  // Redistribution preserves list order, which together with append-only
  // inserts keeps every level-0 slot in ascending seq order (DESIGN.md §10).
  for (EventNode* n = moved.head; n != nullptr;) {
    EventNode* next = n->next;
    Classify(n);
    n = next;
  }
}

bool Simulator::AdvanceBase(Time limit) {
  // The first occupied slot above base_'s at the lowest such level holds
  // the earliest pending block, so a block start beyond `limit` means every
  // pending event is.
  for (int lvl = 1; lvl < kLevels; ++lvl) {
    const int shift = 8 * lvl;
    const int s =
        FindFirst(occupancy_[lvl], int((base_ >> shift) & 255) + 1);
    if (s < 0) continue;
    const Time start = (base_ >> (shift + 8) << (shift + 8)) |
                       (Time(s) << shift);
    if (start > limit) return false;
    base_ = start;
    CascadeSlot(lvl, s);
    return true;
  }
  if (overflow_.empty()) return false;
  // Re-anchor the wheel at the earliest overflow event's block and pull in
  // everything within the new horizon. Heap pops arrive in (t, seq) order,
  // so redistributed lists stay seq-sorted for equal t.
  const Time start = overflow_.front()->t >> 8 << 8;
  if (start > limit) return false;
  base_ = start;
  while (!overflow_.empty() &&
         (overflow_.front()->t >> 32) == (base_ >> 32)) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowLater{});
    EventNode* n = overflow_.back();
    overflow_.pop_back();
    Classify(n);
  }
  return true;
}

Simulator::EventNode* Simulator::PopMin(Time limit) {
  for (;;) {
    const int hint =
        ((now_ >> 8) == (base_ >> 8)) ? int(now_ & 255) : 0;
    const int s = FindFirst(occupancy_[0], hint);
    if (s >= 0) {
      Slot& sl = wheel_[0][s];
      EventNode* n = sl.head;
      if (n->t > limit) return nullptr;
      sl.head = n->next;
      if (sl.head == nullptr) {
        sl.tail = nullptr;
        ClearBit(occupancy_[0], s);
      }
      --live_events_;
      return n;
    }
    if (!AdvanceBase(limit)) return nullptr;
  }
}

void Simulator::ScheduleAt(Time t, std::coroutine_handle<> h) {
  EventNode* n = NewNode(t);
  void* addr = h.address();
  std::memcpy(n->payload, &addr, sizeof addr);
  n->invoke = nullptr;
  n->destroy = nullptr;
  InsertNode(n);
}

void Simulator::Spawn(Task<void> task) {
  // The wrapper coroutine frame takes ownership of the task; we kick it off
  // through the event queue at the current time so spawn order equals run
  // order deterministically. The move-only lambda lives in the node's
  // inline payload — no shared_ptr, no heap.
  PostAt(now_, [t = std::move(task)]() mutable { RunDetached(std::move(t)); });
}

bool Simulator::Step(Time limit) {
  EventNode* n = PopMin(limit);
  if (n == nullptr) return false;
  assert(n->t >= now_);
  now_ = n->t;
  ++events_processed_;
  if (n->invoke == nullptr) {
    // Coroutine fast path: copy the handle out, recycle the node first
    // (the resumed frame may immediately allocate new events), resume.
    void* addr;
    std::memcpy(&addr, n->payload, sizeof addr);
    FreeNode(n);
    std::coroutine_handle<>::from_address(addr).resume();
  } else {
    n->invoke(n);
    // The callable is destroyed as soon as its event ran — same point as
    // the old value-typed Event going out of scope in Step().
    if (n->destroy != nullptr) n->destroy(n);
    FreeNode(n);
  }
  return true;
}

void Simulator::Run() {
  while (Step(kNoEvent)) {
  }
}

bool Simulator::RunUntil(Time t) {
  while (Step(t)) {
  }
  if (now_ < t) now_ = t;
  return live_events_ > 0;
}

void Simulator::RunSteps(uint64_t n) {
  while (n-- > 0 && Step(kNoEvent)) {
  }
}

}  // namespace cm::sim
