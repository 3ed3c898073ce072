// Deterministic single-threaded discrete-event simulator.
//
// Events are (time, sequence) ordered — ties break by insertion order so
// runs are reproducible — and live in a hierarchical calendar queue (a
// 4-level × 256-slot timer wheel over the low 32 bits of sim Time, with a
// min-heap overflow for events beyond the wheel horizon). Event records are
// intrusive nodes from a slab pool with small-buffer-optimized callback
// storage; coroutine resumptions (ScheduleAt) store the bare handle and
// never touch a type-erased callable. See DESIGN.md §10 for the ordering
// contract and the proof that wheel cascades preserve the exact (t, seq)
// total order of the original binary-heap implementation.
//
// Coroutine tasks suspend by scheduling their own resumption (see
// Delay()/sync.h) and the simulator pumps the queue, advancing virtual
// time.
#ifndef CM_SIM_SIMULATOR_H_
#define CM_SIM_SIMULATOR_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>  // transitive convenience for event-callback users
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/task.h"
#include "sim/time.h"

namespace cm::sim {

class Simulator {
 public:
  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules fn (any move-constructible void() callable — move-only is
  // fine) to run at absolute time t. A t earlier than now() is clamped to
  // now() and counted in posts_in_past() (exported as cm.sim.post_in_past):
  // a past-time post is a modeling bug worth surfacing, but never worth
  // corrupting the clock over.
  template <typename F>
  void PostAt(Time t, F&& fn) {
    static_assert(std::is_invocable_v<std::decay_t<F>&>,
                  "event callback must be invocable with no arguments");
    EventNode* n = NewNode(t);
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineCallbackBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(n->payload)) Fn(std::forward<F>(fn));
      n->invoke = [](EventNode* e) {
        (*std::launder(reinterpret_cast<Fn*>(e->payload)))();
      };
      if constexpr (std::is_trivially_destructible_v<Fn>) {
        n->destroy = nullptr;
      } else {
        n->destroy = [](EventNode* e) {
          std::launder(reinterpret_cast<Fn*>(e->payload))->~Fn();
        };
      }
    } else {
      auto* f = new Fn(std::forward<F>(fn));
      std::memcpy(n->payload, &f, sizeof f);
      n->invoke = [](EventNode* e) {
        Fn* f;
        std::memcpy(&f, e->payload, sizeof f);
        (*f)();
      };
      n->destroy = [](EventNode* e) {
        Fn* f;
        std::memcpy(&f, e->payload, sizeof f);
        delete f;
      };
    }
    InsertNode(n);
  }
  template <typename F>
  void PostAfter(Duration d, F&& fn) {
    PostAt(now_ + d, std::forward<F>(fn));
  }

  // Coroutine fast path: the node stores the bare handle address; Step()
  // resumes it directly without any type-erased callable.
  void ScheduleAt(Time t, std::coroutine_handle<> h);

  // Starts a detached task: it runs until its first suspension immediately,
  // then continues via the event queue. Its frame self-destroys on
  // completion. The simulator never destroys a frame that is still
  // suspended when it is itself destroyed: the frame's locals point into
  // objects (fabric, transports, backends) that are usually gone by then.
  // A caller that stops early (RunUntil) and needs every frame freed ends
  // its loops and drains the queue with Run().
  void Spawn(Task<void> task);

  // Runs until the event queue is empty.
  void Run();
  // Runs until virtual time reaches `t` (events at exactly `t` included) or
  // the queue drains. Returns true if events remain.
  bool RunUntil(Time t);
  // Runs at most `n` events.
  void RunSteps(uint64_t n);

  bool empty() const { return live_events_ == 0; }
  uint64_t events_processed() const { return events_processed_; }
  // Posts (PostAt/ScheduleAt) whose target time lay in the past and were
  // clamped to now(). Deterministic; exported as cm.sim.post_in_past.
  int64_t posts_in_past() const { return posts_in_past_; }

  // Awaitable: suspends the caller until absolute time t.
  auto WaitUntil(Time t) {
    struct Awaiter {
      Simulator& sim;
      Time t;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { sim.ScheduleAt(t, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this, t < now_ ? now_ : t};
  }

  // Awaitable: suspends the caller for duration d (d == 0 still yields
  // through the event queue, providing a cooperative yield point).
  auto Delay(Duration d) { return WaitUntil(now_ + d); }
  auto Yield() { return Delay(0); }

 private:
  // Inline storage covers every hot callback in the tree (lambdas capturing
  // a few pointers/refs, a Task handle, or a small struct copy); larger or
  // potentially-throwing callables fall back to a heap allocation.
  static constexpr size_t kInlineCallbackBytes = 64;
  static constexpr int kLevels = 4;   // 8 bits each → 2^32 ns ≈ 4.3 s horizon
  static constexpr int kSlots = 256;

  struct EventNode {
    EventNode* next;
    Time t;
    uint64_t seq;
    // nullptr → coroutine fast path: payload holds the handle address.
    void (*invoke)(EventNode*);
    void (*destroy)(EventNode*);
    alignas(std::max_align_t) unsigned char payload[kInlineCallbackBytes];
  };
  struct Slot {
    EventNode* head = nullptr;
    EventNode* tail = nullptr;
  };

  // Allocates a pooled node with seq assigned and t clamped to now().
  EventNode* NewNode(Time t);
  void FreeNode(EventNode* n);
  void RefillPool();

  // Classifies n against base_ into a wheel level or the overflow heap.
  void Classify(EventNode* n);
  void InsertNode(EventNode* n) {
    Classify(n);
    ++live_events_;
  }
  // Pops the global (t, seq) minimum if its t <= limit, cascading and
  // advancing base_ as needed but never past `limit`: an event beyond it
  // stays where it is, so base_ <= now() still holds once RunUntil(limit)
  // moves the clock to `limit`.
  EventNode* PopMin(Time limit);
  // Moves base_ forward to the next occupied block and redistributes it,
  // unless that block starts after `limit`.
  bool AdvanceBase(Time limit);
  void CascadeSlot(int level, int slot);

  // Runs the earliest event if its t <= limit; false if there is none.
  bool Step(Time limit);
  void DestroyPending();

  Time now_ = 0;
  Time base_ = 0;  // wheel origin: base_ <= now_ <= every pending t
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  uint64_t live_events_ = 0;
  int64_t posts_in_past_ = 0;

  Slot wheel_[kLevels][kSlots];
  uint64_t occupancy_[kLevels][kSlots / 64] = {};
  // (t, seq) min-heap for events beyond the wheel horizon.
  std::vector<EventNode*> overflow_;

  EventNode* free_ = nullptr;
  std::vector<std::unique_ptr<EventNode[]>> pool_blocks_;
};

}  // namespace cm::sim

#endif  // CM_SIM_SIMULATOR_H_
