#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cm::sim {
namespace {

TEST(Simulator, TimeAdvancesWithEvents) {
  Simulator sim;
  std::vector<Time> fired;
  sim.PostAt(100, [&] { fired.push_back(sim.now()); });
  sim.PostAt(50, [&] { fired.push_back(sim.now()); });
  sim.PostAt(200, [&] { fired.push_back(sim.now()); });
  sim.Run();
  EXPECT_EQ(fired, (std::vector<Time>{50, 100, 200}));
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.PostAt(10, [&] { order.push_back(1); });
  sim.PostAt(10, [&] { order.push_back(2); });
  sim.PostAt(10, [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.PostAt(100, [&] { ++fired; });
  sim.PostAt(300, [&] { ++fired; });
  EXPECT_TRUE(sim.RunUntil(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SpawnedTaskRunsAndDelays) {
  Simulator sim;
  std::vector<Time> stamps;
  sim.Spawn([](Simulator& s, std::vector<Time>& out) -> Task<void> {
    out.push_back(s.now());
    co_await s.Delay(Microseconds(5));
    out.push_back(s.now());
    co_await s.Delay(Microseconds(10));
    out.push_back(s.now());
  }(sim, stamps));
  sim.Run();
  ASSERT_EQ(stamps.size(), 3u);
  EXPECT_EQ(stamps[0], 0);
  EXPECT_EQ(stamps[1], Microseconds(5));
  EXPECT_EQ(stamps[2], Microseconds(15));
}

TEST(Simulator, NestedTaskAwait) {
  Simulator sim;
  int result = 0;
  auto child = [](Simulator& s) -> Task<int> {
    co_await s.Delay(100);
    co_return 7;
  };
  sim.Spawn([](Simulator& s, auto child_fn, int& out) -> Task<void> {
    int a = co_await child_fn(s);
    int b = co_await child_fn(s);
    out = a + b;
  }(sim, child, result));
  sim.Run();
  EXPECT_EQ(result, 14);
  EXPECT_EQ(sim.now(), 200);
}

TEST(Simulator, ManyConcurrentTasksInterleave) {
  Simulator sim;
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    sim.Spawn([](Simulator& s, int delay, int& d) -> Task<void> {
      co_await s.Delay(delay);
      ++d;
    }(sim, i * 10, done));
  }
  sim.Run();
  EXPECT_EQ(done, 100);
  EXPECT_EQ(sim.now(), 990);
}

TEST(OneShot, SetBeforeWait) {
  Simulator sim;
  OneShot<int> f(sim);
  f.Set(5);
  int got = 0;
  sim.Spawn([](OneShot<int> f, int& out) -> Task<void> {
    out = co_await f.Wait();
  }(f, got));
  sim.Run();
  EXPECT_EQ(got, 5);
}

TEST(OneShot, SetAfterWait) {
  Simulator sim;
  OneShot<int> f(sim);
  int got = 0;
  sim.Spawn([](OneShot<int> f, int& out) -> Task<void> {
    out = co_await f.Wait();
  }(f, got));
  sim.PostAt(500, [&] { f.Set(9); });
  sim.Run();
  EXPECT_EQ(got, 9);
}

TEST(OneShot, FirstSetWins) {
  Simulator sim;
  OneShot<int> f(sim);
  f.Set(1);
  f.Set(2);
  int got = 0;
  sim.Spawn([](OneShot<int> f, int& out) -> Task<void> {
    out = co_await f.Wait();
  }(f, got));
  sim.Run();
  EXPECT_EQ(got, 1);
}

TEST(OneShot, WaitForTimesOut) {
  Simulator sim;
  OneShot<int> f(sim);
  bool timed_out = false;
  Time when = -1;
  sim.Spawn([](Simulator& s, OneShot<int> f, bool& to, Time& w) -> Task<void> {
    auto v = co_await f.WaitFor(Microseconds(50));
    to = !v.has_value();
    w = s.now();
  }(sim, f, timed_out, when));
  sim.Run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(when, Microseconds(50));
}

TEST(OneShot, WaitForDeliversBeforeTimeout) {
  Simulator sim;
  OneShot<int> f(sim);
  std::optional<int> got;
  sim.Spawn([](OneShot<int> f, std::optional<int>& out) -> Task<void> {
    out = co_await f.WaitFor(Microseconds(50));
  }(f, got));
  sim.PostAt(Microseconds(10), [&] { f.Set(3); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 3);
}

TEST(OneShot, LateSetAfterTimeoutIsDropped) {
  Simulator sim;
  OneShot<int> f(sim);
  std::optional<int> got;
  sim.Spawn([](OneShot<int> f, std::optional<int>& out) -> Task<void> {
    out = co_await f.WaitFor(Microseconds(5));
  }(f, got));
  sim.PostAt(Microseconds(100), [&] { f.Set(3); });
  sim.Run();
  EXPECT_FALSE(got.has_value());
}

TEST(Channel, SendThenRecv) {
  Simulator sim;
  Channel<int> ch(sim);
  ch.Send(1);
  ch.Send(2);
  std::vector<int> got;
  sim.Spawn([](Channel<int>& ch, std::vector<int>& out) -> Task<void> {
    out.push_back(co_await ch.Recv());
    out.push_back(co_await ch.Recv());
  }(ch, got));
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2}));
}

TEST(Channel, RecvThenSendWakes) {
  Simulator sim;
  Channel<int> ch(sim);
  int got = 0;
  sim.Spawn([](Channel<int>& ch, int& out) -> Task<void> {
    out = co_await ch.Recv();
  }(ch, got));
  sim.PostAt(100, [&] { ch.Send(42); });
  sim.Run();
  EXPECT_EQ(got, 42);
}

TEST(Channel, MultipleWaitersFifo) {
  Simulator sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](Channel<int>& ch, std::vector<int>& out) -> Task<void> {
      out.push_back(co_await ch.Recv());
    }(ch, got));
  }
  sim.PostAt(10, [&] {
    ch.Send(1);
    ch.Send(2);
    ch.Send(3);
  });
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, RecvForTimesOutAndChannelStillWorks) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> first;
  int second = 0;
  sim.Spawn([](Channel<int>& ch, std::optional<int>& f,
               int& s) -> Task<void> {
    f = co_await ch.RecvFor(Microseconds(10));
    s = co_await ch.Recv();
  }(ch, first, second));
  sim.PostAt(Microseconds(100), [&] { ch.Send(77); });
  sim.Run();
  EXPECT_FALSE(first.has_value());
  EXPECT_EQ(second, 77);
}

TEST(Channel, RecvForDeliversInTime) {
  Simulator sim;
  Channel<int> ch(sim);
  std::optional<int> got;
  sim.Spawn([](Channel<int>& ch, std::optional<int>& out) -> Task<void> {
    out = co_await ch.RecvFor(Microseconds(100));
  }(ch, got));
  sim.PostAt(Microseconds(10), [&] { ch.Send(5); });
  sim.Run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
}

TEST(Notification, WakesAllWaiters) {
  Simulator sim;
  Notification n(sim);
  int woken = 0;
  for (int i = 0; i < 5; ++i) {
    sim.Spawn([](Notification& n, int& w) -> Task<void> {
      co_await n.Wait();
      ++w;
    }(n, woken));
  }
  sim.PostAt(100, [&] { n.Notify(); });
  sim.Run();
  EXPECT_EQ(woken, 5);
  EXPECT_TRUE(n.HasBeenNotified());
}

TEST(JoinAll, WaitsForEverything) {
  Simulator sim;
  int done = 0;
  Time finished = 0;
  sim.Spawn([](Simulator& s, int& d, Time& f) -> Task<void> {
    std::vector<Task<void>> tasks;
    for (int i = 1; i <= 4; ++i) {
      tasks.push_back([](Simulator& s, int delay, int& d) -> Task<void> {
        co_await s.Delay(delay * 100);
        ++d;
      }(s, i, d));
    }
    co_await JoinAll(s, std::move(tasks));
    f = s.now();
  }(sim, done, finished));
  sim.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(finished, 400);
}

TEST(CpuPool, SingleCoreSerializes) {
  Simulator sim;
  CpuPool cpu(sim, CpuConfig{.cores = 1, .cstate_wake_penalty = 0});
  std::vector<Time> done;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](Simulator& s, CpuPool& c, std::vector<Time>& d) -> Task<void> {
      co_await c.Run(Microseconds(10));
      d.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], Microseconds(10));
  EXPECT_EQ(done[1], Microseconds(20));
  EXPECT_EQ(done[2], Microseconds(30));
  EXPECT_EQ(cpu.total_busy_ns(), Microseconds(30));
}

TEST(CpuPool, MultiCoreParallelizes) {
  Simulator sim;
  CpuPool cpu(sim, CpuConfig{.cores = 4, .cstate_wake_penalty = 0});
  std::vector<Time> done;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn([](Simulator& s, CpuPool& c, std::vector<Time>& d) -> Task<void> {
      co_await c.Run(Microseconds(10));
      d.push_back(s.now());
    }(sim, cpu, done));
  }
  sim.Run();
  ASSERT_EQ(done.size(), 4u);
  for (Time t : done) EXPECT_EQ(t, Microseconds(10));
}

TEST(CpuPool, CStateWakePenaltyAppliesWhenIdle) {
  Simulator sim;
  CpuPool cpu(sim, CpuConfig{.cores = 1,
                             .cstate_idle_threshold = Microseconds(100),
                             .cstate_wake_penalty = Microseconds(5)});
  std::vector<Time> done;
  auto work = [](Simulator& s, CpuPool& c, std::vector<Time>& d) -> Task<void> {
    co_await c.Run(Microseconds(10));
    d.push_back(s.now());
  };
  // First run: core idle since t=0, but now==0 so idle time is 0 -> no
  // penalty... then long idle gap -> penalty applies.
  sim.Spawn(work(sim, cpu, done));
  sim.PostAt(Milliseconds(1), [&] { sim.Spawn(work(sim, cpu, done)); });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], Microseconds(10));
  EXPECT_EQ(done[1], Milliseconds(1) + Microseconds(15));  // penalty + work
}

TEST(CpuPool, BusyCoreSkipsPenalty) {
  Simulator sim;
  CpuPool cpu(sim, CpuConfig{.cores = 1,
                             .cstate_idle_threshold = Microseconds(100),
                             .cstate_wake_penalty = Microseconds(5)});
  std::vector<Time> done;
  auto work = [](Simulator& s, CpuPool& c, std::vector<Time>& d) -> Task<void> {
    co_await c.Run(Microseconds(10));
    d.push_back(s.now());
  };
  sim.Spawn(work(sim, cpu, done));
  sim.PostAt(Microseconds(50), [&] { sim.Spawn(work(sim, cpu, done)); });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], Microseconds(60));  // no penalty: idle gap < threshold
}

// RunUntil(t) must not strand the wheel: when the next event lies beyond t
// in a later level-0 slot, a level-1/2/3 block or the overflow heap, the
// queue may cascade only up to t, so events posted afterwards into the gap
// (t, next] still fire in exact (t, seq) order. Each case stops at several
// points before the far event: inside its 256 ns block, just before that
// block, and far before it.
TEST(Simulator, RunUntilLeavesTheGapOpenForLaterPosts) {
  // Far events: level 0, level 1, level 2, level 3 and overflow (> 2^32 ns).
  for (const Time far : {Time{200}, Time{10'000}, Time{1'000'000},
                         Time{100'000'000}, Time{10'000'000'000}}) {
    for (const Time stop : {far - 1, (far >> 8 << 8) - 1, far / 2}) {
      if (stop < 5) continue;  // far's block starts at 0
      SCOPED_TRACE("far=" + std::to_string(far) +
                   " stop=" + std::to_string(stop));
      Simulator sim;
      std::vector<std::pair<Time, int>> posted;  // (t, id) in post order
      std::vector<int> fired;
      auto post = [&](Time t) {
        const int id = static_cast<int>(posted.size());
        posted.emplace_back(t, id);
        sim.PostAt(t, [&fired, id] { fired.push_back(id); });
      };
      post(5);
      post(far);
      post(far + 300);
      ASSERT_TRUE(sim.RunUntil(stop));
      ASSERT_EQ(fired, (std::vector<int>{0}));
      ASSERT_EQ(sim.now(), stop);
      for (const Time t : {stop, stop + 1, (stop + far) / 2, far - 1, far,
                           far + 1, far + 300}) {
        post(t);
      }
      sim.Run();
      std::vector<std::pair<Time, int>> want = posted;
      std::stable_sort(want.begin(), want.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      std::vector<int> want_ids;
      for (const auto& [t, id] : want) want_ids.push_back(id);
      EXPECT_EQ(fired, want_ids);
      EXPECT_EQ(sim.now(), far + 300);
      EXPECT_EQ(sim.posts_in_past(), 0);
    }
  }
}

// A past-time post is clamped to now() (it still runs, after already-queued
// same-time events) and surfaced via posts_in_past() rather than asserting:
// the clock must never run backwards, but the modeling bug is observable.
TEST(Simulator, PastTimePostClampsToNowAndCounts) {
  Simulator sim;
  std::vector<int> order;
  sim.PostAt(100, [&] {
    order.push_back(1);
    sim.PostAt(50, [&] { order.push_back(2); });  // in the past: clamp to 100
    sim.PostAt(100, [&] { order.push_back(3); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
  EXPECT_EQ(sim.posts_in_past(), 1);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, PastTimeSpawnAfterRunUntil) {
  Simulator sim;
  bool ran = false;
  sim.RunUntil(1000);  // advances now() with an empty queue
  EXPECT_EQ(sim.posts_in_past(), 0);
  sim.PostAt(10, [&] { ran = true; });  // t < now(): clamped, not dropped
  EXPECT_EQ(sim.posts_in_past(), 1);
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now(), 1000);
}

// Event callables are destroyed in a deterministic order: an executed
// event's callable dies immediately after it runs (before the next event
// fires), and unexecuted callables die in wheel order at simulator
// teardown. Regression test for the old const_cast top-pop Step(), where
// destruction piggybacked on priority_queue internals.
TEST(Simulator, CallbackDestructionOrderIsDeterministic) {
  struct Tracker {
    std::vector<int>* log;
    int id;
    bool armed = true;
    Tracker(std::vector<int>* log, int id) : log(log), id(id) {}
    Tracker(Tracker&& o) noexcept
        : log(o.log), id(o.id), armed(std::exchange(o.armed, false)) {}
    Tracker(const Tracker& o) : log(o.log), id(o.id), armed(o.armed) {}
    ~Tracker() {
      if (armed) log->push_back(id);
    }
    void operator()() { log->push_back(100 + id); }
  };

  std::vector<int> log;
  {
    Simulator sim;
    sim.PostAt(10, Tracker(&log, 1));
    sim.PostAt(10, Tracker(&log, 2));
    sim.PostAt(20, Tracker(&log, 3));
    sim.RunUntil(10);
    // Events 1 and 2 ran at t=10; each callable was destroyed right after
    // it ran. Event 3 is still pending.
    EXPECT_EQ(log, (std::vector<int>{101, 1, 102, 2}));
  }
  // Teardown destroyed the pending callable exactly once, without running it.
  EXPECT_EQ(log, (std::vector<int>{101, 1, 102, 2, 3}));
}

}  // namespace
}  // namespace cm::sim
