// Host CPU model: a pool of cores with earliest-free scheduling, optional
// C-state wake penalty (paper §7.2.4: "the highest latency is observed at
// the lowest load ... due to power-saving C-state transitions"), and
// cumulative busy-time accounting (used to report CPU-s/s, Fig 19, and
// CPU-us/op, Figs 6b/7).
#ifndef CM_SIM_CPU_H_
#define CM_SIM_CPU_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace cm::sim {

struct CpuConfig {
  int cores = 8;
  // A core idle longer than this pays the wake penalty before starting work.
  Duration cstate_idle_threshold = Microseconds(200);
  Duration cstate_wake_penalty = 0;  // 0 disables C-state modeling
};

class CpuPool {
 public:
  CpuPool(Simulator& sim, const CpuConfig& config);

  // Awaitable: queues `work` of CPU time onto the earliest-free core when
  // the caller suspends, and resumes the caller when the work completes.
  // It runs no coroutine of its own (no frame to allocate) and is
  // trivially destructible, so gcc 12's double destruction of awaiter
  // temporaries (sim/sync.h) cannot touch it.
  struct [[nodiscard]] RunAwaiter {
    CpuPool* pool;
    Duration work;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      pool->sim_.ScheduleAt(pool->Reserve(work), h);
    }
    void await_resume() const noexcept {}
  };
  RunAwaiter Run(Duration work) { return RunAwaiter{this, work}; }

  // Reserves CPU time without suspending (for modeled background load whose
  // completion nobody awaits). Returns completion time.
  Time Reserve(Duration work);

  int cores() const { return static_cast<int>(busy_until_.size()); }

  // Total CPU-busy nanoseconds consumed since construction (sum over cores).
  int64_t total_busy_ns() const { return total_busy_ns_; }

  // Fraction of capacity busy at this instant (cores with pending work).
  double InstantaneousUtilization() const;

 private:
  Simulator& sim_;
  CpuConfig config_;
  std::vector<Time> busy_until_;
  int64_t total_busy_ns_ = 0;
};

}  // namespace cm::sim

#endif  // CM_SIM_CPU_H_
