#include "sim/cpu.h"

#include <algorithm>
#include <cassert>

namespace cm::sim {

CpuPool::CpuPool(Simulator& sim, const CpuConfig& config)
    : sim_(sim), config_(config) {
  assert(config.cores > 0);
  busy_until_.assign(static_cast<size_t>(config.cores), Time{0});
}

Time CpuPool::Reserve(Duration work) {
  auto it = std::min_element(busy_until_.begin(), busy_until_.end());
  Time start = std::max(sim_.now(), *it);
  if (config_.cstate_wake_penalty > 0 &&
      *it + config_.cstate_idle_threshold < sim_.now()) {
    start += config_.cstate_wake_penalty;
  }
  Time end = start + work;
  *it = end;
  total_busy_ns_ += work;
  return end;
}

double CpuPool::InstantaneousUtilization() const {
  int busy = 0;
  for (Time t : busy_until_) {
    if (t > sim_.now()) ++busy;
  }
  return static_cast<double>(busy) / static_cast<double>(busy_until_.size());
}

}  // namespace cm::sim
