// Helpers shared by the cell-level tests.
#ifndef CM_TESTS_TEST_UTIL_H_
#define CM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>

#include "sim/simulator.h"
#include "sim/task.h"

namespace cm {

// Runs a task to completion, draining the simulator, and returns its result.
template <typename T>
T RunOp(sim::Simulator& sim, sim::Task<T> task) {
  auto out = std::make_shared<std::optional<T>>();
  sim.Spawn([](sim::Task<T> t,
               std::shared_ptr<std::optional<T>> out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), out));
  sim.Run();
  EXPECT_TRUE(out->has_value()) << "op did not complete";
  return **out;
}

// The same for a task with no result (a repair scan, a touch flush).
inline void RunOp(sim::Simulator& sim, sim::Task<void> task) {
  auto done = std::make_shared<bool>(false);
  sim.Spawn([](sim::Task<void> t, std::shared_ptr<bool> done)
                -> sim::Task<void> {
    co_await std::move(t);
    *done = true;
  }(std::move(task), done));
  sim.Run();
  EXPECT_TRUE(*done) << "op did not complete";
}

}  // namespace cm

#endif  // CM_TESTS_TEST_UTIL_H_
