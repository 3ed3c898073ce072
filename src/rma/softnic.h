// Software-defined NIC transport (Pony-Express-like).
//
// Each host runs a group of single-threaded NIC engines that process RMA
// commands serially. Engines "may time-multiplex a single core or each
// scale out to their own core in response to load" (§7.2.4): the group
// tracks utilization over a sliding window and activates/retires engines
// between 1 and `max_engines`, reproducing the scale-out heatmap of Fig 15.
//
// Supports the custom SCAR op (§6.3) via executors installed by backends.
#ifndef CM_RMA_SOFTNIC_H_
#define CM_RMA_SOFTNIC_H_

#include <memory>
#include <vector>

#include "rma/transport.h"

namespace cm::rma {

struct SoftNicConfig {
  // Engine service times.
  sim::Duration initiator_op_cost = sim::Nanoseconds(350);
  sim::Duration target_read_cost = sim::Nanoseconds(420);
  sim::Duration target_scar_cost = sim::Nanoseconds(520);

  int max_engines = 4;
  sim::Duration scale_window = sim::Milliseconds(1);
};

// Engine group for one host.
class EngineGroup {
 public:
  EngineGroup(sim::Simulator& sim, const SoftNicConfig& config);

  // Books `cost` of engine time; returns completion time. May trigger
  // scale-out/in decisions.
  sim::Time Reserve(sim::Duration cost);

  int active_engines() const { return active_; }
  int64_t total_busy_ns() const { return total_busy_ns_; }

 private:
  void MaybeRescale();

  sim::Simulator& sim_;
  const SoftNicConfig& config_;
  std::vector<sim::Time> busy_until_;
  int active_ = 1;
  int64_t total_busy_ns_ = 0;
  // Sliding utilization window.
  sim::Time window_start_ = 0;
  int64_t window_busy_ns_ = 0;
};

class SoftNicTransport : public OneSidedTransport {
 public:
  SoftNicTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                   const SoftNicConfig& config = {});

  bool SupportsScar() const override { return true; }

  // Two-sided messaging lookup path (the MSG strategy of Fig 7): delivers a
  // request to a host-CPU handler after an engine + thread-wake cost.
  sim::Task<StatusOr<Bytes>> Message(
      net::HostId initiator, net::HostId target, Bytes payload,
      const std::function<sim::Task<StatusOr<Bytes>>(ByteSpan)>& handler,
      sim::Duration handler_cpu_cost,
      trace::SpanId parent = trace::kNoSpan);

  // Per-host engine introspection (Fig 15 heatmap).
  EngineGroup& engines(net::HostId host);

 private:
  // Each phase books engine time on one host's group, charged to `nic_ns`.
  sim::Time Book(net::HostId host, sim::Duration cost, int64_t& nic_ns);
  sim::Time PostDone(net::HostId initiator) override;
  sim::Time ReadWorkDone(net::HostId target,
                         std::span<const ReadVEntry> entries) override;
  sim::Time ScarWorkDone(net::HostId target,
                         std::span<const ScarVEntry> entries) override;
  std::optional<sim::Time> CompletionDone(net::HostId initiator,
                                          sim::Time posted) override;

  SoftNicConfig config_;
  std::vector<std::unique_ptr<EngineGroup>> engines_;
};

}  // namespace cm::rma

#endif  // CM_RMA_SOFTNIC_H_
