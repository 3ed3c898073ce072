// Datacenter fabric model.
//
// Each host has a full-duplex NIC modeled as independent tx and rx
// serialization resources (bytes/ns with a busy-until horizon), matching the
// paper's testbed description (§7.2.4: "a fabric capable of 50Gbps sustained
// and 100Gbps burst per host", 5KB MTU). A one-way transfer pays:
//
//     tx queueing + tx serialization  ->  propagation (base_rtt/2)
//        ->  rx queueing + rx serialization
//
// Congestion is emergent: concurrent transfers queue on the busy-until
// horizons, so SCAR incast (Fig 12), antagonist interference (Fig 11), and
// downlink saturation under batching (Fig 8 commentary) fall out of the
// model rather than being scripted.
#ifndef CM_NET_FABRIC_H_
#define CM_NET_FABRIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "net/faults.h"
#include "sim/cpu.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "sim/time.h"

namespace cm::net {

using HostId = uint32_t;
constexpr HostId kInvalidHost = ~HostId{0};

struct NicSide {
  double bytes_per_ns = 0;
  sim::Time busy_until = 0;
  int64_t total_bytes = 0;

  // Reserves the medium for `wire_bytes` beginning no earlier than
  // `earliest`; returns [start, end) of the reservation.
  std::pair<sim::Time, sim::Time> Reserve(sim::Time earliest,
                                          int64_t wire_bytes);
};

struct HostConfig {
  double nic_gbps = 50.0;
  sim::CpuConfig cpu;
};

class Host {
 public:
  Host(sim::Simulator& sim, HostId id, const HostConfig& config);

  HostId id() const { return id_; }
  NicSide& tx() { return tx_; }
  NicSide& rx() { return rx_; }
  sim::CpuPool& cpu() { return cpu_; }
  const sim::CpuPool& cpu() const { return cpu_; }

 private:
  HostId id_;
  NicSide tx_;
  NicSide rx_;
  sim::CpuPool cpu_;
};

struct FabricConfig {
  sim::Duration base_rtt = sim::Microseconds(4);  // propagation + switching
};

class Fabric {
 public:
  Fabric(sim::Simulator& sim, const FabricConfig& config);
  ~Fabric();

  HostId AddHost(const HostConfig& config);
  size_t host_count() const { return hosts_.size(); }
  Host& host(HostId id) { return *hosts_[id]; }
  const Host& host(HostId id) const { return *hosts_[id]; }

  sim::Simulator& simulator() { return sim_; }
  const FabricConfig& config() const { return config_; }

  // Observability --------------------------------------------------------
  // The fabric owns the cell's metrics registry and tracer: it is
  // constructed first and destroyed last (see Cell's member order), so every
  // component above it can safely export slots for its own lifetime. The
  // tracer's clock is the simulator's.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }
  trace::Tracer& tracer() { return tracer_; }

  // Wire bytes including MTU framing overhead.
  int64_t WireBytes(int64_t payload_bytes) const;

  // Books a one-way transfer; returns delivery (last byte at rx) time.
  sim::Time ReserveTransfer(HostId src, HostId dst, int64_t payload_bytes);

  // Awaitable transfer: suspends the caller until delivery. Fault-blind
  // (always delivers); serving paths use TransferFaulty instead.
  sim::Task<void> Transfer(HostId src, HostId dst, int64_t payload_bytes);

  // Fault injection ------------------------------------------------------
  // Attaches a fault plan; all subsequent TransferFaulty calls roll against
  // it. Pass nullptr to stop injecting. The installed plan's FaultStats are
  // exported into the registry (and the previous plan's export unbound).
  void InstallFaults(std::shared_ptr<FaultPlan> plan);
  FaultPlan* faults() { return faults_.get(); }

  // Awaitable transfer that consults the fault plan: the returned fate says
  // whether the message was delivered, and whether its payload must be
  // corrupted / was duplicated / was spike-delayed. A dropped or blocked
  // message still pays tx serialization (the frame dies in the fabric);
  // pauses stall the transfer on whichever side is paused. With no plan
  // installed this is exactly Transfer(). When `parent` is a live span,
  // fabric_tx / fabric_rx child spans record the serialization intervals.
  sim::Task<MessageFate> TransferFaulty(
      HostId src, HostId dst, int64_t payload_bytes,
      trace::SpanId parent = trace::kNoSpan);

  // Sustained background demand on a host's NIC (antagonist, §7.2.1). The
  // demand competes for tx and rx serialization with real traffic. When the
  // demand saturates the NIC the antagonist maintains a standing queue of
  // up to `max_backlog` (a backpressured sender), which is what inflates
  // victim latency in Fig 11. Returns an id usable with StopAntagonist.
  int StartAntagonist(HostId target, double gbps, bool tx_side, bool rx_side,
                      sim::Duration max_backlog = sim::Microseconds(150));
  void StopAntagonist(int id);

 private:
  struct Antagonist {
    HostId target;
    double gbps;
    bool tx_side;
    bool rx_side;
    sim::Duration max_backlog;
    bool stopped = false;
  };

  sim::Task<void> RunAntagonist(std::shared_ptr<Antagonist> a);

  sim::Simulator& sim_;
  FabricConfig config_;
  // Registry + tracer first: destroyed after everything that exports into
  // them (hosts below, components above via Cell's member order).
  metrics::Registry metrics_;
  trace::Tracer tracer_;
  metrics::ExportGroup host_exports_;
  metrics::Counter* transfers_ = nullptr;
  metrics::Counter* wire_bytes_ = nullptr;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::shared_ptr<Antagonist>> antagonists_;
  std::shared_ptr<FaultPlan> faults_;
};

}  // namespace cm::net

#endif  // CM_NET_FABRIC_H_
