// All-hardware one-sided transport (1RMA-like), plus a classic-RDMA config.
//
// "1RMA's serving path is entirely hardware ... 1RMA also significantly
// optimizes interaction between the NIC and the server memory system via
// PCIe, so the application-visible RTT for 1RMA is lower" (§7.2.4). No
// engines, no server CPU: per-op cost is a fixed NIC pipeline delay plus a
// PCIe resource that queues under load. The transport records hardware
// (fabric + PCIe) timestamps per op, reproducing Fig 16's measurement.
//
// No SCAR: hardware is fast but inflexible (§9), so lookups use 2xR.
#ifndef CM_RMA_HWRMA_H_
#define CM_RMA_HWRMA_H_

#include <memory>
#include <vector>

#include "common/histogram.h"
#include "rma/transport.h"

namespace cm::rma {

struct HwRmaConfig {
  // Fixed NIC pipeline latency per op, each side.
  sim::Duration nic_pipeline_latency = sim::Nanoseconds(300);
  // PCIe read of the target memory: DMA setup + payload at pcie_gbps.
  sim::Duration pcie_base_latency = sim::Nanoseconds(600);
  double pcie_gbps = 128.0;

  static HwRmaConfig OneRma() { return HwRmaConfig{}; }
  static HwRmaConfig ClassicRdma() {
    HwRmaConfig c;
    c.nic_pipeline_latency = sim::Nanoseconds(900);
    c.pcie_base_latency = sim::Nanoseconds(1500);
    c.pcie_gbps = 64.0;
    return c;
  }
};

class HwRmaTransport : public OneSidedTransport {
 public:
  HwRmaTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                 const HwRmaConfig& config = HwRmaConfig::OneRma());

  // Hardware offers no SCAR, vectored or not.
  bool SupportsScar() const override { return false; }

  // Hardware-emitted fabric+PCIe latency per op (Fig 16's heatmap source).
  const Histogram& hw_timestamps() const { return hw_timestamps_; }
  void ResetHwTimestamps() { hw_timestamps_.Reset(); }

 private:
  // Per-target-host PCIe serialization resource.
  net::NicSide& pcie(net::HostId host);

  sim::Time PostDone(net::HostId initiator) override;
  sim::Time ReadWorkDone(net::HostId target,
                         std::span<const ReadVEntry> entries) override;
  std::optional<sim::Time> CompletionDone(net::HostId initiator,
                                          sim::Time posted) override;

  HwRmaConfig config_;
  Histogram hw_timestamps_;
  std::vector<std::unique_ptr<net::NicSide>> pcie_;
};

}  // namespace cm::rma

#endif  // CM_RMA_HWRMA_H_
