#include "rma/hwrma.h"

namespace cm::rma {

HwRmaTransport::HwRmaTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                               const HwRmaConfig& config)
    : OneSidedTransport(fabric, rma_network, "hw"),
      config_(config) {
  exports_.ExportHistogram("cm.rma.hw_timestamps_ns", {{"transport", "hw"}},
                           &hw_timestamps_);
}

net::NicSide& HwRmaTransport::pcie(net::HostId host) {
  while (pcie_.size() <= host) {
    auto side = std::make_unique<net::NicSide>();
    side->bytes_per_ns = config_.pcie_gbps / 8.0;
    pcie_.push_back(std::move(side));
  }
  return *pcie_[host];
}

sim::Time HwRmaTransport::PostDone(net::HostId) {
  stats_.initiator_nic_ns += config_.nic_pipeline_latency;
  return fabric_.simulator().now() + config_.nic_pipeline_latency;
}

// Pure hardware on the target: one DMA reservation streams every entry's
// payload over PCIe, a shared resource, so heavy op rates queue here
// (Fig 16's slight rise).
sim::Time HwRmaTransport::ReadWorkDone(net::HostId target,
                                       std::span<const ReadVEntry> entries) {
  stats_.target_nic_ns += config_.nic_pipeline_latency;
  int64_t bytes = 0;
  for (const ReadVEntry& e : entries) bytes += e.length;
  const sim::Time dma_end =
      pcie(target)
          .Reserve(fabric_.simulator().now() + config_.pcie_base_latency, bytes)
          .second;
  return dma_end + config_.nic_pipeline_latency;
}

std::optional<sim::Time> HwRmaTransport::CompletionDone(net::HostId,
                                                        sim::Time posted) {
  hw_timestamps_.Record(fabric_.simulator().now() - posted);
  return std::nullopt;
}

}  // namespace cm::rma
