#include "rma/hwrma.h"

namespace cm::rma {

HwRmaTransport::HwRmaTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                               const HwRmaConfig& config)
    : fabric_(fabric),
      rma_network_(rma_network),
      config_(config),
      exports_(&fabric.metrics()) {
  const metrics::Labels l = {{"transport", "hw"}};
  metrics::ExportCounters(exports_, "cm.rma.", l, stats_);
  exports_.ExportHistogram("cm.rma.hw_timestamps_ns", l, &hw_timestamps_);
}

net::NicSide& HwRmaTransport::pcie(net::HostId host) {
  while (pcie_.size() <= host) {
    auto side = std::make_unique<net::NicSide>();
    side->bytes_per_ns = config_.pcie_gbps / 8.0;
    pcie_.push_back(std::move(side));
  }
  return *pcie_[host];
}

sim::Task<StatusOr<BufferView>> HwRmaTransport::Read(net::HostId initiator,
                                                     net::HostId target,
                                                     RegionId region,
                                                     uint64_t offset,
                                                     uint32_t length,
                                                     trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_read", parent, initiator);
  ++stats_.reads;
  const sim::Time hw_start = sim.now();

  // Initiator NIC pipeline + command on the wire.
  stats_.initiator_nic_ns += config_.nic_pipeline_latency;
  co_await sim.Delay(config_.nic_pipeline_latency);
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target, config_.command_bytes, span);
  if (!cmd.delivered || cmd.corrupt) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma read command lost");
  }

  // Target-side: pure hardware. DMA the payload over PCIe; the PCIe link is
  // a shared resource, so heavy op rates queue here (Fig 16's slight rise).
  stats_.target_nic_ns += config_.nic_pipeline_latency;
  auto [dma_start, dma_end] =
      pcie(target).Reserve(sim.now() + config_.pcie_base_latency, length);
  (void)dma_start;
  co_await sim.WaitUntil(dma_end + config_.nic_pipeline_latency);

  RmaHostState* host_state = rma_network_.Find(target);
  if (host_state == nullptr || host_state->registry == nullptr) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return UnavailableError("no rma host state for target");
  }
  StatusOr<BufferView> mem =
      host_state->registry->ResolveView(region, offset, length);
  if (!mem.ok()) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return mem.status();
  }
  BufferView data = *std::move(mem);

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      config_.response_header_bytes + static_cast<int64_t>(data.size()), span);
  if (!resp.delivered) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma read completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr && !data.empty()) {
    ++stats_.corrupt_deliveries;
    data = fabric_.faults()->CorruptCow(std::move(data));
  }
  hw_timestamps_.Record(sim.now() - hw_start);
  tracer.End(span, static_cast<int64_t>(data.size()));
  co_return data;
}

sim::Task<StatusOr<ScarResult>> HwRmaTransport::ScanAndRead(
    net::HostId, net::HostId, RegionId, uint64_t, uint32_t, uint64_t,
    uint64_t, trace::SpanId) {
  ++stats_.failed_ops;
  co_return UnimplementedError("hardware RMA offers no SCAR primitive");
}

sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>> HwRmaTransport::ReadV(
    net::HostId initiator, net::HostId target,
    std::vector<ReadVEntry> entries, trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_readv", parent, initiator);
  const auto n = static_cast<int64_t>(entries.size());
  ++stats_.vector_reads;
  stats_.vector_entries += n;
  if (entries.empty()) {
    tracer.End(span, 0);
    co_return std::vector<StatusOr<BufferView>>{};
  }
  const sim::Time hw_start = sim.now();

  // One command carries the whole scatter list.
  stats_.initiator_nic_ns += config_.nic_pipeline_latency;
  co_await sim.Delay(config_.nic_pipeline_latency);
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target,
      config_.command_bytes + config_.vector_entry_bytes * (n - 1), span);
  if (!cmd.delivered || cmd.corrupt) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma readv command lost");
  }

  // One DMA reservation for the summed payload: the scatter engine streams
  // all entries in a single PCIe occupancy window.
  stats_.target_nic_ns += config_.nic_pipeline_latency;
  int64_t total_len = 0;
  for (const ReadVEntry& e : entries) total_len += e.length;
  auto [dma_start, dma_end] =
      pcie(target).Reserve(sim.now() + config_.pcie_base_latency, total_len);
  (void)dma_start;
  co_await sim.WaitUntil(dma_end + config_.nic_pipeline_latency);

  RmaHostState* host_state = rma_network_.Find(target);
  if (host_state == nullptr || host_state->registry == nullptr) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return UnavailableError("no rma host state for target");
  }
  std::vector<StatusOr<BufferView>> out;
  out.reserve(entries.size());
  int64_t payload = 0;
  for (const ReadVEntry& e : entries) {
    StatusOr<BufferView> mem =
        host_state->registry->ResolveView(e.region, e.offset, e.length);
    if (mem.ok()) payload += static_cast<int64_t>(mem->size());
    out.push_back(std::move(mem));
  }

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator, config_.response_header_bytes + 4 * n + payload,
      span);
  if (!resp.delivered) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma readv completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr) {
    // One bit flip, one victim entry (first delivered payload).
    ++stats_.corrupt_deliveries;
    for (StatusOr<BufferView>& slot : out) {
      if (slot.ok() && !slot->empty()) {
        slot = fabric_.faults()->CorruptCow(*std::move(slot));
        break;
      }
    }
  }
  hw_timestamps_.Record(sim.now() - hw_start);
  tracer.End(span, payload);
  co_return out;
}

sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>>
HwRmaTransport::ScanAndReadV(net::HostId, net::HostId,
                             std::vector<ScarVEntry>, trace::SpanId) {
  ++stats_.failed_ops;
  co_return UnimplementedError("hardware RMA offers no SCAR primitive");
}

}  // namespace cm::rma
