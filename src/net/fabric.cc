#include "net/fabric.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cm::net {

std::pair<sim::Time, sim::Time> NicSide::Reserve(sim::Time earliest,
                                                 int64_t wire_bytes) {
  sim::Time start = std::max(earliest, busy_until);
  auto ser = static_cast<sim::Duration>(double(wire_bytes) / bytes_per_ns);
  sim::Time end = start + std::max<sim::Duration>(ser, 1);
  busy_until = end;
  total_bytes += wire_bytes;
  return {start, end};
}

Host::Host(sim::Simulator& sim, HostId id, const HostConfig& config)
    : id_(id), cpu_(sim, config.cpu) {
  // gbps -> bytes per ns: X Gb/s = X/8 GB/s = X/8 bytes/ns.
  tx_.bytes_per_ns = config.nic_gbps / 8.0;
  rx_.bytes_per_ns = config.nic_gbps / 8.0;
}

Fabric::Fabric(sim::Simulator& sim, const FabricConfig& config)
    : sim_(sim), config_(config), host_exports_(&metrics_) {
  tracer_.SetClock([this] { return sim_.now(); });
  transfers_ = metrics_.AddCounter("cm.fabric.transfers");
  wire_bytes_ = metrics_.AddCounter("cm.fabric.wire_bytes");
  // Hot-path health gauges (DESIGN.md §10): payload bytes that crossed a
  // buffer-layer copy (process-wide; ~one materialization per RMA read when
  // the zero-copy path is intact), and scheduler posts that targeted the
  // past and were clamped (a modeling bug worth surfacing, never fatal).
  host_exports_.ExportGauge("cm.net.bytes_copied", {},
                            [] { return BufferStats::bytes_copied(); });
  host_exports_.ExportGauge("cm.sim.post_in_past", {},
                            [this] { return sim_.posts_in_past(); });
}

Fabric::~Fabric() {
  // A plan can outlive the fabric (tests hold shared_ptrs); make sure its
  // exports stop referencing our registry first.
  if (faults_ != nullptr) faults_->BindMetrics(nullptr);
}

void Fabric::InstallFaults(std::shared_ptr<FaultPlan> plan) {
  if (faults_ != nullptr) faults_->BindMetrics(nullptr);
  faults_ = std::move(plan);
  if (faults_ != nullptr) faults_->BindMetrics(&metrics_);
}

HostId Fabric::AddHost(const HostConfig& config) {
  auto id = static_cast<HostId>(hosts_.size());
  hosts_.push_back(std::make_unique<Host>(sim_, id, config));
  Host* h = hosts_.back().get();
  const metrics::Labels labels = {{"host", std::to_string(id)}};
  host_exports_.ExportGauge("cm.host.tx_bytes", labels,
                            [h] { return h->tx().total_bytes; });
  host_exports_.ExportGauge("cm.host.rx_bytes", labels,
                            [h] { return h->rx().total_bytes; });
  host_exports_.ExportGauge("cm.host.cpu_busy_ns", labels,
                            [h] { return h->cpu().total_busy_ns(); });
  return id;
}

namespace {
constexpr int64_t kMtuBytes = 5000;        // 5KB MTU per the paper
constexpr int64_t kPerFrameOverhead = 80;  // headers per MTU frame
}  // namespace

int64_t Fabric::WireBytes(int64_t payload_bytes) const {
  int64_t frames =
      std::max<int64_t>(1, (payload_bytes + kMtuBytes - 1) / kMtuBytes);
  return payload_bytes + frames * kPerFrameOverhead;
}

sim::Time Fabric::ReserveTransfer(HostId src, HostId dst,
                                  int64_t payload_bytes) {
  assert(src < hosts_.size() && dst < hosts_.size());
  const int64_t wire = WireBytes(payload_bytes);
  Host& s = *hosts_[src];
  Host& d = *hosts_[dst];

  auto [tx_start, tx_end] = s.tx().Reserve(sim_.now(), wire);
  (void)tx_end;
  // First byte reaches the receiver after propagation; the receive side then
  // serializes the frame train (pipelined with transmit in wall-clock time).
  sim::Time rx_earliest = tx_start + config_.base_rtt / 2;
  auto [rx_start, rx_end] = d.rx().Reserve(rx_earliest, wire);
  (void)rx_start;
  return rx_end;
}

sim::Task<void> Fabric::Transfer(HostId src, HostId dst,
                                 int64_t payload_bytes) {
  // Two-phase booking: the tx side is reserved now, but the rx side is
  // reserved only when the first byte actually reaches the receiver —
  // otherwise a transfer leaving a congested sender would block the
  // receiver's idle line ahead of time.
  assert(src < hosts_.size() && dst < hosts_.size());
  const int64_t wire = WireBytes(payload_bytes);
  auto [tx_start, tx_end] = hosts_[src]->tx().Reserve(sim_.now(), wire);
  co_await sim_.WaitUntil(tx_start + config_.base_rtt / 2);
  auto [rx_start, rx_end] = hosts_[dst]->rx().Reserve(sim_.now(), wire);
  (void)rx_start;
  co_await sim_.WaitUntil(std::max(rx_end, tx_end + config_.base_rtt / 2));
}

sim::Task<MessageFate> Fabric::TransferFaulty(HostId src, HostId dst,
                                              int64_t payload_bytes,
                                              trace::SpanId parent) {
  assert(src < hosts_.size() && dst < hosts_.size());
  transfers_->Inc();
  MessageFate fate;
  if (faults_ != nullptr) {
    // A paused source NIC moves no bytes: the send begins after the stall.
    const sim::Time resume = faults_->PausedUntil(sim_.now(), src);
    if (resume > sim_.now()) {
      faults_->NotePauseStall(sim_.now(), src);
      co_await sim_.WaitUntil(resume);
    }
    fate = faults_->Roll(sim_.now(), src, dst);
  }
  const int64_t wire = WireBytes(payload_bytes);
  const int64_t wire_total = fate.duplicate ? 2 * wire : wire;
  wire_bytes_->Add(wire_total);
  auto [tx_start, tx_end] = hosts_[src]->tx().Reserve(sim_.now(), wire_total);
  tracer_.AddSpan("fabric_tx", parent, tx_start, tx_end, src, wire_total);
  if (!fate.delivered) {
    // Dropped / partition-blocked: the sender pays serialization, nothing
    // reaches the receiver. The caller imposes its own timeout semantics.
    co_await sim_.WaitUntil(tx_end);
    co_return fate;
  }
  co_await sim_.WaitUntil(tx_start + config_.base_rtt / 2 + fate.extra_delay);
  if (faults_ != nullptr) {
    // A paused destination NIC cannot accept the frame train.
    const sim::Time resume = faults_->PausedUntil(sim_.now(), dst);
    if (resume > sim_.now()) {
      faults_->NotePauseStall(sim_.now(), dst);
      co_await sim_.WaitUntil(resume);
    }
  }
  auto [rx_start, rx_end] = hosts_[dst]->rx().Reserve(sim_.now(), wire_total);
  tracer_.AddSpan("fabric_rx", parent, rx_start, rx_end, dst, wire_total);
  co_await sim_.WaitUntil(std::max(rx_end, tx_end + config_.base_rtt / 2));
  co_return fate;
}

int Fabric::StartAntagonist(HostId target, double gbps, bool tx_side,
                            bool rx_side, sim::Duration max_backlog) {
  auto a = std::make_shared<Antagonist>(
      Antagonist{target, gbps, tx_side, rx_side, max_backlog});
  antagonists_.push_back(a);
  sim_.Spawn(RunAntagonist(a));
  return static_cast<int>(antagonists_.size()) - 1;
}

void Fabric::StopAntagonist(int id) {
  if (id >= 0 && id < static_cast<int>(antagonists_.size())) {
    antagonists_[id]->stopped = true;
  }
}

sim::Task<void> Fabric::RunAntagonist(std::shared_ptr<Antagonist> a) {
  // Inject demand in 10us slices so real traffic interleaves with (rather
  // than being fully starved by) the antagonist.
  constexpr sim::Duration kSlice = sim::Microseconds(10);
  auto inject = [&](NicSide& side, int64_t bytes) {
    // A backpressured sender: do not let the standing queue exceed
    // max_backlog of serialization time.
    const sim::Time backlog_limit = sim_.now() + a->max_backlog;
    if (side.busy_until >= backlog_limit) return;
    const auto headroom = static_cast<int64_t>(
        double(backlog_limit - std::max(side.busy_until, sim_.now())) *
        side.bytes_per_ns);
    side.Reserve(sim_.now(), std::min(bytes, headroom));
  };
  while (!a->stopped) {
    const auto bytes =
        static_cast<int64_t>(a->gbps / 8.0 * double(kSlice));  // bytes/slice
    Host& h = *hosts_[a->target];
    if (a->tx_side) inject(h.tx(), bytes);
    if (a->rx_side) inject(h.rx(), bytes);
    co_await sim_.Delay(kSlice);
  }
}

}  // namespace cm::net
