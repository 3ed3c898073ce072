#include "rma/softnic.h"

#include <algorithm>

namespace cm::rma {

namespace {
// Window utilization above which a group adds an engine, and below which it
// retires one.
constexpr double kScaleOutThreshold = 0.80;
constexpr double kScaleInThreshold = 0.25;
// Each vector entry past the first adds an incremental slice of engine
// time, not a full service time: the amortization MultiGet exploits.
constexpr sim::Duration kTargetVectorEntryCost = sim::Nanoseconds(120);
// SCAR scan work per 64 B of bucket.
constexpr sim::Duration kScarPerEntryScanCost = sim::Nanoseconds(8);
// Two-sided messaging: the engine must wake a server application thread.
constexpr sim::Duration kTargetMsgWakeCost = sim::Microseconds(2);
}  // namespace

EngineGroup::EngineGroup(sim::Simulator& sim, const SoftNicConfig& config)
    : sim_(sim), config_(config) {
  busy_until_.assign(static_cast<size_t>(config.max_engines), sim::Time{0});
}

sim::Time EngineGroup::Reserve(sim::Duration cost) {
  // Least-loaded active engine.
  auto begin = busy_until_.begin();
  auto it = std::min_element(begin, begin + active_);
  sim::Time start = std::max(sim_.now(), *it);
  sim::Time end = start + cost;
  *it = end;
  total_busy_ns_ += cost;
  window_busy_ns_ += cost;
  MaybeRescale();
  return end;
}

void EngineGroup::MaybeRescale() {
  const sim::Time now = sim_.now();
  if (now - window_start_ < config_.scale_window) return;
  const double capacity =
      double(active_) * double(now - window_start_);
  const double util = capacity > 0 ? double(window_busy_ns_) / capacity : 0.0;
  if (util > kScaleOutThreshold && active_ < config_.max_engines) {
    ++active_;
  } else if (util < kScaleInThreshold && active_ > 1) {
    --active_;
  }
  window_start_ = now;
  window_busy_ns_ = 0;
}

SoftNicTransport::SoftNicTransport(net::Fabric& fabric,
                                   RmaNetwork& rma_network,
                                   const SoftNicConfig& config)
    : OneSidedTransport(fabric, rma_network, "softnic"),
      config_(config) {}

EngineGroup& SoftNicTransport::engines(net::HostId host) {
  while (engines_.size() <= host) {
    const auto id = static_cast<net::HostId>(engines_.size());
    engines_.push_back(
        std::make_unique<EngineGroup>(fabric_.simulator(), config_));
    EngineGroup* g = engines_.back().get();
    const metrics::Labels l = {{"host", std::to_string(id)},
                               {"transport", "softnic"}};
    exports_.ExportGauge("cm.rma.active_engines", l,
                         [g] { return int64_t{g->active_engines()}; });
    exports_.ExportGauge("cm.rma.engine_busy_ns", l,
                         [g] { return g->total_busy_ns(); });
  }
  return *engines_[host];
}

sim::Time SoftNicTransport::Book(net::HostId host, sim::Duration cost,
                                 int64_t& nic_ns) {
  nic_ns += cost;
  return engines(host).Reserve(cost);
}

sim::Time SoftNicTransport::PostDone(net::HostId initiator) {
  return Book(initiator, config_.initiator_op_cost, stats_.initiator_nic_ns);
}

// The target engine pays the full service time for the first entry and an
// incremental slice for each other (no per-entry wake or command parse).
sim::Time SoftNicTransport::ReadWorkDone(net::HostId target,
                                         std::span<const ReadVEntry> entries) {
  const auto extra = static_cast<int64_t>(entries.size()) - 1;
  return Book(target, config_.target_read_cost + kTargetVectorEntryCost * extra,
              stats_.target_nic_ns);
}

// SCAR adds the per-bucket scan work of every entry.
sim::Time SoftNicTransport::ScarWorkDone(net::HostId target,
                                         std::span<const ScarVEntry> entries) {
  const auto extra = static_cast<int64_t>(entries.size()) - 1;
  sim::Duration cost =
      config_.target_scar_cost + kTargetVectorEntryCost * extra;
  for (const ScarVEntry& e : entries) {
    cost += kScarPerEntryScanCost * (e.bucket_len / 64);
  }
  return Book(target, cost, stats_.target_nic_ns);
}

std::optional<sim::Time> SoftNicTransport::CompletionDone(net::HostId initiator,
                                                          sim::Time) {
  return Book(initiator, config_.initiator_op_cost / 2,
              stats_.initiator_nic_ns);
}

sim::Task<StatusOr<Bytes>> SoftNicTransport::Message(
    net::HostId initiator, net::HostId target, Bytes payload,
    const std::function<sim::Task<StatusOr<Bytes>>(ByteSpan)>& handler,
    sim::Duration handler_cpu_cost, trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_msg", parent, initiator);
  ++stats_.messages;

  co_await sim.WaitUntil(PostDone(initiator));
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target,
      kCommandBytes + static_cast<int64_t>(payload.size()), span);
  if (!cmd.delivered || cmd.corrupt) {
    // Two-sided messaging carries a software checksum: a corrupted request
    // is discarded at the receiver, indistinguishable from a drop.
    co_await TimedOut(span);
    co_return DeadlineExceededError("rma_msg request lost");
  }

  // Engine receives the message, then must wake an application thread — the
  // overhead that makes MSG significantly costlier than SCAR (Fig 7).
  stats_.target_nic_ns += kTargetMsgWakeCost;
  co_await sim.WaitUntil(
      Book(target, config_.target_read_cost, stats_.target_nic_ns));
  co_await fabric_.host(target).cpu().Run(kTargetMsgWakeCost +
                                          handler_cpu_cost);
  StatusOr<Bytes> response = co_await handler(payload);
  if (!response.ok()) {
    co_await Refused(target, initiator, span);
    co_return response.status();
  }

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      kResponseHeaderBytes + static_cast<int64_t>(response->size()),
      span);
  if (!resp.delivered || resp.corrupt) {
    // The handler ran but the reply never reached the initiator: surfaces
    // as a timeout, never as silent success.
    co_await TimedOut(span);
    co_return DeadlineExceededError("rma_msg response lost");
  }
  co_await sim.WaitUntil(*CompletionDone(initiator, 0));
  tracer.End(span, static_cast<int64_t>(response->size()));
  co_return response;
}

}  // namespace cm::rma
