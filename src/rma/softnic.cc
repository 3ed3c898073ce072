#include "rma/softnic.h"

#include <algorithm>

namespace cm::rma {

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
  if (util > config_.scale_out_threshold && active_ < config_.max_engines) {
    ++active_;
  } else if (util < config_.scale_in_threshold && active_ > 1) {
    --active_;
  }
  window_start_ = now;
  window_busy_ns_ = 0;
}

SoftNicTransport::SoftNicTransport(net::Fabric& fabric,
                                   RmaNetwork& rma_network,
                                   const SoftNicConfig& config)
    : fabric_(fabric),
      rma_network_(rma_network),
      config_(config),
      exports_(&fabric.metrics()) {
  // The struct fields stay the storage; the registry reads them at snapshot
  // time. A later transport on the same fabric rebinds the names (latest
  // wins).
  const metrics::Labels l = {{"transport", "softnic"}};
  metrics::ExportCounters(exports_, "cm.rma.", l, stats_);
}

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

sim::Task<StatusOr<BufferView>> SoftNicTransport::Read(net::HostId initiator,
                                                       net::HostId target,
                                                  RegionId region,
                                                  uint64_t offset,
                                                  uint32_t length,
                                                  trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_read", parent, initiator);
  ++stats_.reads;

  // Initiator engine prepares and posts the command.
  stats_.initiator_nic_ns += config_.initiator_op_cost;
  co_await sim.WaitUntil(engines(initiator).Reserve(config_.initiator_op_cost));
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target, config_.command_bytes, span);
  if (!cmd.delivered || cmd.corrupt) {
    // Lost in the fabric, or the target NIC's link CRC rejected the frame:
    // either way no completion ever arrives and the op fails by timeout.
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma read command lost");
  }

  // Target engine executes the read against registered memory.
  stats_.target_nic_ns += config_.target_read_cost;
  co_await sim.WaitUntil(engines(target).Reserve(config_.target_read_cost));

  RmaHostState* host_state = rma_network_.Find(target);
  if (host_state == nullptr || host_state->registry == nullptr) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return UnavailableError("no rma host state for target");
  }
  // Materialize at this instant: a racing server-side mutation before
  // delivery is observed as a torn read by the client (by design; clients
  // validate). This is the one copy on the read path; everything downstream
  // shares the view.
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
    // Payload bit flip below the link CRC (DMA/memory corruption): delivered
    // as-is; only the client's end-to-end checksum can catch it (§5.1).
    // Copy-on-write: other holders of the buffer keep the pristine bytes.
    ++stats_.corrupt_deliveries;
    data = fabric_.faults()->CorruptCow(std::move(data));
  }
  // Initiator engine processes the completion.
  stats_.initiator_nic_ns += config_.initiator_op_cost / 2;
  co_await sim.WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost / 2));
  tracer.End(span, static_cast<int64_t>(data.size()));
  co_return data;
}

sim::Task<StatusOr<ScarResult>> SoftNicTransport::ScanAndRead(
    net::HostId initiator, net::HostId target, RegionId index_region,
    uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
    uint64_t hash_lo, trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_scar", parent, initiator);
  ++stats_.scars;

  stats_.initiator_nic_ns += config_.initiator_op_cost;
  co_await sim.WaitUntil(engines(initiator).Reserve(config_.initiator_op_cost));
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target, config_.command_bytes, span);
  if (!cmd.delivered || cmd.corrupt) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma scar command lost");
  }

  RmaHostState* host_state = rma_network_.Find(target);
  if (host_state == nullptr || !host_state->scar) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return UnimplementedError("target does not offer SCAR");
  }

  // Engine cost: base + per-entry scan work.
  const sim::Duration cost =
      config_.target_scar_cost +
      config_.scar_per_entry_scan_cost * (bucket_len / 64);
  stats_.target_nic_ns += cost;
  co_await sim.WaitUntil(engines(target).Reserve(cost));

  StatusOr<ScarResult> result = host_state->scar(
      hash_hi, hash_lo, index_region, bucket_offset, bucket_len);
  if (!result.ok()) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return result.status();
  }

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      config_.response_header_bytes +
          static_cast<int64_t>(result->bucket.size() + result->data.size()),
      span);
  if (!resp.delivered) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma scar completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr) {
    ++stats_.corrupt_deliveries;
    if (!result->data.empty()) {
      result->data = fabric_.faults()->CorruptCow(result->data.view());
    } else if (!result->bucket.empty()) {
      result->bucket = fabric_.faults()->CorruptCow(std::move(result->bucket));
    }
  }
  stats_.initiator_nic_ns += config_.initiator_op_cost / 2;
  co_await sim.WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost / 2));
  tracer.End(span,
             static_cast<int64_t>(result->bucket.size() + result->data.size()));
  co_return result;
}

sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>>
SoftNicTransport::ReadV(net::HostId initiator, net::HostId target,
                        std::vector<ReadVEntry> entries,
                        trace::SpanId parent) {
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

  // One doorbell for the whole vector; each extra entry rides along as a
  // 16-byte descriptor rather than its own command.
  stats_.initiator_nic_ns += config_.initiator_op_cost;
  co_await sim.WaitUntil(engines(initiator).Reserve(config_.initiator_op_cost));
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

  // Target engine: full service time for the first entry, incremental for
  // the rest (no per-entry wake or command parse).
  const sim::Duration cost =
      config_.target_read_cost + config_.target_vector_entry_cost * (n - 1);
  stats_.target_nic_ns += cost;
  co_await sim.WaitUntil(engines(target).Reserve(cost));

  RmaHostState* host_state = rma_network_.Find(target);
  if (host_state == nullptr || host_state->registry == nullptr) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return UnavailableError("no rma host state for target");
  }

  // Resolve every entry independently: a revoked window or bad pointer
  // fails its own slot, never the vector.
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
      target, initiator,
      config_.response_header_bytes + 4 * n + payload, span);
  if (!resp.delivered) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma readv completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr) {
    // A bit flip hits one payload, not the whole frame: corrupt the first
    // delivered entry (deterministic choice — no extra rng draw) so only
    // that key's validation fails and retries.
    ++stats_.corrupt_deliveries;
    for (StatusOr<BufferView>& slot : out) {
      if (slot.ok() && !slot->empty()) {
        slot = fabric_.faults()->CorruptCow(*std::move(slot));
        break;
      }
    }
  }
  stats_.initiator_nic_ns += config_.initiator_op_cost / 2;
  co_await sim.WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost / 2));
  tracer.End(span, payload);
  co_return out;
}

sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>>
SoftNicTransport::ScanAndReadV(net::HostId initiator, net::HostId target,
                               std::vector<ScarVEntry> entries,
                               trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_scarv", parent, initiator);
  const auto n = static_cast<int64_t>(entries.size());
  ++stats_.vector_scars;
  stats_.vector_entries += n;
  if (entries.empty()) {
    tracer.End(span, 0);
    co_return std::vector<StatusOr<ScarResult>>{};
  }

  stats_.initiator_nic_ns += config_.initiator_op_cost;
  co_await sim.WaitUntil(engines(initiator).Reserve(config_.initiator_op_cost));
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target,
      config_.command_bytes + config_.vector_entry_bytes * (n - 1), span);
  if (!cmd.delivered || cmd.corrupt) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma scarv command lost");
  }

  RmaHostState* host_state = rma_network_.Find(target);
  if (host_state == nullptr || !host_state->scar) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return UnimplementedError("target does not offer SCAR");
  }

  // Base dispatch once, then the per-bucket scan work of every entry plus
  // the incremental vector overhead.
  sim::Duration cost =
      config_.target_scar_cost + config_.target_vector_entry_cost * (n - 1);
  for (const ScarVEntry& e : entries) {
    cost += config_.scar_per_entry_scan_cost * (e.bucket_len / 64);
  }
  stats_.target_nic_ns += cost;
  co_await sim.WaitUntil(engines(target).Reserve(cost));

  std::vector<StatusOr<ScarResult>> out;
  out.reserve(entries.size());
  int64_t payload = 0;
  for (const ScarVEntry& e : entries) {
    StatusOr<ScarResult> one = host_state->scar(
        e.hash_hi, e.hash_lo, e.index_region, e.bucket_offset, e.bucket_len);
    if (one.ok()) {
      payload += static_cast<int64_t>(one->bucket.size() + one->data.size());
    }
    out.push_back(std::move(one));
  }

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      config_.response_header_bytes + 4 * n + payload, span);
  if (!resp.delivered) {
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma scarv completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr) {
    // Flip one payload only: prefer a data slice (client validation catches
    // it), else the first non-empty bucket.
    ++stats_.corrupt_deliveries;
    StatusOr<ScarResult>* victim = nullptr;
    for (StatusOr<ScarResult>& slot : out) {
      if (slot.ok() && !slot->data.empty()) {
        victim = &slot;
        break;
      }
    }
    if (victim == nullptr) {
      for (StatusOr<ScarResult>& slot : out) {
        if (slot.ok() && !slot->bucket.empty()) {
          victim = &slot;
          break;
        }
      }
    }
    if (victim != nullptr) {
      ScarResult& r = **victim;
      if (!r.data.empty()) {
        r.data = fabric_.faults()->CorruptCow(r.data.view());
      } else {
        r.bucket = fabric_.faults()->CorruptCow(std::move(r.bucket));
      }
    }
  }
  stats_.initiator_nic_ns += config_.initiator_op_cost / 2;
  co_await sim.WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost / 2));
  tracer.End(span, payload);
  co_return out;
}

sim::Task<StatusOr<Bytes>> SoftNicTransport::Message(
    net::HostId initiator, net::HostId target, Bytes payload,
    const std::function<sim::Task<StatusOr<Bytes>>(ByteSpan)>& handler,
    sim::Duration handler_cpu_cost, trace::SpanId parent) {
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("rma_msg", parent, initiator);
  ++stats_.messages;

  stats_.initiator_nic_ns += config_.initiator_op_cost;
  co_await sim.WaitUntil(engines(initiator).Reserve(config_.initiator_op_cost));
  net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target,
      config_.command_bytes + static_cast<int64_t>(payload.size()), span);
  if (!cmd.delivered || cmd.corrupt) {
    // Two-sided messaging carries a software checksum: a corrupted request
    // is discarded at the receiver, indistinguishable from a drop.
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma message request lost");
  }

  // Engine receives the message, then must wake an application thread — the
  // overhead that makes MSG significantly costlier than SCAR (Fig 7).
  stats_.target_nic_ns +=
      config_.target_read_cost + config_.target_msg_wake_cost;
  co_await sim.WaitUntil(engines(target).Reserve(config_.target_read_cost));
  co_await fabric_.host(target).cpu().Run(config_.target_msg_wake_cost +
                                          handler_cpu_cost);
  StatusOr<Bytes> response = co_await handler(payload);
  if (!response.ok()) {
    ++stats_.failed_ops;
    co_await fabric_.Transfer(target, initiator, config_.response_header_bytes);
    tracer.End(span, -1);
    co_return response.status();
  }

  net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      config_.response_header_bytes + static_cast<int64_t>(response->size()),
      span);
  if (!resp.delivered || resp.corrupt) {
    // The handler ran but the reply never reached the initiator: surfaces
    // as a timeout, never as silent success.
    ++stats_.failed_ops;
    ++stats_.op_timeouts;
    co_await sim.Delay(config_.op_timeout);
    tracer.End(span, -1);
    co_return DeadlineExceededError("rma message response lost");
  }
  stats_.initiator_nic_ns += config_.initiator_op_cost / 2;
  co_await sim.WaitUntil(
      engines(initiator).Reserve(config_.initiator_op_cost / 2));
  tracer.End(span, static_cast<int64_t>(response->size()));
  co_return response;
}

}  // namespace cm::rma
