#include "rma/transport.h"

#include <type_traits>

#include "net/faults.h"

namespace cm::rma {
namespace {

// Per-op rules, carried by the op's result type: its entry type, whether it
// is a vector (which counts its entries, frames each slot with 4 B and fails
// per slot rather than per op), its counter and its span.
template <class E, bool kVec, int64_t RmaStats::*kCounter>
struct Rules {
  using Entry = E;
  static constexpr bool kVector = kVec;
  static constexpr int64_t RmaStats::*kCount = kCounter;
};
template <class Out>
struct OpRules;
template <>
struct OpRules<BufferView> : Rules<ReadVEntry, false, &RmaStats::reads> {
  static constexpr const char* kSpan = "rma_read";
};
template <>
struct OpRules<ScarResult> : Rules<ScarVEntry, false, &RmaStats::scars> {
  static constexpr const char* kSpan = "rma_scar";
};
template <>
struct OpRules<std::vector<StatusOr<BufferView>>>
    : Rules<ReadVEntry, true, &RmaStats::vector_reads> {
  static constexpr const char* kSpan = "rma_readv";
};
template <>
struct OpRules<std::vector<StatusOr<ScarResult>>>
    : Rules<ScarVEntry, true, &RmaStats::vector_scars> {
  static constexpr const char* kSpan = "rma_scarv";
};

// Whether the target host serves SCAR or reads, and its refusal if not.
bool Serves(const RmaHostState* host, bool scar) {
  return host != nullptr &&
         (scar ? static_cast<bool>(host->scar) : host->registry != nullptr);
}
Status Refusal(bool scar) {
  return scar ? UnimplementedError("target does not offer SCAR")
              : UnavailableError("no rma host state for target");
}

// Resolves one entry at the target's read instant: a racing server-side
// mutation before delivery is observed as a torn read by the client (by
// design; clients validate).
StatusOr<BufferView> Resolve(RmaHostState& host, const ReadVEntry& e) {
  return host.registry->ResolveView(e.region, e.offset, e.length);
}
StatusOr<ScarResult> Resolve(RmaHostState& host, const ScarVEntry& e) {
  return host.scar(e.hash_hi, e.hash_lo, e.index_region, e.bucket_offset,
                   e.bucket_len);
}

int64_t PayloadBytes(const BufferView& v) {
  return static_cast<int64_t>(v.size());
}
int64_t PayloadBytes(const ScarResult& r) {
  return static_cast<int64_t>(r.bucket.size() + r.data.size());
}

// A bit flip hits one payload, not the whole frame. The victim is the first
// slot of the highest rank (no extra rng draw): a SCAR's DataEntry, which
// client validation catches, before any bucket; never an empty payload.
int VictimRank(const BufferView& v) { return v.empty() ? 0 : 1; }
int VictimRank(const ScarResult& r) {
  return !r.data.empty() ? 2 : !r.bucket.empty() ? 1 : 0;
}
template <class T>
T* Victim(T& one) {
  return VictimRank(one) > 0 ? &one : nullptr;
}
template <class T>
T* Victim(std::vector<StatusOr<T>>& slots) {
  T* victim = nullptr;
  int rank = 0;
  for (StatusOr<T>& slot : slots) {
    if (slot.ok() && VictimRank(*slot) > rank) {
      victim = &*slot;
      rank = VictimRank(*slot);
    }
  }
  return victim;
}
// Copy-on-write: other holders of the buffer keep the pristine bytes.
void Flip(net::FaultPlan& faults, BufferView& v) {
  v = faults.CorruptCow(std::move(v));
}
void Flip(net::FaultPlan& faults, ScarResult& r) {
  Snapshot& victim = !r.data.empty() ? r.data : r.bucket;
  victim = faults.CorruptCow(victim.view());
}

}  // namespace

OneSidedTransport::OneSidedTransport(net::Fabric& fabric,
                                     RmaNetwork& rma_network,
                                     const char* label)
    : fabric_(fabric),
      rma_network_(rma_network),
      exports_(&fabric.metrics()) {
  // The struct fields stay the storage; the registry reads them at snapshot
  // time. A later transport on the same fabric rebinds the names (latest
  // wins).
  metrics::ExportCounters(exports_, "cm.rma.", {{"transport", label}},
                          stats_);
}

sim::Time OneSidedTransport::ScarWorkDone(net::HostId,
                                          std::span<const ScarVEntry>) {
  return fabric_.simulator().now();
}

sim::Task<void> OneSidedTransport::TimedOut(trace::SpanId span) {
  ++stats_.failed_ops;
  ++stats_.op_timeouts;
  co_await fabric_.simulator().Delay(kOpTimeout);
  fabric_.tracer().End(span, -1);
}

sim::Task<void> OneSidedTransport::Refused(net::HostId target,
                                           net::HostId initiator,
                                           trace::SpanId span) {
  ++stats_.failed_ops;
  co_await fabric_.Transfer(target, initiator, kResponseHeaderBytes);
  fabric_.tracer().End(span, -1);
}

template <class Out, class Request>
sim::Task<StatusOr<Out>> OneSidedTransport::Run(net::HostId initiator,
                                                net::HostId target,
                                                Request request,
                                                trace::SpanId parent) {
  using Rules = OpRules<Out>;
  using Entry = typename Rules::Entry;
  constexpr bool kScar = std::is_same_v<Entry, ScarVEntry>;
  if (kScar && !SupportsScar()) {
    ++stats_.failed_ops;
    co_return UnimplementedError("transport offers no SCAR primitive");
  }
  std::span<const Entry> entries;
  if constexpr (Rules::kVector) entries = request;
  if constexpr (!Rules::kVector) entries = {&request, 1};
  const auto n = static_cast<int64_t>(entries.size());
  sim::Simulator& sim = fabric_.simulator();
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin(Rules::kSpan, parent, initiator);
  ++(stats_.*Rules::kCount);
  if constexpr (Rules::kVector) {
    stats_.vector_entries += n;
    if (n == 0) {
      tracer.End(span, 0);
      co_return Out{};
    }
  }

  const sim::Time posted = sim.now();
  co_await sim.WaitUntil(PostDone(initiator));
  const net::MessageFate cmd = co_await fabric_.TransferFaulty(
      initiator, target, kCommandBytes + kVectorEntryBytes * (n - 1), span);
  if (!cmd.delivered || cmd.corrupt) {
    co_await TimedOut(span);
    co_return DeadlineExceededError("rma command lost");
  }

  if constexpr (kScar) {
    // A target that does not offer SCAR refuses it before any engine work.
    if (!Serves(rma_network_.Find(target), kScar)) {
      co_await Refused(target, initiator, span);
      co_return Refusal(kScar);
    }
    co_await sim.WaitUntil(ScarWorkDone(target, entries));
  } else {
    co_await sim.WaitUntil(ReadWorkDone(target, entries));
  }
  // Looked up after the work: a backend that stopped or crashed meanwhile
  // has detached its state.
  RmaHostState* host = rma_network_.Find(target);
  if (!Serves(host, kScar)) {
    co_await Refused(target, initiator, span);
    co_return Refusal(kScar);
  }
  // A single op fails as a whole; a vector fails only the slot, so one
  // miss never fails its batch-mates.
  Out out{};
  int64_t payload = 0;
  if constexpr (Rules::kVector) out.reserve(entries.size());
  for (const Entry& e : entries) {
    auto slot = Resolve(*host, e);
    if (slot.ok()) payload += PayloadBytes(*slot);
    if constexpr (Rules::kVector) {
      out.push_back(std::move(slot));
    } else if (!slot.ok()) {
      co_await Refused(target, initiator, span);
      co_return slot.status();
    } else {
      out = *std::move(slot);
    }
  }

  const net::MessageFate resp = co_await fabric_.TransferFaulty(
      target, initiator,
      kResponseHeaderBytes + (Rules::kVector ? 4 * n : 0) + payload,
      span);
  if (!resp.delivered) {
    co_await TimedOut(span);
    co_return DeadlineExceededError("rma completion lost");
  }
  if (resp.corrupt && fabric_.faults() != nullptr) {
    // A flip below the link CRC (DMA or memory corruption) is delivered as
    // is; only the client's end-to-end checksum can catch it (§5.1). A
    // single Read with nothing to flip delivers no corruption.
    auto* victim = Victim(out);
    if (victim != nullptr || !std::is_same_v<Out, BufferView>) {
      ++stats_.corrupt_deliveries;
    }
    if (victim != nullptr) Flip(*fabric_.faults(), *victim);
  }
  if (const std::optional<sim::Time> done = CompletionDone(initiator, posted)) {
    co_await sim.WaitUntil(*done);
  }
  tracer.End(span, payload);
  co_return out;
}

sim::Task<StatusOr<BufferView>> OneSidedTransport::Read(
    net::HostId initiator, net::HostId target, RegionId region,
    uint64_t offset, uint32_t length, trace::SpanId parent) {
  return Run<BufferView>(initiator, target, ReadVEntry{region, offset, length},
                         parent);
}

sim::Task<StatusOr<ScarResult>> OneSidedTransport::ScanAndRead(
    net::HostId initiator, net::HostId target, RegionId index_region,
    uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
    uint64_t hash_lo, trace::SpanId parent) {
  return Run<ScarResult>(
      initiator, target,
      ScarVEntry{index_region, bucket_offset, bucket_len, hash_hi, hash_lo},
      parent);
}

sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>>
OneSidedTransport::ReadV(net::HostId initiator, net::HostId target,
                         std::vector<ReadVEntry> entries,
                         trace::SpanId parent) {
  return Run<std::vector<StatusOr<BufferView>>>(initiator, target,
                                                std::move(entries), parent);
}

sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>>
OneSidedTransport::ScanAndReadV(net::HostId initiator, net::HostId target,
                                std::vector<ScarVEntry> entries,
                                trace::SpanId parent) {
  return Run<std::vector<StatusOr<ScarResult>>>(initiator, target,
                                                std::move(entries), parent);
}

}  // namespace cm::rma
