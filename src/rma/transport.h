// RMA transport abstraction.
//
// CliqueMap "operates over multiple RMA protocols" (Table 1 challenge 5):
// a software-defined NIC (Pony-Express-like, supports the custom SCAR op),
// an all-hardware one-sided transport (1RMA-like), and classic RDMA. The
// client library selects its lookup strategy from the capabilities exposed
// here (§6.3, §7.2.4): SCAR where offered, 2xR otherwise, RPC as fallback.
#ifndef CM_RMA_TRANSPORT_H_
#define CM_RMA_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "common/status.h"
#include "net/fabric.h"
#include "rma/memory.h"
#include "sim/task.h"

namespace cm::rma {

// Result of the custom Scan-and-Read op (§6.3): the NIC scans the Bucket
// server-side for the requested KeyHash and returns the Bucket plus the
// pointed-to DataEntry in a single round trip. Both are Snapshots of the
// scan instant, so the scan copies nothing: the client decodes the bucket
// in place (Snapshot::Borrow), validates the DataEntry of one replica in
// place and copies out only its value. A write to either range before then
// makes the backend copy the snapshot first (the BeforeWrite contract).
struct ScarResult {
  Snapshot bucket;
  Snapshot data;  // empty when the scan found no matching IndexEntry
};

// Installed by a backend when it co-designs with a software NIC: given the
// raw key-hash bytes and its own memory, produce the combined response. The
// executor runs at NIC level (engine cost, no host CPU) and must not block.
using ScarExecutor =
    std::function<StatusOr<ScarResult>(uint64_t hash_hi, uint64_t hash_lo,
                                       RegionId index_region,
                                       uint64_t bucket_offset,
                                       uint32_t bucket_len)>;

// Per-host RMA state visible to transports.
struct RmaHostState {
  MemoryRegistry* registry = nullptr;
  ScarExecutor scar;
};

// Name registry mapping hosts to their registered memory (like the NIC's
// translation tables).
class RmaNetwork {
 public:
  void Attach(net::HostId host, MemoryRegistry* registry) {
    hosts_[host].registry = registry;
  }
  void InstallScar(net::HostId host, ScarExecutor exec) {
    hosts_[host].scar = std::move(exec);
  }
  void Detach(net::HostId host) { hosts_.erase(host); }

  // The returned state lives only until the host detaches, which a
  // backend's Stop() or Crash() can do while any op is suspended: never
  // hold it across a co_await; look the host up again after one.
  RmaHostState* Find(net::HostId host) {
    auto it = hosts_.find(host);
    return it == hosts_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<net::HostId, RmaHostState> hosts_;
};

// One entry of a vectored read: the initiator posts N of these behind a
// single doorbell and the target NIC resolves each independently.
struct ReadVEntry {
  RegionId region = 0;
  uint64_t offset = 0;
  uint32_t length = 0;
};

// One entry of a vectored scan-and-read (the batched SCAR of a MultiGet
// index phase): each entry names its own bucket window and key hash.
struct ScarVEntry {
  RegionId index_region = 0;
  uint64_t bucket_offset = 0;
  uint32_t bucket_len = 0;
  uint64_t hash_hi = 0;
  uint64_t hash_lo = 0;
};

// Framing and loss timing of every one-sided transport.
inline constexpr int64_t kCommandBytes = 64;
inline constexpr int64_t kResponseHeaderBytes = 32;
// Vectored ops (ReadV/ScanAndReadV) pay the doorbell and header once; each
// entry past the first adds only a descriptor on the wire.
inline constexpr int64_t kVectorEntryBytes = 16;
// A command or completion lost in the fabric (fault injection) surfaces as
// a failed op this long after the loss.
inline constexpr sim::Duration kOpTimeout = sim::Milliseconds(1);

// Transport counters, exported as cm.rma.<field>{transport=...}.
#define CM_RMA_STATS(X)                                                    \
  X(reads)                                                                 \
  X(scars)                                                                 \
  X(messages)                                                              \
  /* Vectored ops (batched MultiGet): one doorbell/completion covering     \
     vector_entries individual reads or scans. */                          \
  X(vector_reads)                                                          \
  X(vector_scars)                                                          \
  X(vector_entries)                                                        \
  X(failed_ops)                                                            \
  /* Fault-injection visibility: ops whose command/completion was lost and \
     completed only by kOpTimeout, and payloads delivered with a bit flip  \
     (which only client-side validation can catch). */                     \
  X(op_timeouts)                                                           \
  X(corrupt_deliveries)                                                    \
  /* NIC-level processing time consumed (software engines or hardware      \
     pipeline), split by side. Figs 6b/7 report CPU-per-op from these. */  \
  X(initiator_nic_ns)                                                      \
  X(target_nic_ns)

struct RmaStats {
  CM_METRICS_COUNTERS(RmaStats, CM_RMA_STATS)
};

class RmaTransport {
 public:
  virtual ~RmaTransport() = default;

  virtual bool SupportsScar() const = 0;

  // One-sided read of [offset, offset+length) in `region` on `target`.
  // `parent` (optional) nests the op's rma_read span — and the fabric tx/rx
  // spans beneath it — under the caller's trace tree. The payload is a
  // refcounted view materialized at most once at the target window (SCAR
  // data only when read).
  virtual sim::Task<StatusOr<BufferView>> Read(
      net::HostId initiator, net::HostId target, RegionId region,
      uint64_t offset, uint32_t length,
      trace::SpanId parent = trace::kNoSpan) = 0;

  // Single-round-trip scan-and-read; only valid when SupportsScar().
  virtual sim::Task<StatusOr<ScarResult>> ScanAndRead(
      net::HostId initiator, net::HostId target, RegionId index_region,
      uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
      uint64_t hash_lo, trace::SpanId parent = trace::kNoSpan) = 0;

  // Vectored one-sided read: one doorbell, one command, one completion for
  // all entries on the same target. The outer status covers whole-op
  // failures only (lost command/completion, no host state); a bad pointer
  // or revoked window fails only its own slot, so one miss never fails its
  // batch-mates. Result order matches `entries`.
  virtual sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>> ReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ReadVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) = 0;

  // Vectored SCAR with the same per-entry-status contract as ReadV; only
  // valid when SupportsScar().
  virtual sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>> ScanAndReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ScarVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) = 0;

  virtual const RmaStats& stats() const = 0;
};

// The one-sided op engine both transports share. Read, ReadV, ScanAndRead
// and ScanAndReadV each run one coroutine through the same phases: post
// (PostDone), command, target work (ReadWorkDone / ScarWorkDone), resolve,
// response and completion (CompletionDone). A lost or CRC-rejected command
// and a lost completion fail the op after op_timeout; a corrupt completion
// is delivered with one payload bit-flipped. The target host is looked up
// only after its work. A transport supplies just the timing hooks, each of
// which books its phase's NIC resources and returns when the phase ends.
// Each op's own rules (span, counters, 4 B per vector slot, which
// corruption counts) follow from its result type.
class OneSidedTransport : public RmaTransport {
 public:
  sim::Task<StatusOr<BufferView>> Read(
      net::HostId initiator, net::HostId target, RegionId region,
      uint64_t offset, uint32_t length,
      trace::SpanId parent = trace::kNoSpan) final;
  sim::Task<StatusOr<ScarResult>> ScanAndRead(
      net::HostId initiator, net::HostId target, RegionId index_region,
      uint64_t bucket_offset, uint32_t bucket_len, uint64_t hash_hi,
      uint64_t hash_lo, trace::SpanId parent = trace::kNoSpan) final;
  sim::Task<StatusOr<std::vector<StatusOr<BufferView>>>> ReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ReadVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) final;
  sim::Task<StatusOr<std::vector<StatusOr<ScarResult>>>> ScanAndReadV(
      net::HostId initiator, net::HostId target,
      std::vector<ScarVEntry> entries,
      trace::SpanId parent = trace::kNoSpan) final;

  const RmaStats& stats() const final { return stats_; }

 protected:
  // Exports stats_ as cm.rma.<field>{transport=`label`}.
  OneSidedTransport(net::Fabric& fabric, RmaNetwork& rma_network,
                    const char* label);

  virtual sim::Time PostDone(net::HostId initiator) = 0;
  virtual sim::Time ReadWorkDone(net::HostId target,
                                 std::span<const ReadVEntry> entries) = 0;
  // Transports without SCAR never reach this: the engine refuses their
  // SCARs before posting.
  virtual sim::Time ScarWorkDone(net::HostId target,
                                 std::span<const ScarVEntry> entries);
  // nullopt: completion adds no wait. `posted` is when the op began.
  virtual std::optional<sim::Time> CompletionDone(net::HostId initiator,
                                                  sim::Time posted) = 0;

  // Failure tails: count the failed op and end its span after kOpTimeout
  // (nothing ever completes) or a header-only refusal. They return nothing,
  // which keeps the awaiting op's coroutine frame small.
  sim::Task<void> TimedOut(trace::SpanId span);
  sim::Task<void> Refused(net::HostId target, net::HostId initiator,
                          trace::SpanId span);

  net::Fabric& fabric_;
  RmaNetwork& rma_network_;
  RmaStats stats_;
  metrics::ExportGroup exports_;

 private:
  // The engine; `Request` is one entry or a vector of them.
  template <class Out, class Request>
  sim::Task<StatusOr<Out>> Run(net::HostId initiator, net::HostId target,
                               Request request, trace::SpanId parent);
};

}  // namespace cm::rma

#endif  // CM_RMA_TRANSPORT_H_
