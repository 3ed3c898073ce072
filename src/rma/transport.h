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
// pointed-to DataEntry in a single round trip. The bucket is a refcounted
// view of the backend-side materialization. The DataEntry is a Snapshot of
// the scan instant: under R=3.2 the client validates the data of only one
// replica, so only that replica's entry is copied, when the client reads it.
struct ScarResult {
  BufferView bucket;
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
     completed only by op_timeout, and payloads delivered with a bit flip  \
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

}  // namespace cm::rma

#endif  // CM_RMA_TRANSPORT_H_
