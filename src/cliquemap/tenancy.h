// Multi-tenant QoS (§7.1 co-tenancy).
//
// CliqueMap cells are shared by many products; one tenant's burst must not
// eat another tenant's tail. Enforcement is split across planes because the
// planes have different visibility:
//
//   * RPC plane (SETs, data-fetch fallback, CPU-touching reads): the backend
//     sees every op, so a weighted-fair AdmissionQueue sits in front of RPC
//     dispatch with per-tenant token buckets (ops/s + bytes/s) and
//     priority-aware shedding under overload. Shed ops are never silent:
//     they return RESOURCE_EXHAUSTED and bump cm.tenant.shed{tenant=...}.
//   * RMA plane (one-sided GETs): the backend CPU never sees these reads,
//     so the *client* polices them with token buckets provisioned from the
//     TenantRegistry it fetches alongside the cell view.
//   * Memory plane: a TenantMemoryLedger tracks per-tenant resident bytes
//     and keys; a tenant at its memory quota evicts its own keys instead
//     of squeezing neighbors.
//
// Tenant id 0 is the untenanted default: ops carry no tenant tag, no
// admission state is consulted, and byte streams / event orders are
// bit-identical to a build without tenancy (pinned by test_determinism).
#ifndef CM_CLIQUEMAP_TENANCY_H_
#define CM_CLIQUEMAP_TENANCY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/status.h"
#include "sim/simulator.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace cm::cliquemap {

using TenantId = uint32_t;
inline constexpr TenantId kDefaultTenant = 0;

// Lower sheds first under overload.
enum class PriorityClass : uint8_t {
  kBestEffort = 0,
  kStandard = 1,
  kCritical = 2,
};

// All quotas use 0 = unlimited.
struct TenantSpec {
  TenantId id = kDefaultTenant;
  std::string name;  // display name; becomes a metric label value
  PriorityClass priority = PriorityClass::kStandard;
  double wfq_weight = 1.0;  // share of backend RPC dispatch under contention

  // RPC plane (enforced backend-side).
  double rpc_ops_per_sec = 0;
  double rpc_bytes_per_sec = 0;

  // RMA plane (enforced client-side; backends cannot see one-sided reads).
  double rma_reads_per_sec = 0;
  double rma_bytes_per_sec = 0;

  // Memory plane: resident data bytes before self-eviction kicks in.
  uint64_t memory_bytes = 0;
};

// The registry is authored on ConfigService and distributed to backends and
// clients alongside the cell view (kTagTenantRegistry). Specs are kept
// sorted by id so encoding and iteration order are deterministic.
class TenantRegistry {
 public:
  void Upsert(TenantSpec spec);
  const TenantSpec* Find(TenantId id) const;

  bool empty() const { return specs_.empty(); }
  size_t size() const { return specs_.size(); }
  const std::vector<TenantSpec>& specs() const { return specs_; }
  uint32_t version() const { return version_; }
  void set_version(uint32_t v) { version_ = v; }

 private:
  uint32_t version_ = 0;
  std::vector<TenantSpec> specs_;  // sorted by id
};

Bytes EncodeTenantRegistry(const TenantRegistry& reg);
StatusOr<TenantRegistry> DecodeTenantRegistry(ByteSpan bytes);

// Deterministic sim-time token bucket (lazy refill; no timers).
class TokenBucket {
 public:
  TokenBucket() = default;  // unlimited
  TokenBucket(double rate_per_sec, double burst);

  bool unlimited() const { return rate_per_ns_ == 0; }

  // Takes `cost` tokens if available. Unlimited buckets always admit.
  bool TryAcquire(sim::Time now, double cost);

  // Post-paid charge (e.g. read bytes known only after the read): the
  // balance may go negative; TryAcquire then fails until it refills.
  void Debit(sim::Time now, double cost);

  double available(sim::Time now);

 private:
  void Refill(sim::Time now);

  double rate_per_ns_ = 0;  // 0 = unlimited
  double burst_ = 0;
  double tokens_ = 0;
  sim::Time last_ = 0;
};

// Per-tenant admission counters, exported as
// cm.tenant.<field>{host=...,tenant=...}.
#define CM_TENANT_ADMISSION_STATS(X)    \
  X(admitted)                           \
  X(queued)                             \
  X(shed)                               \
  X(rpc_bytes)                          \
  X(read_index_bytes)                   \
  X(read_data_bytes)

struct TenantAdmissionStats {
  CM_METRICS_COUNTERS(TenantAdmissionStats, CM_TENANT_ADMISSION_STATS)
};

// Weighted-fair admission in front of backend RPC dispatch.
//
// Quota shedding (token buckets) happens first and is unconditional: a
// tenant past its ops/s or bytes/s quota is shed even on an idle backend.
// Under overload (all dispatch slots busy) admitted ops queue with a WFQ
// virtual finish time of max(vtime, tenant_last_finish) + cost/weight; when
// the queue itself is full, the lowest-priority op sheds first (the queued
// victim if it outranks the arrival, else the arrival itself).
class AdmissionQueue {
 public:
  struct Options {
    int max_concurrency = 8;  // ops dispatched to handlers at once
    size_t max_queue = 128;   // queued ops before priority shedding
  };

  // `base_labels` distinguish instances (e.g. {{"host", N}}); per-tenant
  // counters add a tenant=<display name> label on top.
  AdmissionQueue(sim::Simulator& sim, metrics::Registry* registry,
                 metrics::Labels base_labels, Options opts);

  // (Re)provisions buckets, weights, and per-tenant metric exports.
  void Configure(const TenantRegistry& reg);

  // Resolves OK when the op may run (possibly after queuing) or
  // RESOURCE_EXHAUSTED when shed. Every OK admit must be paired with one
  // Release() when the op finishes.
  sim::Task<Status> Admit(TenantId id, uint64_t bytes);
  void Release();

  // Backend-side accounting for reads that touch CPU (RPC GET fallback):
  // index/data bytes served per tenant.
  void AccountReadBytes(TenantId id, uint64_t index_bytes,
                        uint64_t data_bytes);

  int64_t admitted(TenantId id) const;
  int64_t shed(TenantId id) const;
  int64_t total_shed() const { return total_shed_; }
  int in_flight() const { return in_flight_; }
  size_t queue_depth() const { return queue_.size(); }
  const TenantSpec* spec(TenantId id) const;

 private:
  struct PerTenant {
    TenantSpec spec;
    TokenBucket ops;
    TokenBucket bytes;
    double last_finish = 0;  // WFQ virtual time
    TenantAdmissionStats stats;
  };
  struct Waiter {
    uint64_t seq = 0;
    TenantId tenant = kDefaultTenant;
    double vst = 0;  // virtual start; restored to last_finish on pushout
    double vft = 0;
    uint8_t priority = 0;
    sim::OneShot<Status> signal;
  };

  PerTenant& Slot(TenantId id);
  const PerTenant* FindSlot(TenantId id) const;
  void ExportTenant(PerTenant& t);
  double Cost(uint64_t bytes) const { return 1.0 + double(bytes) / 4096.0; }
  void ShedWaiter(size_t idx);
  void Dispatch();

  sim::Simulator& sim_;
  Options opts_;
  metrics::Labels base_labels_;
  metrics::ExportGroup exports_;
  std::vector<std::unique_ptr<PerTenant>> tenants_;  // sorted by spec.id
  int in_flight_ = 0;
  double vtime_ = 0;
  uint64_t seq_ = 0;
  std::vector<Waiter> queue_;  // unordered; dispatch pops min (vft, seq)
  int64_t total_admitted_ = 0;
  int64_t total_shed_ = 0;
  int64_t total_queued_ = 0;
};

// Per-tenant resident-byte accounting and ownership, keyed by the same
// Hash128 the backend index uses. The index entry layout cannot carry a
// tenant id (clients RMA-read it), so ownership lives heap-side here. It
// keeps no recency: the eviction policy ranks a tenant's keys().
class TenantMemoryLedger {
 public:
  void Configure(const TenantRegistry& reg);

  // Records `key` as owned by `tenant` with `bytes` resident. Re-charging
  // an existing key replaces its size; passing kDefaultTenant for a key
  // with a known owner keeps the current owner (repair/migration streams
  // carry no tenant tag and must not steal ownership).
  void Charge(TenantId tenant, const Hash128& key, uint64_t bytes);
  void Release(const Hash128& key);

  // True when admitting `incoming_bytes` for `tenant` would exceed its
  // memory quota (and it has at least one resident key to evict).
  bool OverQuota(TenantId tenant, uint64_t incoming_bytes) const;

  // The tenant's resident keys, in no particular order.
  std::span<const Hash128> keys(TenantId tenant) const;
  uint64_t used(TenantId tenant) const;
  uint64_t ResidentBytes(const Hash128& key) const;
  TenantId OwnerOf(const Hash128& key) const;
  size_t tracked() const { return keys_.size(); }
  void Clear();

 private:
  struct TenantState {
    uint64_t quota = 0;  // 0 = unlimited
    uint64_t used = 0;
    std::vector<Hash128> keys;  // dense; removal swaps in the last key
  };
  struct KeyState {
    TenantId tenant = kDefaultTenant;
    uint64_t bytes = 0;
    size_t at = 0;  // position in the owner's TenantState::keys
  };

  std::unordered_map<TenantId, TenantState> tenants_;
  std::unordered_map<Hash128, KeyState> keys_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_TENANCY_H_
