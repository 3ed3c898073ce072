// CliqueMap backend task (§4).
//
// Owns the RMA-accessible index and data regions, serves all mutations and
// control operations via RPC handlers, installs the SCAR executor on
// software NICs, and runs the background machinery: index reshaping, data
// region growth, eviction, cohort repair scans, and migration to warm
// spares. All handler logic is "straightforward code" running server-side —
// the deliberate division of labor that makes mutation and memory
// management tractable while GETs stay one-sided.
#ifndef CM_CLIQUEMAP_BACKEND_H_
#define CM_CLIQUEMAP_BACKEND_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cliquemap/config_service.h"
#include "cliquemap/eviction.h"
#include "cliquemap/layout.h"
#include "cliquemap/proto.h"
#include "cliquemap/slab.h"
#include "cliquemap/tenancy.h"
#include "cliquemap/tombstone.h"
#include "cliquemap/types.h"
#include "common/metrics.h"
#include "rma/transport.h"
#include "rpc/rpc.h"
#include "sim/sync.h"
#include "truetime/truetime.h"

namespace cm::cliquemap {

struct BackendConfig {
  // Index geometry (§3, Fig 1). Default bucket = 16B header + 20*48B
  // entries ≈ 1KB, matching the paper's "3x 1KB Buckets" arithmetic.
  int ways = 20;
  uint64_t initial_buckets = 128;
  // Index reshaping (§4.1): upsize at this load factor.
  double index_load_limit = 0.75;

  // Data region (§4.1): max virtual reservation, populated prefix, and the
  // factor of each asynchronous growth.
  uint64_t data_max_bytes = 256ull << 20;
  uint64_t data_initial_bytes = 1ull << 20;
  double data_grow_factor = 2.0;
  SlabConfig slab;

  EvictionPolicyKind eviction = EvictionPolicyKind::kLru;
  // Optional RPC fallback for bucket overflow (§4.2): overflowing keys stay
  // servable via RPC instead of forcing an associativity eviction.
  bool rpc_fallback_on_overflow = false;

  // Cost model.
  sim::Duration handler_base_cpu = sim::Microseconds(2);
  // Framework cost model for this backend's RpcServer. Defaults match the
  // paper's measured stack (§2.1); benches exploring CPU-contention regimes
  // where the dispatch cost must not dominate can cheapen it.
  rpc::RpcCostModel rpc_costs;
  // Server memcpy bandwidth; DataEntry writes take size/bw and are split
  // into two steps, opening the torn-read window RMA readers can observe.
  double write_bytes_per_ns = 10.0;

  // Customizable hash (§6.5, added for disaggregation use cases). Must
  // agree across every client and backend of a cell.
  HashFn hash_fn = &HashKey;

  // Failure domain (rack / power feed) this backend occupies. Empty =
  // unlabeled: the cell behaves exactly as before domains existed. Labels
  // are distributed to clients via the cell view (kTagShardDomain) and
  // drive domain-spread placement + DOMAIN_DOWN classification.
  std::string failure_domain;

  uint64_t seed = 1;
};

// Record streams (MigrateTo, the resharder's) send InstallBulk batches of
// at least this many bytes and give each call this long.
inline constexpr size_t kBulkBatchBytes = 128 * 1024;
inline constexpr sim::Duration kBulkInstallTimeout = sim::Seconds(5);

// Backend counters, exported as cm.backend.<field>{host=...}.
#define CM_BACKEND_STATS(X)                                                   \
  X(sets_applied)                                                             \
  X(sets_rejected_stale)                                                      \
  X(erases_applied)                                                           \
  X(cas_applied)                                                              \
  X(cas_failed)                                                               \
  X(rpc_gets)                                                                 \
  /* Quorum-loss degraded reads: single-replica verdicts served (the          \
     client's last resort when no index quorum is reachable). */              \
  X(degraded_gets_served)                                                     \
  /* Batched RPC fallback (MultiGet): calls served and keys they carried. */  \
  X(rpc_multigets)                                                            \
  X(rpc_multiget_keys)                                                        \
  X(touches_ingested)                                                         \
  X(evictions_capacity)                                                       \
  X(evictions_assoc)                                                          \
  X(overflow_inserts)                                                         \
  X(index_resizes)                                                            \
  X(data_grows)                                                               \
  X(repair_scans)                                                             \
  X(repairs_issued)                                                           \
  X(bump_versions)                                                            \
  X(bulk_installed)                                                           \
  /* Repair-pull traffic (chaos observability): pulls this backend served     \
     as a cohort member, pulls it sent as the designated repairer, and sent   \
     pulls that failed (partition / fault injection) and left peers marked    \
     unreachable rather than empty. */                                        \
  X(repair_pulls_served)                                                      \
  X(repair_pulls_sent)                                                        \
  X(repair_pull_failures)                                                     \
  /* Elasticity (resharding) counters: mutations bounced for carrying a       \
     stale cell generation or landing on a draining shard, and records        \
     dropped by the post-commit ownership GC. */                              \
  X(stale_generation_rejects)                                                 \
  X(draining_rejects)                                                         \
  X(entries_dropped)                                                          \
  /* Lease-based membership (self-healing control plane): heartbeats sent     \
     to the ConfigService, failed renewals, and self-fence/unfence events     \
     (RMA windows revoked while the lease is lapsed, restored on renewal). */ \
  X(heartbeats_sent)                                                          \
  X(heartbeat_failures)                                                       \
  X(self_fences)                                                              \
  X(unfences)                                                                 \
  /* Multi-tenant QoS: mutations shed by the admission queue (quota or        \
     overload), and evictions forced by a tenant hitting its own memory       \
     quota (contained — the victim belongs to the same tenant). */            \
  X(tenant_sheds)                                                             \
  X(evictions_tenant)

struct BackendStats {
  CM_METRICS_COUNTERS(BackendStats, CM_BACKEND_STATS)
};

class Backend {
 public:
  Backend(net::Fabric& fabric, rpc::RpcNetwork& rpc_network,
          rma::RmaNetwork& rma_network, truetime::TrueTime& truetime,
          net::HostId host, ConfigService* config_service, uint32_t shard,
          BackendConfig config = {});
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // Lifecycle -----------------------------------------------------------
  // Brings the backend into service: builds regions, registers windows,
  // installs the SCAR executor, registers RPC methods. `config_id` is
  // stamped into every Bucket header for client validation (§6.1).
  void Start(uint32_t config_id);
  // Graceful stop (planned maintenance): stops serving, revokes windows.
  void Stop();
  // Crash (unplanned): identical effect, but callers use it to model
  // failure — no migration happened first.
  void Crash();
  bool serving() const { return serving_; }

  // Changes the advertised config id (after taking over a shard) and
  // rewrites bucket headers.
  void SetConfigId(uint32_t config_id);

  // Drain mode (resharding): reads keep being served, but new mutations are
  // rejected with kFailedPrecondition and the periodic repair scan stands
  // down (a retiring shard must not push its state back into the cell).
  void SetDraining(bool draining) { draining_ = draining; }
  bool draining() const { return draining_; }

  // Reassigns which shard this backend serves (resharding cutover; the
  // caller is responsible for streaming the right records in).
  void SetShard(uint32_t shard) { shard_ = shard; }

  // Lease-based membership (self-healing) -------------------------------
  // Starts the heartbeat loop: while serving, renews this backend's lease
  // with the ConfigService every `interval`. If renewal fails past the
  // lease deadline the backend *self-fences* — it revokes its RMA windows
  // (modeling lease-gated NIC permissions: stale one-sided readers fail
  // fast with PERMISSION_DENIED instead of silently reading stale state)
  // and its Info handshake answers UNAVAILABLE. A later successful renewal
  // restores the windows in place (region ids, and thus stored pointers,
  // stay valid). Off by default: tests that pin determinism fingerprints
  // run without any heartbeat traffic.
  void StartHeartbeats(sim::Duration interval);
  void StopHeartbeats();
  bool fenced() const { return fenced_; }
  // Sim time at which this backend's lease lapses (0 = no lease yet).
  sim::Time lease_expires_at() const { return lease_expires_at_; }

  // Background repair (§5.4) -------------------------------------------
  // Scans cohorts for dirty quorums and repairs them. Periodic scans cover
  // only the shard this backend is primary for — one deterministic
  // repairer per shard, so concurrent repairers can't churn versions
  // against each other. `all_shards` widens the scan to every shard this
  // backend holds a copy of (post-restart recovery).
  sim::Task<void> RepairScanOnce(bool all_shards = false);
  void StartRepairLoop(sim::Duration interval);
  void StopRepairLoop();
  // En-masse recovery after restart: pull everything from cohorts.
  sim::Task<void> RecoverFromCohort() { return RepairScanOnce(true); }

  // Migration (§6.1) ----------------------------------------------------
  // Streams the full contents (and tombstones) to the backend at
  // `target_host` via InstallBulk RPCs of kBulkBatchBytes. Used for
  // warm-spare handoff.
  sim::Task<Status> MigrateTo(net::HostId target_host);

  // Resharding support ---------------------------------------------------
  // Snapshots every live record (index + overflow) plus every still-cached
  // keyed tombstone as bulk records. Unlike MigrateTo this does NOT emit a
  // summary record: resharding streams are placement-filtered per
  // destination, and a worst-case summary would wrongly fence unrelated
  // keys at the target.
  std::vector<proto::BulkRecord> SnapshotBulk() const;
  // Drops every record this backend no longer owns under `view` (after a
  // commit): keys whose new placement excludes this backend's shard.
  // Returns the number of records dropped.
  size_t DropNonOwned(const CellView& view);

  // Introspection -------------------------------------------------------
  net::HostId host() const { return host_; }
  uint32_t shard() const { return shard_; }
  uint32_t config_id() const { return config_id_; }
  // Keys resident in an index slot (overflow entries not counted).
  size_t live_entries() const { return live_entries_; }
  uint64_t num_buckets() const { return num_buckets_; }
  rma::RegionId index_region() const { return index_region_; }
  uint64_t data_populated() const { return slab_ ? slab_->populated() : 0; }
  uint64_t data_used() const { return slab_ ? slab_->used_bytes() : 0; }
  uint64_t index_bytes() const;  // defined in .cc (IndexBuffer is private)
  // Total resident memory this task pins (index + populated data): the
  // quantity Fig 3 plots.
  uint64_t memory_footprint() const { return index_bytes() + data_populated(); }
  const BackendStats& stats() const { return stats_; }
  const BackendConfig& config() const { return config_; }
  rpc::RpcServer* rpc_server() { return rpc_server_.get(); }
  // RPC bytes served across all incarnations (survives restarts).
  int64_t lifetime_rpc_bytes() const {
    return lifetime_rpc_bytes_ + (rpc_server_ ? rpc_server_->total_bytes() : 0);
  }

  // Multi-tenant QoS -----------------------------------------------------
  // Turns on RPC-plane admission (weighted-fair queue + per-tenant token
  // buckets) and memory-plane accounting (per-tenant quota containment).
  // Off by default: without it the handlers take the exact pre-tenancy
  // path, so byte streams and event orders stay bit-identical (pinned by
  // test_determinism).
  void EnableTenancy(const TenantRegistry& reg,
                     AdmissionQueue::Options admission = {});
  AdmissionQueue* admission() { return admission_.get(); }
  TenantMemoryLedger* tenant_ledger() { return ledger_.get(); }
  // The configured eviction policy (valid once started).
  const EvictionPolicy& eviction_policy() const { return *eviction_; }

  // Direct (test-only) lookup of the stored version for a key.
  std::optional<VersionNumber> LookupVersion(std::string_view key) const;
  // Direct (test-only) view of the index region: num_buckets() Buckets of
  // BucketBytes(config().ways) bytes. Valid until the next mutation.
  ByteSpan IndexBytes() const;

 private:
  // Memory sources ------------------------------------------------------
  class IndexBuffer;
  class DataPool;

  // RPC handlers --------------------------------------------------------
  sim::Task<StatusOr<Bytes>> HandleSet(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleErase(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleCas(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleGet(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleDegradedGet(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleMultiGet(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleTouch(ByteSpan req);

  // Pairs every successful Admit with exactly one Release across all of a
  // handler's co_return paths (the guard lives in the coroutine frame, so it
  // runs once at frame destruction — safe under gcc 12, unlike awaiter
  // temporaries; see sim/sync.h).
  struct AdmitGuard {
    AdmissionQueue* q = nullptr;
    AdmitGuard() = default;
    AdmitGuard(const AdmitGuard&) = delete;
    AdmitGuard& operator=(const AdmitGuard&) = delete;
    ~AdmitGuard() {
      if (q) q->Release();
    }
  };
  // Tenant admission for the dataplane handlers (Set, Erase, Cas, Get,
  // MultiGet), run before their CPU charge: shedding must protect the CPU
  // the flood would otherwise burn. Returns the request's tenant and arms
  // `admit`, or RESOURCE_EXHAUSTED (counted in tenant_sheds). With tenancy
  // off (admission_ null) it awaits nothing and admits the default tenant,
  // so the event sequence matches the pre-tenancy handler exactly.
  sim::Task<StatusOr<TenantId>> AdmitTenant(ByteSpan req, AdmitGuard& admit);

  // Shared core of the RPC read paths: index lookup, data decode, overflow
  // fallback. Pure local computation — callers charge CPU and do admission.
  struct LocalLookup {
    Status status = OkStatus();  // NotFound / Aborted on the usual races
    Bytes value;
    VersionNumber version;
  };
  LocalLookup LookupLocal(const std::string& key);
  sim::Task<StatusOr<Bytes>> HandleInfo(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandlePing(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleRepairPull(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleGetByHash(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleBumpVersion(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleInstallBulk(ByteSpan req);

  // Rejects client mutations that carry a stale cell generation or land on
  // a draining shard (resharding window). Requests without a generation tag
  // (repair, bulk install, loaders) bypass the check.
  Status CheckMutationAdmissible(const rpc::WireReader& r);

  // Core mutation paths --------------------------------------------------
  // Returns kOk and the applied flag; enforces version monotonicity against
  // index, tombstones, and the tombstone summary (§5.2).
  // `tenant` attributes the write for memory-plane accounting; the default
  // (repair/bulk/loader paths, which carry no tenant tag) preserves the
  // key's existing owner.
  sim::Task<StatusOr<bool>> ApplySet(std::string_view key, ByteSpan value,
                                     const VersionNumber& version,
                                     bool charge_write_time,
                                     TenantId tenant = kDefaultTenant);
  sim::Task<StatusOr<bool>> ApplyErase(std::string_view key,
                                       const VersionNumber& version);

  // Index helpers --------------------------------------------------------
  // The only writable view of the index (through IndexBuffer::Mutable, which
  // materializes pending SCAR buckets first); readers use BucketView.
  MutableByteSpan BucketSpan(uint64_t bucket);
  ByteSpan BucketView(uint64_t bucket) const;
  std::optional<int> FindFreeWay(uint64_t bucket) const;
  void WriteEntry(uint64_t bucket, int way, const IndexEntry& entry);
  void ClearEntry(uint64_t bucket, int way);
  void SetOverflowFlag(uint64_t bucket, bool overflow);

  // Residency ------------------------------------------------------------
  // A live key is resident in exactly one place: an RMA index slot or,
  // under rpc_fallback_on_overflow, the RPC-served overflow table (§4.2).
  // These helpers are the only code that consults both, so no mutation,
  // CAS, repair or snapshot can forget the overflow table.
  struct Location {
    uint64_t bucket;
    int way;
  };
  struct OverflowEntry {
    Bytes value;
    VersionNumber version;
    TenantId tenant = kDefaultTenant;  // charged if the key is promoted
  };
  using OverflowTable = std::unordered_map<std::string, OverflowEntry>;
  // Valid until the next mutation of the index or the overflow table.
  struct Resident {
    Hash128 hash;
    VersionNumber version;             // the stored version
    std::optional<Location> slot;      // index slot; empty if overflow
    Pointer data;                      // the slot's DataEntry
    OverflowTable::const_iterator ov;  // the overflow entry when !slot
  };
  // Finds a key's residency. `key` names it when known; an empty key
  // searches the overflow table by hash (linear; the table is small).
  std::optional<Resident> FindResident(const Hash128& hash,
                                       std::string_view key = {}) const;
  // The index half of FindResident: scans the key's own bucket with the
  // NIC's match rule (FindWay); never touches the overflow table.
  std::optional<Resident> FindIndexed(const Hash128& hash) const;
  // Reads a resident's record. Index-resident views alias `buf`, which
  // the caller keeps alive while it uses them (DESIGN §6.7); overflow
  // views alias the table entry.
  StatusOr<DataEntryView> ReadRecord(const Resident& r, Bytes& buf) const;
  // Removes a resident, keeping the eviction policy and the tenant ledger
  // (both hold exactly the index residents) and the bucket's overflow
  // count and flag in step.
  void RemoveResident(const Resident& r);
  // Rewrites a resident's version in place (repair's version bump).
  Status BumpResident(const Resident& r, const VersionNumber& version);
  // Writes `entry` into a free slot or the key's own, recording it with the
  // eviction policy and charging its bytes to `tenant`. Filling a free slot
  // counts one more live entry.
  void InsertIndexed(uint64_t bucket, int way, const IndexEntry& entry,
                     TenantId tenant);
  // Inserts or overwrites an overflow entry; a key is counted once, and a
  // tenantless write keeps the entry's tenant.
  void InsertOverflow(std::string_view key, const Hash128& hash,
                      ByteSpan value, const VersionNumber& version,
                      TenantId tenant);
  // Visits every index resident in ascending (bucket, way) order, then
  // every overflow resident, then every cached tombstone; the callbacks
  // must not mutate residency.
  template <typename OnResident, typename OnTombstone>
  void ForEachRecord(OnResident on_resident, OnTombstone on_tombstone) const;

  // Data helpers ---------------------------------------------------------
  sim::Task<StatusOr<uint64_t>> AllocateWithEviction(uint32_t size);
  // Where a victim may come from: the pool (capacity conflict, §4.2), one
  // bucket (associativity conflict) or one tenant's keys (quota, §7.1).
  struct EvictScope {
    enum Kind : uint8_t { kPool, kBucket, kTenant } kind = kPool;
    uint64_t bucket = 0;               // kBucket
    TenantId tenant = kDefaultTenant;  // kTenant
    Hash128 keep = {};                 // kTenant: the key being written
  };
  // Evicts and counts the eviction policy's victim in `scope`; false when
  // the scope holds no candidate.
  bool EvictOne(const EvictScope& scope);
  void FreeData(const Pointer& ptr);
  Bytes ReadData(const Pointer& ptr) const;

  // Reshaping ------------------------------------------------------------
  void MaybeScheduleIndexResize();
  sim::Task<void> ResizeIndex();
  // `force` bypasses the watermark (an allocation just failed, e.g. due to
  // size-class fragmentation with headroom still below the watermark).
  void MaybeScheduleDataGrow(bool force = false);
  sim::Task<void> GrowData();
  // Mutations stall while an index resize is in flight (§4.1).
  sim::Task<void> AwaitMutationsAllowed();

  // Repair helpers --------------------------------------------------------
  // One holder's knowledge of one key during a cohort scan.
  struct Observation_ {
    VersionNumber version;
    bool erased = false;
    bool present = false;
    bool unreachable = false;  // holder never answered the pull
  };
  std::vector<proto::RepairRecord> SnapshotRecords(uint32_t shard_filter,
                                                   uint32_t num_shards) const;
  sim::Task<void> RepairShardAgainstCohort(uint32_t shard,
                                           std::vector<net::HostId> cohort);
  sim::Task<void> RepairKey(uint32_t shard, Hash128 hash,
                            std::vector<Observation_> row, Observation_ best,
                            size_t best_holder,
                            std::vector<net::HostId> cohort);
  // The record `holder` stores under `hash`: read locally when the holder
  // is this backend, else fetched with kMethodGetByHash.
  sim::Task<std::optional<proto::BulkRecord>> FetchRecord(net::HostId holder,
                                                          Hash128 hash);
  VersionNumber NewRepairVersion();

  // SCAR executor installed on the software NIC (§6.3).
  StatusOr<rma::ScarResult> ExecuteScar(uint64_t hash_hi, uint64_t hash_lo,
                                        rma::RegionId index_region,
                                        uint64_t bucket_offset,
                                        uint32_t bucket_len);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  rpc::RpcNetwork& rpc_network_;
  rma::RmaNetwork& rma_network_;
  truetime::TrueTime& truetime_;
  net::HostId host_;
  ConfigService* config_service_;
  uint32_t shard_;
  BackendConfig config_;
  Rng rng_;

  bool serving_ = false;
  bool draining_ = false;
  uint32_t config_id_ = 0;
  uint64_t incarnation_ = 0;
  uint32_t repair_seq_ = 0;

  // Regions.
  rma::MemoryRegistry registry_;
  std::unique_ptr<IndexBuffer> index_;
  rma::RegionId index_region_ = rma::kInvalidRegion;
  uint64_t num_buckets_ = 0;
  std::unique_ptr<DataPool> data_;
  std::unique_ptr<SlabAllocator> slab_;
  std::vector<rma::RegionId> data_regions_;  // all live windows; back() newest

  // Heap-side state.
  std::unique_ptr<EvictionPolicy> eviction_;
  // Multi-tenant QoS (null when tenancy is off — the handlers then take
  // the exact pre-tenancy path).
  std::unique_ptr<AdmissionQueue> admission_;
  std::unique_ptr<TenantMemoryLedger> ledger_;
  TombstoneCache tombstones_;
  // Non-empty index ways: InsertIndexed, RemoveResident, Start and
  // ResizeIndex keep it in step with the index.
  size_t live_entries_ = 0;
  // Bucket-overflow side table (RPC-only service) and per-bucket counts.
  OverflowTable overflow_;
  std::unordered_map<uint64_t, int> overflow_count_;

  // Reshaping state.
  bool index_resizing_ = false;
  bool data_growing_ = false;
  std::unique_ptr<sim::Notification> resize_done_;
  std::unique_ptr<sim::Notification> grow_done_;

  // Repair loop.
  bool repair_loop_running_ = false;
  sim::Duration repair_interval_ = sim::Seconds(30);
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // Lease/heartbeat state.
  sim::Task<void> SendHeartbeat();
  void FenceRma();
  void UnfenceRma();
  bool heartbeats_running_ = false;
  bool fenced_ = false;
  sim::Duration heartbeat_interval_ = sim::Milliseconds(20);
  sim::Time lease_expires_at_ = 0;

  std::unique_ptr<rpc::RpcServer> rpc_server_;
  int64_t lifetime_rpc_bytes_ = 0;
  BackendStats stats_;
  // Mirrors BackendStats counters and the memory-footprint gauges into the
  // fabric registry under cm.backend.*{host=<id>} for the backend's lifetime
  // (labeled by host, not shard: resharding reassigns shards in place).
  metrics::ExportGroup exports_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_BACKEND_H_
