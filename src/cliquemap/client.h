// CliqueMap client library (§3, §5).
//
// The client owns the entire lookup protocol: it hashes keys to shards and
// buckets, performs 2xR or SCAR fetches against replica backends, validates
// every response end-to-end (checksum, full-key compare, version-quorum,
// quorum-membership — the four hit conditions of §5.1), and transparently
// retries at the layer appropriate to the error: checksum failures retry
// the RMA ops; revoked-window errors re-handshake via RPC; config-id
// mismatches refresh the cell view from the config service; unavailable
// replicas are skipped under quorum and probed again after a backoff.
//
// Mutations (SET/ERASE/CAS) are RPCs fanned out to all replicas with a
// client-nominated {TrueTime, ClientId, Seq} version (§5.2). GET recency is
// reported to backends via batched background Touch RPCs (§4.2).
#ifndef CM_CLIQUEMAP_CLIENT_H_
#define CM_CLIQUEMAP_CLIENT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "cliquemap/config_service.h"
#include "cliquemap/layout.h"
#include "cliquemap/loccache.h"
#include "cliquemap/proto.h"
#include "cliquemap/quorum.h"
#include "cliquemap/tenancy.h"
#include "cliquemap/types.h"
#include "rma/transport.h"
#include "rpc/rpc.h"
#include "sim/sync.h"
#include "truetime/truetime.h"

namespace cm::cliquemap {

struct ClientConfig {
  uint32_t client_id = 1;
  LookupStrategy strategy = LookupStrategy::kAuto;
  sim::Duration op_deadline = sim::Milliseconds(10);
  int max_retries = 8;

  // Access recording (§4.2).
  sim::Duration touch_flush_interval = sim::Milliseconds(50);

  // Transparent client-side value compression (§9 lists compression among
  // the features delivered post-launch). All clients of a corpus must
  // agree on this setting, like any per-corpus configuration.
  bool compress_values = false;

  // Customizable hash (§6.5). Must match the cell's backends.
  HashFn hash_fn = &HashKey;

  // Gray-failure defense (§7.2.3) --------------------------------------
  // A slow-but-alive replica hurts the tail twice: its index fetch delays
  // the quorum, and — if it answered first — its data fetch delays the
  // whole GET. Both defenses key off a per-replica index-fetch latency
  // EWMA, and both are off by default (determinism-pinned tests run with
  // the untouched selection/fetch schedule).
  //
  // Outlier ejection drops replicas whose EWMA exceeds kSlowEjectFactor
  // (client.cc) x the fastest live replica from the fan-out — never below
  // quorum size.
  bool eject_slow_replicas = false;
  // Hedged data fetch: if the speculative data fetch has not resolved
  // `hedge_delay` after the quorum formed, issue a second fetch against
  // another quorum member; first result wins, the loser is dropped (the
  // simulator, like real one-sided RMA, has no cancel — the losing read
  // completes and is discarded).
  bool hedge_reads = false;
  sim::Duration hedge_delay = sim::Microseconds(300);

  // Elasticity (resharding) -------------------------------------------
  // Interval for the optional background config watcher (StartConfigWatcher)
  // that keeps the view fresh across reconfiguration generations.
  sim::Duration config_watch_interval = sim::Milliseconds(50);

  // Quorum-loss degraded reads (correlated failures) -------------------
  // When a GET cannot form a quorum (replicas unreachable, inquorate votes,
  // deadline burned against a dying cohort), an opt-in degraded pass probes
  // every replica once over RPC and returns the best sub-quorum answer,
  // flagged GetResult::degraded. A degraded answer never populates the
  // location cache, never renews anything, and is version-floored: it is
  // refused rather than roll back a version this client already quorumed.
  // Default off — fail-fast is the correct default for a cache.
  bool degraded_reads = false;

  // Batched MultiGet (incast-aware pipeline) ---------------------------
  // Coalesce a batch's index and data reads into one vectored RMA op per
  // backend instead of fanning out independent Gets. Off (or unavailable:
  // RPC strategy, no transport, resharding window) falls back to the naive
  // concurrent fan-out.
  bool batch_multiget = true;

  // 1-RMA speculative GET path -----------------------------------------
  // Location cache + speculative direct reads (on by default): a GET whose
  // key was quorumed before issues ONE data read at the cached pointer and
  // validates it end-to-end (CRC, full key, version >= the cached quorumed
  // floor); any mismatch invalidates and falls through to the quorum path.
  // Per-op override: GetOptions::speculate. Forced off inside the
  // resharding dual-version window and the PrevWindowGet fallback.
  bool speculate = true;
  // Location-cache LRU entry cap; 0 disables the cache (and speculation).
  size_t loccache_entries = 4096;
  // Freshness lease on cached locations: a hit older than this re-quorums
  // (and re-populates) instead of speculating. Bounds staleness — a freed
  // DataEntry keeps its bytes until the slab recycles the chunk, so CRC +
  // version-floor validation alone could serve a superseded value
  // indefinitely. Only quorum-backed population renews the lease; raise it
  // for read-mostly hot-key workloads where hits arrive faster than the
  // lease expires. 0 = no expiry (trust validation alone).
  sim::Duration loccache_ttl = sim::Microseconds(200);
  // (Speculation is also paused by an adaptive breaker when the recent
  // failure ratio crosses SpeculationGovernor::Options' defaults.)

  // Multi-tenant QoS ---------------------------------------------------
  // Tenant this client's ops belong to. 0 (the untenanted default) stamps
  // no tags and consults no buckets — byte streams stay identical to a
  // tenancy-free build. A non-zero tenant stamps kTagTenant on mutations
  // and RPC GET fallbacks (policed backend-side) and polices its own
  // one-sided reads with token buckets provisioned from the TenantRegistry
  // fetched alongside the cell view (backends cannot see RMA reads).
  uint32_t tenant = 0;
};

struct GetResult {
  // Refcounted slice of the RMA read's single materialization (or an
  // adopted RPC-response vector); exposes a Bytes-like read surface.
  BufferView value;
  VersionNumber version;
  // True when this answer came from the sub-quorum degraded pass: it is the
  // best available, not quorum-certain. Callers that need certainty must
  // treat it as a miss.
  bool degraded = false;

  // Copies a decoded GET reply (RPC fallback, shim pipe) into an owning
  // result: the reply buffer dies with the call.
  static GetResult Copy(const proto::Hit& hit) {
    return GetResult{Bytes(hit.value.begin(), hit.value.end()), hit.version};
  }
};

// Per-op overrides threaded through Get/MultiGet/Set/Erase/Cas: the options
// struct that replaced the growing positional-parameter internals. A zero /
// nullopt field defers to ClientConfig, so `{}` is exactly the old behavior.
// Every field has a default member initializer, so a designated initializer
// such as `{.degraded = true}` may name any subset of them.
struct GetOptions {
  sim::Duration deadline = 0;                // 0 → ClientConfig::op_deadline
  uint32_t tenant = 0;                       // 0 → ClientConfig::tenant
  std::optional<LookupStrategy> strategy{};  // GET index-fetch strategy
  std::optional<bool> hedge_reads{};         // hedged data fetch (GET)
  std::optional<bool> batch{};               // MultiGet: batched pipeline
  std::optional<bool> speculate{};           // 1-RMA speculative fast path
  std::optional<bool> degraded{};            // sub-quorum degraded reads (GET)
};
using OpOptions = GetOptions;

// Batch-level outcome of one MultiGet.
struct MultiGetStats {
  bool batched = false;         // took the coalesced vectored pipeline
  int backends_contacted = 0;   // distinct backends sent a vector op / RPC
  int coalesced_reads = 0;      // vectored RMA ops issued (index + data)
  int rpc_fallbacks = 0;        // batched fallback RPCs issued
  int slowpath_keys = 0;        // keys bounced to the single-key retry path
};

// MultiGet's first-class result: one entry per input key, in input order
// (duplicates each get their own slot), plus batch-level stats.
struct MultiGetResult {
  std::vector<StatusOr<GetResult>> results;
  MultiGetStats stats;
};

// Client counters, exported as cm.client.<name>{client=...}.
#define CM_CLIENT_STATS(X)                                                   \
  X(gets)                                                                    \
  X(hits)                                                                    \
  X(misses)                                                                  \
  X(get_errors)                                                              \
  X(sets)                                                                    \
  X(set_errors)                                                              \
  X(erases)                                                                  \
  X(cas_ops)                                                                 \
  X(retries)                                                                 \
  X(torn_reads)          /* checksum validation failures */                  \
  X(inquorate)           /* no version quorum formed */                      \
  X(preferred_mismatch)  /* first responder not in quorum */                 \
  X(window_errors)       /* revoked-window RMA failures */                   \
  X(config_refreshes)                                                        \
  X(rpc_fallback_gets)                                                       \
  X(touch_rpcs)                                                              \
  /* Fault/retry observability (chaos harness). */                           \
  X(op_timeouts)         /* transport ops lost → completed by timeout */     \
  X(backoff_events)      /* jittered backoffs taken (retry + replica) */     \
  X(budget_exhausted)    /* ops that spent the whole retry budget */         \
  X(compress_bytes_in)   /* raw value bytes offered to compression */        \
  X(compress_bytes_out)  /* stored bytes after compression */                \
  /* Elasticity (resharding) observability. */                               \
  X(stale_generation_rejects)  /* mutation acks bounced by gen fence */      \
  X(prev_window_gets)          /* GETs served by previous owners */          \
  /* Gray-failure defense observability. */                                  \
  X(hedged_reads)    /* secondary data fetches issued */                     \
  X(hedge_wins)      /* GETs resolved by the hedge, not the primary */       \
  X(slow_ejections)  /* replicas dropped from a fan-out as outliers */       \
  /* Multi-tenant QoS observability (RMA plane, client-side policing);       \
     exported by hand as cm.tenant.*, and only for a non-default tenant. */  \
  X(tenant_shed, nullptr)       /* GETs shed by the client's own buckets */  \
  X(tenant_rma_bytes, nullptr)  /* value bytes debited against the quota */  \
  /* 1-RMA speculative path observability: direct reads issued, and those    \
     that failed validation and fell back to the quorum path (the hit/miss/  \
     invalidation counters live in the cache itself, LocCacheStats). */      \
  X(loccache_speculative_reads, "loccache.speculative_reads")                \
  X(loccache_speculative_failures, "loccache.speculative_failures")          \
  /* Batched MultiGet observability: MultiGet calls, unique keys entering    \
     the batched path, vectored RMA ops issued and the entries they carried, \
     batched fallback RPCs issued, keys bounced to the single-key path, and  \
     issues blocked by the incast gate. */                                   \
  X(multigets)                                                               \
  X(batch_keys, "batch.keys")                                                \
  X(batch_vector_ops, "batch.vector_ops")                                    \
  X(batch_vector_entries, "batch.vector_entries")                            \
  X(batch_rpc_fallbacks, "batch.rpc_fallbacks")                              \
  X(batch_slowpath_keys, "batch.slowpath_keys")                              \
  X(batch_inflight_waits, "batch.inflight_waits")                            \
  /* Quorum-loss degraded reads: degraded passes entered, best-effort        \
     values returned, sub-quorum absences (tombstone-led), answers refused   \
     for being below the quorumed floor, and passes where no replica         \
     answered at all. */                                                     \
  X(degraded_attempts, "degraded.attempts")                                  \
  X(degraded_hits, "degraded.hits")                                          \
  X(degraded_misses, "degraded.misses")                                      \
  X(degraded_rollback_refused, "degraded.rollback_refused")                  \
  X(degraded_unreachable, "degraded.unreachable")                            \
  /* Client-library CPU attribution (Figs 6b/7): time charged to the host    \
     CPU issuing RMA ops and validating responses. */                        \
  X(issue_cpu_ns)                                                            \
  X(validate_cpu_ns)

// `+=` sums the counters only; merge the histograms with Histogram::Merge.
struct ClientStats {
  CM_METRICS_COUNTERS(ClientStats, CM_CLIENT_STATS)
  // Time-valued metrics are histograms (not raw ns totals): each recorded
  // sample is one backoff sleep / one op's latency. Totals are .sum().
  Histogram backoff_ns;
  Histogram get_latency_ns;
  Histogram set_latency_ns;
};

class Client {
 public:
  Client(net::Fabric& fabric, rpc::RpcNetwork& rpc_network,
         rma::RmaTransport* transport, truetime::TrueTime& truetime,
         net::HostId host, net::HostId config_host, ClientConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Fetches the cell view; per-backend RMA handshakes happen lazily.
  sim::Task<Status> Connect();

  sim::Task<StatusOr<GetResult>> Get(std::string key, GetOptions opts = {});
  // Batched lookup. With batching enabled (default) the keys are grouped by
  // owning shard/replica set and each backend receives one vectored index
  // read and one vectored data read (plus one batched RPC fallback), paced
  // by the incast gate; keys the fast path cannot cleanly resolve retry
  // through the single-key path, so observable values/versions are
  // identical to the naive fan-out.
  sim::Task<MultiGetResult> MultiGet(std::vector<std::string> keys,
                                     GetOptions opts = {});

  sim::Task<Status> Set(std::string key, Bytes value, GetOptions opts = {});
  sim::Task<Status> Erase(std::string key, GetOptions opts = {});
  // Installs `value` only if the stored version equals `expected`; returns
  // whether the swap applied (§5.2).
  sim::Task<StatusOr<bool>> Cas(std::string key, Bytes value,
                                VersionNumber expected, GetOptions opts = {});

  // Background batched access recording.
  void StartTouchFlusher();
  void StopTouchFlusher();
  // Flushes pending touch records immediately.
  sim::Task<void> FlushTouches();

  // Background cell-view refresh: keeps the client riding along as the
  // resharder moves the cell through reconfiguration generations, instead
  // of only noticing on a failed op. Explicit start (like the touch
  // flusher) so tests that drain the event queue stay terminating.
  void StartConfigWatcher();
  void StopConfigWatcher();

  // Read-only stats. The old `mutable_stats()` escape hatch is gone: every
  // counter is recorded by the client itself and mirrored into the fabric's
  // metrics registry under cm.client.*{client=<id>} — use the registry
  // snapshot (or this accessor) to observe, never to poke.
  const ClientStats& stats() const { return stats_; }
  // Read-only view of the location cache (cm.client.loccache.* holds the
  // same counters; this exposes size/capacity for tests).
  const LocationCache& loccache() const { return loccache_; }
  const SpeculationGovernor& spec_governor() const { return spec_governor_; }
  net::HostId host() const { return host_; }
  const ClientConfig& config() const { return config_; }
  const CellView& view() const { return view_; }
  sim::Simulator& simulator() { return sim_; }
  net::Fabric& fabric() { return fabric_; }

 private:
  // Per-shard RMA connection state (established via the Info handshake).
  struct Conn {
    bool connected = false;
    net::HostId host = net::kInvalidHost;
    rma::RegionId index_region = rma::kInvalidRegion;
    uint64_t num_buckets = 0;
    uint32_t ways = 0;
    uint32_t config_id = 0;
    sim::Time dead_until = 0;   // backoff after connection failures
    sim::Duration backoff_cur = 0;  // decorrelated-jitter state
    bool ever_failed = false;   // reconnects probe off the serving path
    bool probe_in_flight = false;
    // Index-fetch latency EWMA (ns); feeds outlier ejection (gray failure).
    double lat_ewma_ns = 0.0;
  };

  // Internal per-op context: everything the GET/mutation internals used to
  // take as positional parameters, resolved once at the public entry point
  // from ClientConfig overlaid with GetOptions.
  struct OpContext {
    Hash128 hash{};                 // of the op's key (GET paths)
    sim::Time deadline_at = 0;      // absolute deadline (GET paths)
    sim::Duration op_deadline = 0;  // per-attempt budget (mutation RPCs)
    trace::SpanId span = trace::kNoSpan;  // op root span
    LookupStrategy strategy = LookupStrategy::kAuto;
    bool hedge = false;
    bool speculate = false;
    bool degraded = false;
    uint32_t tenant = 0;
  };
  OpContext MakeContext(const GetOptions& opts, trace::SpanId span) const;

  sim::Task<Status> RefreshConfig();
  sim::Task<Status> EnsureConnected(uint32_t shard);
  void NoteReplicaFailure(uint32_t shard);

  // Shared read pipeline -----------------------------------------------
  // GetOnce and MultiGetBatched both plan, issue and decide through these;
  // each caller keeps only its own deliberate divergences.
  //
  // SCAR when the strategy asks for it (kAuto: when the transport has it),
  // else 2xR.
  bool ChooseScar(LookupStrategy strategy) const;
  // The replicas of `primary` worth asking: skips replicas still backing
  // off; immutable R=2 consults one, spread by client id but preferring
  // replicas without a recent connection failure (failover, §6.4).
  std::vector<uint32_t> SelectReplicas(uint32_t primary);
  // Connect-or-probe for one selected replica; true when it can be read
  // now. A current connection answers without awaiting; a replica that
  // failed before is re-probed off the serving path and skipped ("clients
  // only send two out of three operations per GET, as they await
  // reconnect", §7.2.3); otherwise this awaits the first-time handshake.
  sim::Task<bool> ConnectReplica(uint32_t shard);
  // Bookkeeping for a failed RMA read against `shard`: a revoked window
  // drops the connection (re-handshake next attempt); a lost op counts a
  // timeout (the replica itself may be fine — no backoff).
  void NoteReadFault(const Status& status, uint32_t shard);
  // Feeds one index vote into `tally`: a failed fetch gets the read-fault
  // bookkeeping (plus a replica backoff when the replica is unreachable),
  // and an absence quorum drops whatever the location cache held for the
  // key (misses are never cached).
  QuorumTally::Verdict CountVote(QuorumTally& tally, IndexVote vote,
                                 const Hash128& hash);

  // RMA-plane tenant policing. One-sided reads bypass the backend CPU, so
  // the client enforces its own tenant's quota before any fabric traffic:
  // `reads` read tokens (Get: 1; a batch: one per unique key). The bytes
  // bucket is post-paid (the value size is unknown until the read lands),
  // so a tenant in byte-debt sheds until it refills. A shed is never
  // silent: false + cm.tenant.shed, and the caller returns
  // RESOURCE_EXHAUSTED. An override tenant is attributed backend-side.
  bool AcquireTenantReads(const OpContext& ctx, int64_t reads);
  // The post-paid byte debit (Get: per hit; a batch: once per batch).
  void DebitTenantBytes(const OpContext& ctx, int64_t bytes);
  // Records one GET's outcome — the single emission point for per-GET
  // accounting, shared by Get and the batch: transparent decompression,
  // hit/miss/error counters, the touch record behind a hit (primary shard
  // of `hash` among `num_shards`), and the latency sample since `start`.
  void FinishGet(StatusOr<GetResult>& result, const Hash128& hash,
                 uint32_t num_shards, sim::Time start);

  // Client-library CPU (Figs 6b, 7): one RMA op issued, one response
  // validated. ChargeValidate also records a "validate" child span of
  // `span` (none for kNoSpan).
  sim::CpuPool::RunAwaiter ChargeIssue();
  sim::Task<void> ChargeValidate(trace::SpanId span);

  // One GET attempt; kAborted-class results are retried by Get().
  sim::Task<StatusOr<GetResult>> GetOnce(const std::string& key,
                                         const OpContext& ctx);
  sim::Task<StatusOr<GetResult>> GetViaRpc(const std::string& key,
                                           uint32_t shard,
                                           const OpContext& ctx);
  // Dual-version window fallback: RPC GETs against the previous owners of
  // the key (the record may not have streamed to the new owners yet).
  sim::Task<StatusOr<GetResult>> PrevWindowGet(const std::string& key,
                                               const OpContext& ctx);
  // Quorum-loss fallback: probes every replica once over RPC and returns
  // the best sub-quorum answer (tombstone-aware, version-floored), flagged
  // degraded. Never touches the location cache.
  sim::Task<StatusOr<GetResult>> DegradedGet(const std::string& key,
                                             const OpContext& ctx);

  // Issues an index (bucket or SCAR) fetch against one replica, delivering
  // the vote into `votes`. Emits a quorum_fetch child span under ctx.span.
  sim::Task<void> FetchIndex(std::shared_ptr<sim::Channel<IndexVote>> votes,
                             int replica, uint32_t shard, bool use_scar,
                             OpContext ctx);
  // Fetches and validates the DataEntry behind `entry` from `shard`.
  sim::Task<StatusOr<GetResult>> FetchData(const std::string& key,
                                           uint32_t shard, IndexEntry entry,
                                           OpContext ctx);
  // The single-read shape FetchData and SpeculativeGet share: issue CPU,
  // one RMA read of `p` from `target` under `span`, then — if the read
  // landed — validate CPU. The caller validates the bytes its own way
  // (quorumed version vs cached floor) and ends `span`.
  sim::Task<StatusOr<BufferView>> ReadDataEntry(net::HostId target,
                                                const Pointer& p,
                                                trace::SpanId span);
  // Validates a DataEntry blob against the four hit conditions. On a hit
  // the returned value is a slice of `blob` (shared storage, no copy).
  StatusOr<GetResult> ValidateData(const BufferView& blob,
                                   const std::string& key, const Hash128& hash,
                                   const VersionNumber& quorum_version);
  // The same for a SCAR's DataEntry snapshot, validated in place (a
  // borrow); the value is its one copy, or a slice if already copied.
  StatusOr<GetResult> ValidateData(const rma::Snapshot& blob,
                                   const std::string& key, const Hash128& hash,
                                   const VersionNumber& quorum_version);
  // Hit conditions (1)-(3) of a DataEntry's bytes, counting torn reads.
  StatusOr<DataEntryView> CheckDataEntry(ByteSpan blob, const std::string& key,
                                         const Hash128& hash,
                                         const VersionNumber& quorum_version);

  // 1-RMA speculative fast path ----------------------------------------
  // Whether `ctx` may consult the location cache right now: speculation
  // enabled, RMA available, no resharding dual-version window, breaker
  // closed.
  bool SpeculationEligible(const OpContext& ctx) const;
  // One speculative direct read for a cached key. Engaged only on a fully
  // validated hit; disengaged covers both "no usable cache state" (miss,
  // stale conn/config, breaker open) and a failed speculation (the entry is
  // invalidated) — either way the caller runs the ordinary quorum path.
  sim::Task<std::optional<GetResult>> SpeculativeGet(const std::string& key,
                                                     const OpContext& ctx);
  // Validates a speculatively-read blob — no index quorum backing it, so
  // acceptance is (CRC, full key, version >= cached floor) instead of
  // version-equality with a quorumed IndexEntry.
  StatusOr<GetResult> ValidateSpeculative(const BufferView& blob,
                                          const std::string& key,
                                          const Hash128& hash,
                                          const VersionNumber& floor);
  // Caches the location behind a successful quorumed GET (skips
  // overflow-flagged buckets; no-op when speculation is off for the op).
  void CacheWinningVote(const Hash128& hash, const IndexVote& vote,
                        const OpContext& ctx);
  // The cached location for `hash` if it is servable over the current
  // connection (same shard, serving host and config generation); a stale
  // entry is invalidated.
  std::optional<CachedLocation> LookupSpeculation(const Hash128& hash);
  // Settles one speculative read. A validated hit raises the key's version
  // floor (nothing older may be served through the entry again) and
  // returns true; a failed read or validation trips the governor and
  // invalidates the entry, and the key falls back to the quorum path.
  bool SettleSpeculation(const Hash128& hash, uint32_t shard,
                         const StatusOr<GetResult>& result);

  // Batched MultiGet pipeline ------------------------------------------
  // Decodes one bucket read into a vote (config-id check + way scan);
  // shared by the single-key FetchIndex and the batched index phase.
  Status DecodeBucketVote(ByteSpan bucket_bytes, uint32_t shard,
                          const Hash128& hash, uint32_t ways,
                          IndexVote* vote) const;
  // The coalesced pipeline behind MultiGet; `unique` maps result slots to
  // first-occurrence slots for duplicate keys.
  sim::Task<void> MultiGetBatched(const std::vector<std::string>& keys,
                                  const std::vector<size_t>& unique,
                                  GetOptions opts, OpContext ctx,
                                  MultiGetResult* out);
  // One backend's share of a vectored op.
  struct VectorResult {
    uint32_t shard = 0;
    uint32_t ways = 0;  // index phase: bucket geometry at issue time
    Status status;      // whole-vector outcome (lost command/completion)
    std::vector<StatusOr<BufferView>> reads;       // ReadV
    std::vector<StatusOr<rma::ScarResult>> scars;  // ScanAndReadV
  };
  // Issues one vectored op toward `shard` through the incast gate —
  // ScanAndReadV when `scars` is non-empty, else ReadV — and delivers its
  // result into `results`. `ways` rides along for the index decode.
  sim::Task<void> IssueVector(
      uint32_t shard, uint32_t ways, net::HostId target,
      std::vector<rma::ReadVEntry> reads, std::vector<rma::ScarVEntry> scars,
      trace::SpanId span, std::shared_ptr<sim::Channel<VectorResult>> results);
  // The next of `pending` vector results, or nullopt once all arrived or
  // `deadline` passed. Validation CPU is charged once per vector, not once
  // per key — the second half of the batching amortization.
  sim::Task<std::optional<VectorResult>> AwaitVector(
      sim::Channel<VectorResult>& results, int& pending, sim::Time deadline);
  // Incast-aware issue scheduler: a counting semaphore bounds in-flight
  // vectored ops per backend shard and a pacing clock spaces consecutive
  // issues toward the same shard.
  sim::Task<void> AcquireIssueSlot(uint32_t shard);
  void ReleaseIssueSlot(uint32_t shard);

  VersionNumber NextVersion();
  sim::Task<Status> MutateAll(const char* method, const std::string& key,
                              Bytes request, int* applied_out,
                              const OpContext& ctx);
  void RecordTouch(const Hash128& hash, uint32_t primary_shard);

  sim::Simulator& sim_;
  net::Fabric& fabric_;
  rpc::RpcNetwork& rpc_network_;
  rma::RmaTransport* transport_;
  truetime::TrueTime& truetime_;
  net::HostId host_;
  net::HostId config_host_;
  ClientConfig config_;

  // Client-private randomness for backoff jitter; seeded from client_id so
  // runs stay deterministic while distinct clients desynchronize.
  Rng rng_;

  CellView view_;
  bool view_valid_ = false;
  bool refresh_in_flight_ = false;
  // RMA-plane policing (provisioned from the distributed TenantRegistry on
  // RefreshConfig; only consulted when config_.tenant != 0 and the registry
  // quotas this tenant).
  TokenBucket tenant_reads_bucket_;
  TokenBucket tenant_bytes_bucket_;
  bool tenant_limited_ = false;
  bool tenant_provisioned_ = false;
  uint32_t tenant_registry_version_ = 0;
  std::vector<Conn> conns_;
  uint32_t seq_ = 0;

  // Incast gate state, lazily created per backend shard. The Channel is a
  // counting semaphore (pre-loaded with kBatchMaxInflightPerBackend tokens;
  // Recv = acquire, Send = release) — FIFO, so waiters drain
  // deterministically.
  struct IssueGate {
    std::shared_ptr<sim::Channel<bool>> slots;
    sim::Time next_issue_at = 0;
  };
  std::unordered_map<uint32_t, IssueGate> issue_gates_;

  // Touch buffers per backend host.
  std::unordered_map<net::HostId, Bytes> touch_buffers_;
  bool touch_flusher_running_ = false;
  bool config_watcher_running_ = false;
  std::shared_ptr<bool> alive_;

  ClientStats stats_;
  // 1-RMA fast path: location cache + adaptive speculation breaker, plus
  // the last membership epoch seen from the config service (an epoch move
  // means a backend joined/left → every cached pointer is suspect).
  LocationCache loccache_;
  SpeculationGovernor spec_governor_;
  uint64_t membership_epoch_ = 0;
  // Mirrors every ClientStats field into the fabric registry under
  // cm.client.*{client=<id>} for the client's lifetime.
  metrics::ExportGroup exports_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_CLIENT_H_
