#include "cliquemap/client.h"

#include <algorithm>
#include <string_view>

#include "cliquemap/compress.h"

namespace cm::cliquemap {
namespace {

// Incast guard for the batched pipeline: at most this many in-flight
// vectored ops per backend, and consecutive issues toward one backend paced
// at least this far apart, so a large batch does not burst-solicit a host.
constexpr int kBatchMaxInflightPerBackend = 2;
constexpr sim::Duration kBatchIssueGap = sim::Microseconds(2);

// Skip interval for a replica after a connection failure (§7.2.3): the
// decorrelated jitter of NoteReplicaFailure stays in [base, max].
constexpr sim::Duration kReplicaBackoff = sim::Milliseconds(200);
constexpr sim::Duration kReplicaBackoffMax = sim::Seconds(2);

// Full-jittered exponential backoff between GET retry attempts.
constexpr sim::Duration kRetryBackoffBase = sim::Microseconds(50);
constexpr sim::Duration kRetryBackoffMax = sim::Milliseconds(2);

// Client-library CPU per RMA op issued / per response validated (Figs 6b, 7).
constexpr sim::Duration kIssueCpu = sim::Nanoseconds(400);
constexpr sim::Duration kValidateCpu = sim::Nanoseconds(250);

// Gray-failure defense (§7.2.3): the per-replica index-fetch latency EWMA
// weight, and the ClientConfig::eject_slow_replicas outlier threshold
// (EWMA above this multiple of the fastest live replica's).
constexpr double kEwmaAlpha = 0.2;
constexpr double kSlowEjectFactor = 4.0;

// Per-probe budget of the RPC fallbacks that usually run with the op
// deadline already spent: the degraded pass and previous-owner reads.
constexpr sim::Duration kDegradedProbeGrace = sim::Milliseconds(1);
constexpr sim::Duration kPrevWindowGrace = sim::Microseconds(500);

// Entry `j` of a vectored op's result: the whole-vector failure when the op
// was lost, else the entry's own outcome.
template <typename T>
Status EntryStatus(const Status& whole,
                   const std::vector<StatusOr<T>>& entries, size_t j) {
  if (!whole.ok()) return whole;
  if (j >= entries.size()) return InternalError("short read vector");
  return entries[j].status();
}

}  // namespace

Client::Client(net::Fabric& fabric, rpc::RpcNetwork& rpc_network,
               rma::RmaTransport* transport, truetime::TrueTime& truetime,
               net::HostId host, net::HostId config_host, ClientConfig config)
    : sim_(fabric.simulator()),
      fabric_(fabric),
      rpc_network_(rpc_network),
      transport_(transport),
      truetime_(truetime),
      host_(host),
      config_host_(config_host),
      config_(config),
      rng_(0x5eedC11E4DABull ^ (uint64_t{config.client_id} * 0x9E3779B97F4A7C15ull)),
      alive_(std::make_shared<bool>(true)),
      loccache_(config.loccache_entries),
      exports_(&fabric.metrics()) {
  const metrics::Labels l = {{"client", std::to_string(config_.client_id)}};
  metrics::ExportCounters(exports_, "cm.client.", l, stats_);
  metrics::ExportCounters(exports_, "cm.client.loccache.", l,
                          loccache_.stats());
  if (config_.tenant != kDefaultTenant) {
    metrics::Labels tl = l;
    tl.emplace_back("tenant", std::to_string(config_.tenant));
    exports_.ExportCounter("cm.tenant.shed", tl, &stats_.tenant_shed);
    exports_.ExportCounter("cm.tenant.rma_bytes", tl,
                           &stats_.tenant_rma_bytes);
  }
  exports_.ExportGauge("cm.client.loccache.entries", l,
                       [this] { return static_cast<int64_t>(loccache_.size()); });
  // Lifetime fraction of speculative reads that validated, in percent; the
  // breaker's windowed view decides enable/disable, this gauge is the
  // perf-gated health signal (near 100 on a stable cell).
  exports_.ExportGauge("cm.client.loccache.success_ratio_pct", l, [this] {
    return spec_governor_.success_ratio_pct();
  });
  exports_.ExportHistogram("cm.client.backoff_ns", l, &stats_.backoff_ns);
  exports_.ExportHistogram("cm.client.get_latency_ns", l,
                           &stats_.get_latency_ns);
  exports_.ExportHistogram("cm.client.set_latency_ns", l,
                           &stats_.set_latency_ns);
}

Client::~Client() { *alive_ = false; }

// ---------------------------------------------------------------------------
// Configuration / connections
// ---------------------------------------------------------------------------

sim::Task<Status> Client::Connect() { return RefreshConfig(); }

sim::Task<Status> Client::RefreshConfig() {
  ++stats_.config_refreshes;
  rpc::RpcChannel ch(rpc_network_, host_, config_host_);
  auto resp =
      co_await ch.Call(proto::kMethodGetCellView, {}, sim::Milliseconds(50));
  if (!resp.ok()) co_return resp.status();
  auto view = DecodeCellView(*resp);
  if (!view.ok()) co_return view.status();

  // RMA-plane policing: provision this tenant's buckets from the registry
  // riding alongside the view. Untenanted clients skip the lookup entirely.
  rpc::WireReader r(*resp);
  if (config_.tenant != kDefaultTenant) {
    if (auto blob = r.GetBytes(proto::kTagTenantRegistry)) {
      // Re-provisioning resets bucket balances, so only do it when the
      // registry actually changed — a routine view refresh must not hand a
      // flooding tenant a fresh burst.
      if (auto reg = DecodeTenantRegistry(*blob);
          reg.ok() && (!tenant_provisioned_ ||
                       reg->version() != tenant_registry_version_)) {
        tenant_provisioned_ = true;
        tenant_registry_version_ = reg->version();
        if (const TenantSpec* spec = reg->Find(config_.tenant)) {
          // Burst: a quarter-second of quota, at least `floor`.
          auto quota = [](double rate, double floor) {
            return rate > 0 ? TokenBucket(rate, std::max(floor, rate * 0.25))
                            : TokenBucket();
          };
          tenant_reads_bucket_ = quota(spec->rma_reads_per_sec, 4.0);
          tenant_bytes_bucket_ = quota(spec->rma_bytes_per_sec, 4096.0);
          tenant_limited_ = !tenant_reads_bucket_.unlimited() ||
                            !tenant_bytes_bucket_.unlimited();
        }
      }
    }
  }

  CellView fresh = *std::move(view);
  conns_.resize(fresh.num_shards());
  for (uint32_t s = 0; s < fresh.num_shards(); ++s) {
    // Invalidate connections whose serving host or config id moved: the
    // client just discovered a migration / spare promotion (§6.1). Cached
    // data-entry locations on that shard die with the connection — the new
    // serving task has its own regions and allocations.
    if (view_valid_ && s < view_.num_shards() &&
        (view_.shard_hosts[s] != fresh.shard_hosts[s] ||
         view_.shard_config_ids[s] != fresh.shard_config_ids[s])) {
      conns_[s] = Conn{};
      loccache_.InvalidateShard(s);
    }
  }
  // Cell-wide location-cache flushes: a generation bump or a resharding
  // transition edge (opening or closing) re-homes keys across shards, so
  // per-shard invalidation is not enough — every cached location is
  // suspect.
  if (view_valid_ && (fresh.generation != view_.generation ||
                      fresh.num_shards() != view_.num_shards() ||
                      fresh.transition != view_.transition)) {
    loccache_.Flush();
  }
  // Membership epoch rides along with the view once lease churn happens
  // (absent — and implicitly 0 — before then): an epoch move means a
  // backend joined or left, possibly without a per-shard host diff this
  // client can see (e.g. a spare absorbed a failover and back).
  if (const uint64_t epoch =
          r.GetU64(proto::kTagMembershipEpoch).value_or(membership_epoch_);
      epoch != membership_epoch_) {
    membership_epoch_ = epoch;
    loccache_.Flush();
  }
  view_ = std::move(fresh);
  view_valid_ = true;
  co_return OkStatus();
}

sim::Task<Status> Client::EnsureConnected(uint32_t shard) {
  {
    const Conn& conn = conns_[shard];
    if (conn.connected && conn.config_id == view_.shard_config_ids[shard] &&
        conn.host == view_.shard_hosts[shard]) {
      co_return OkStatus();
    }
  }
  // Up to two rounds: if the backend we handshake with reports a config id
  // that contradicts our cell view, the view is stale (a migration or
  // spare handoff we haven't heard about) — refresh it and retry once.
  for (int round = 0; round < 2; ++round) {
    const net::HostId target = view_.shard_hosts[shard];
    rpc::RpcChannel ch(rpc_network_, host_, target);
    auto resp =
        co_await ch.Call(proto::kMethodInfo, {}, sim::Milliseconds(20));
    if (!resp.ok()) {
      NoteReplicaFailure(shard);
      co_return resp.status();
    }
    // Re-index: conns_ may have been resized by a concurrent RefreshConfig
    // while we were suspended in the RPC.
    if (shard >= conns_.size()) co_return UnavailableError("cell shrank");
    rpc::WireReader r(*resp);
    auto index_region = r.GetU32(proto::kTagIndexRegion);
    auto num_buckets = r.GetU64(proto::kTagNumBuckets);
    auto ways = r.GetU32(proto::kTagWays);
    auto config_id = r.GetU32(proto::kTagConfigId);
    if (!index_region || !num_buckets || !ways || !config_id) {
      co_return InternalError("malformed Info response");
    }
    if (*config_id != view_.shard_config_ids[shard] && round == 0) {
      Status s = co_await RefreshConfig();
      if (!s.ok()) co_return s;
      if (shard >= conns_.size()) co_return UnavailableError("cell shrank");
      continue;
    }
    Conn& conn = conns_[shard];
    conn.connected = true;
    conn.host = target;
    conn.index_region = *index_region;
    conn.num_buckets = *num_buckets;
    conn.ways = *ways;
    conn.config_id = *config_id;
    conn.dead_until = 0;
    conn.backoff_cur = 0;  // healthy again: reset the jitter state
    conn.ever_failed = false;
    co_return OkStatus();
  }
  co_return UnavailableError("config still stale after refresh");
}

void Client::NoteReplicaFailure(uint32_t shard) {
  // The cell may have shrunk (resharding) while the failing op was in
  // flight; there is no connection state left to back off.
  if (shard >= conns_.size()) return;
  Conn& conn = conns_[shard];
  conn.connected = false;
  conn.ever_failed = true;
  // Decorrelated jitter: sleep = min(cap, uniform[base, 3 * prev_sleep]).
  // Grows toward the cap under persistent failure, and spreads a fleet of
  // clients out so a recovering backend is not hit by a probe incast.
  const sim::Duration prev = std::max(conn.backoff_cur, kReplicaBackoff);
  const auto span = double(3 * prev - kReplicaBackoff);
  const auto next = std::min<sim::Duration>(
      kReplicaBackoffMax,
      kReplicaBackoff + static_cast<sim::Duration>(rng_.NextDouble() * span));
  conn.backoff_cur = next;
  conn.dead_until = sim_.now() + next;
  ++stats_.backoff_events;
  stats_.backoff_ns.Record(next);
  // A connection failure often means the serving task moved (migration,
  // spare promotion, restart): refresh the cell view in the background
  // while quorum reads keep being served by the healthy replicas (§7.2.3).
  if (!refresh_in_flight_) {
    refresh_in_flight_ = true;
    sim_.Spawn([](Client* self, std::shared_ptr<bool> alive) -> sim::Task<void> {
      (void)co_await self->RefreshConfig();
      if (*alive) self->refresh_in_flight_ = false;
    }(this, alive_));
  }
}

// ---------------------------------------------------------------------------
// GET
// ---------------------------------------------------------------------------

Client::OpContext Client::MakeContext(const GetOptions& opts,
                                      trace::SpanId span) const {
  OpContext ctx;
  ctx.op_deadline = opts.deadline > 0 ? opts.deadline : config_.op_deadline;
  ctx.deadline_at = sim_.now() + ctx.op_deadline;
  ctx.span = span;
  ctx.strategy = opts.strategy.value_or(config_.strategy);
  ctx.hedge = opts.hedge_reads.value_or(config_.hedge_reads);
  ctx.speculate =
      opts.speculate.value_or(config_.speculate) && loccache_.capacity() > 0;
  ctx.degraded = opts.degraded.value_or(config_.degraded_reads);
  ctx.tenant = opts.tenant != 0 ? opts.tenant : config_.tenant;
  return ctx;
}

sim::Task<StatusOr<GetResult>> Client::Get(std::string key, GetOptions opts) {
  const sim::Time start = sim_.now();
  OpContext ctx = MakeContext(opts, trace::kNoSpan);
  ++stats_.gets;
  if (!AcquireTenantReads(ctx, 1)) {
    co_return ResourceExhaustedError("tenant rma quota exceeded");
  }
  ctx.hash = config_.hash_fn(key);
  trace::Tracer& tracer = fabric_.tracer();
  ctx.span = tracer.BeginRoot("get", host_);

  StatusOr<GetResult> result = DeadlineExceededError("retries exhausted");
  int attempt = 0;
  for (; attempt <= config_.max_retries; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    if (!view_valid_) {
      Status s = co_await RefreshConfig();
      if (!s.ok()) {
        result = s;
        break;
      }
    }
    const uint32_t gen_at_attempt = view_.generation;
    result = co_await GetOnce(key, ctx);
    if (result.ok()) break;
    if (result.status().code() == StatusCode::kNotFound) {
      // Dual-version window: the previous owners are consulted once, after
      // the loop.
      if (view_valid_ && view_.transition) break;
      // The topology moved underneath this attempt (a commit raced the
      // read): the absence verdict was formed against owners that may no
      // longer hold the key. Re-read under the fresh view instead of
      // reporting a miss.
      if (view_valid_ && view_.generation != gen_at_attempt &&
          sim_.now() < ctx.deadline_at) {
        continue;
      }
      break;
    }
    if (sim_.now() >= ctx.deadline_at) {
      result = DeadlineExceededError("get deadline exceeded");
      break;
    }
    // Retry at the appropriate layer (§3): config mismatches refresh the
    // cell view; connection-level errors may indicate a migration.
    const StatusCode code = result.status().code();
    if (code == StatusCode::kFailedPrecondition ||
        code == StatusCode::kUnavailable) {
      (void)co_await RefreshConfig();
    }
    if (code == StatusCode::kDeadlineExceeded) break;
    // Full-jittered exponential backoff before the next attempt, bounded by
    // both the configured cap and the remaining deadline. Without jitter,
    // every client whose op raced the same fault retries at the same
    // instant, turning one drop into a retry incast.
    const sim::Duration cap = std::min<sim::Duration>(
        kRetryBackoffMax, kRetryBackoffBase << std::min(attempt, 10));
    sim::Duration sleep = static_cast<sim::Duration>(
        rng_.NextDouble() * double(cap));
    sleep = std::min<sim::Duration>(sleep, ctx.deadline_at - sim_.now());
    if (sleep > 0) {
      ++stats_.backoff_events;
      stats_.backoff_ns.Record(sleep);
      co_await sim_.Delay(sleep);
    }
  }
  if (!result.ok() && result.status().code() != StatusCode::kNotFound &&
      attempt > config_.max_retries) {
    // The whole per-op retry budget was spent without success (§5.4).
    ++stats_.budget_exhausted;
  }

  // Dual-version window (resharding): a miss under the new topology may
  // just be a record that hasn't streamed over from its previous owner yet.
  // Consult the old owners before declaring a miss — both generations
  // answer reads while the window is open.
  // Any failure class qualifies: a clean miss, an inquorate vote, or a
  // deadline burned retrying against replicas that are still being seeded
  // all mean the same thing — the new owners cannot answer yet.
  if (!result.ok() && view_valid_ && view_.transition) {
    auto prev = co_await PrevWindowGet(key, ctx);
    if (prev.ok()) {
      ++stats_.prev_window_gets;
      result = std::move(prev);
    }
  }

  // Quorum-loss degraded pass (opt-in): the quorum path failed in a way
  // that may still leave live sub-quorum replicas — unreachable cohort
  // members, inquorate votes, a deadline burned against a dying cohort.
  // A clean NotFound is an *authoritative* absence quorum and is never
  // second-guessed here. On an unreachable cell the original error is
  // preserved (fail-fast semantics, degraded or not).
  if (!result.ok() && ctx.degraded && view_valid_) {
    const StatusCode c = result.status().code();
    if (c == StatusCode::kUnavailable || c == StatusCode::kDeadlineExceeded ||
        c == StatusCode::kAborted) {
      auto deg = co_await DegradedGet(key, ctx);
      if (deg.ok() || deg.status().code() == StatusCode::kNotFound) {
        result = std::move(deg);
      }
    }
  }

  // "A second failure ... causes the dirty quorum to degrade to an
  // inquorate state, which is treated as a cache miss" (§5.4): once the
  // retry budget is spent and the op still cannot form a quorum, report a
  // miss, not an error — the caller re-fetches from the system of record.
  if (!result.ok() && result.status().code() == StatusCode::kAborted &&
      result.status().message() == "inquorate") {
    result = NotFoundError("inquorate (degraded dirty quorum; miss)");
  }

  FinishGet(result, ctx.hash, view_.num_shards(), start);
  if (result.ok()) DebitTenantBytes(ctx, int64_t(result->value.size()));
  tracer.End(ctx.span, result.ok() ? 1 : 0);
  co_return result;
}

bool Client::AcquireTenantReads(const OpContext& ctx, int64_t reads) {
  if (!tenant_limited_ || ctx.tenant != config_.tenant) return true;
  const sim::Time now = sim_.now();
  if (tenant_reads_bucket_.TryAcquire(now, double(reads)) &&
      tenant_bytes_bucket_.available(now) >= 0) {
    return true;
  }
  stats_.tenant_shed += reads;
  return false;
}

void Client::DebitTenantBytes(const OpContext& ctx, int64_t bytes) {
  if (!tenant_limited_ || ctx.tenant != config_.tenant) return;
  stats_.tenant_rma_bytes += bytes;
  tenant_bytes_bucket_.Debit(sim_.now(), double(bytes));
}

void Client::FinishGet(StatusOr<GetResult>& result, const Hash128& hash,
                       uint32_t num_shards, sim::Time start) {
  // Transparent decompression (stored values are marker-prefixed).
  if (result.ok() && config_.compress_values) {
    auto raw = DecompressValue(result->value);
    if (raw.ok()) {
      result->value = std::move(raw).value();
    } else {
      result = raw.status();
    }
  }
  if (result.ok()) {
    ++stats_.hits;
    RecordTouch(hash, PrimaryShard(hash, num_shards));
  } else if (result.status().code() == StatusCode::kNotFound) {
    ++stats_.misses;
  } else {
    ++stats_.get_errors;
  }
  stats_.get_latency_ns.Record(sim_.now() - start);
}

sim::Task<MultiGetResult> Client::MultiGet(std::vector<std::string> keys,
                                           GetOptions opts) {
  MultiGetResult out;
  if (keys.empty()) co_return out;  // no ops, no traffic, no counters
  ++stats_.multigets;
  out.results.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    out.results.emplace_back(InternalError("unresolved"));
  }

  if (!view_valid_) (void)co_await RefreshConfig();

  // The coalesced pipeline needs a stable RMA view of the cell; anything
  // else (RPC strategy, no transport, resharding window, single key) takes
  // the naive concurrent fan-out, which is also the correctness baseline.
  const bool want_batch = opts.batch.value_or(config_.batch_multiget);
  const LookupStrategy strategy = opts.strategy.value_or(config_.strategy);
  const bool can_batch = want_batch && keys.size() > 1 &&
                         transport_ != nullptr &&
                         strategy != LookupStrategy::kRpc && view_valid_ &&
                         !view_.transition && view_.num_shards() > 0;

  if (can_batch) {
    // Duplicate keys map onto their first occurrence: every slot gets its
    // own result, but each distinct key is looked up exactly once.
    std::vector<size_t> unique(keys.size());
    {
      std::unordered_map<std::string_view, size_t> first;
      first.reserve(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        auto [it, inserted] = first.emplace(keys[i], i);
        unique[i] = it->second;
      }
    }
    trace::Tracer& tracer = fabric_.tracer();
    const trace::SpanId span = tracer.BeginRoot("multiget", host_);
    OpContext ctx = MakeContext(opts, span);
    co_await MultiGetBatched(keys, unique, opts, ctx, &out);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (unique[i] != i) out.results[i] = out.results[unique[i]];
    }
    tracer.End(span, static_cast<int64_t>(keys.size()));
    co_return out;
  }

  // Naive fan-out: one independent Get per slot (duplicates included, as a
  // loop of Gets would behave).
  std::vector<sim::Task<void>> tasks;
  tasks.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    tasks.push_back([](Client* self, std::string key, GetOptions opts,
                       StatusOr<GetResult>* slot) -> sim::Task<void> {
      *slot = co_await self->Get(std::move(key), opts);
    }(this, keys[i], opts, &out.results[i]));
  }
  co_await sim::JoinAll(sim_, std::move(tasks));
  co_return out;
}

sim::Task<void> Client::MultiGetBatched(const std::vector<std::string>& keys,
                                        const std::vector<size_t>& unique,
                                        GetOptions opts, OpContext ctx,
                                        MultiGetResult* out) {
  const sim::Time start = sim_.now();
  out->stats.batched = true;

  std::vector<size_t> slots;  // unique result slots, in input order
  slots.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (unique[i] == i) slots.push_back(i);
  }
  stats_.batch_keys += static_cast<int64_t>(slots.size());

  // RMA-plane policing: one read-token acquire for the whole batch. Bytes
  // are post-paid once, below; keys that bounce to the single-key slowpath
  // pay that path's own toll (their retry really is another read).
  if (!AcquireTenantReads(ctx, static_cast<int64_t>(slots.size()))) {
    for (size_t slot : slots) {
      out->results[slot] = ResourceExhaustedError("tenant rma quota exceeded");
    }
    co_return;
  }

  const uint32_t n = view_.num_shards();
  const int quorum = QuorumSize(view_.mode);
  const bool use_scar = ChooseScar(ctx.strategy);

  // Per-key pipeline state. A key leaves the pipeline as kDone (batch
  // resolved it) or kSlow (bounced to the single-key retry path, which owns
  // every hard case: torn reads, inquorate votes, deadline, prev-window).
  enum class Phase { kIndex, kData, kRpc, kSlow, kDone };
  struct KeyState {
    size_t slot = 0;
    Hash128 hash{};
    std::vector<uint32_t> targets;
    Phase phase = Phase::kIndex;
    QuorumTally tally{0, 0};  // armed once the targets are connected
  };
  std::vector<KeyState> ks;
  ks.reserve(slots.size());

  // Replica plan per key: the single-key plan minus outlier ejection — a
  // shared vector op cannot eject per key.
  for (size_t slot : slots) {
    KeyState k;
    k.slot = slot;
    k.hash = config_.hash_fn(keys[slot]);
    k.targets = SelectReplicas(PrimaryShard(k.hash, n));
    if (static_cast<int>(k.targets.size()) < quorum) k.phase = Phase::kSlow;
    ks.push_back(std::move(k));
  }

  // Connect pass: one handshake per distinct unconnected shard, in shard
  // order so handshakes stay deterministic.
  {
    std::map<uint32_t, bool> shard_ok;
    for (const KeyState& k : ks) {
      if (k.phase != Phase::kIndex) continue;
      for (uint32_t shard : k.targets) shard_ok.emplace(shard, false);
    }
    for (auto& [shard, ok] : shard_ok) ok = co_await ConnectReplica(shard);
    for (KeyState& k : ks) {
      if (k.phase != Phase::kIndex) continue;
      std::erase_if(k.targets,
                    [&](uint32_t shard) { return !shard_ok[shard]; });
      if (static_cast<int>(k.targets.size()) < quorum) {
        k.phase = Phase::kSlow;
      } else {
        k.tally = QuorumTally(static_cast<int>(k.targets.size()), quorum);
      }
    }
  }

  // --- Speculative phase: location-cached keys are peeled out of the
  // batch plan into one vectored direct read per backend. A validated hit
  // resolves the key in a single RMA round; a failed speculation
  // invalidates its entry and bounces the key back into the index plan
  // below (an unresolved vector — lost op or deadline — bounces back
  // without invalidating: the read never happened). ---
  if (SpeculationEligible(ctx)) {
    struct SpecTarget {
      size_t ki = 0;        // index into ks
      CachedLocation loc;   // snapshot of the cached entry
    };
    std::map<uint32_t, std::vector<SpecTarget>> spec_by_shard;
    for (size_t i = 0; i < ks.size(); ++i) {
      if (ks[i].phase != Phase::kIndex) continue;
      if (auto loc = LookupSpeculation(ks[i].hash)) {
        spec_by_shard[loc->shard].push_back({i, *loc});
      }
    }
    auto results = std::make_shared<sim::Channel<VectorResult>>(sim_);
    for (const auto& [shard, items] : spec_by_shard) {
      std::vector<rma::ReadVEntry> entries;
      entries.reserve(items.size());
      for (const SpecTarget& t : items) {
        entries.push_back(
            {t.loc.pointer.region, t.loc.pointer.offset, t.loc.pointer.size});
      }
      stats_.loccache_speculative_reads += static_cast<int64_t>(items.size());
      sim_.Spawn(IssueVector(shard, 0, conns_[shard].host, std::move(entries),
                             {}, ctx.span, results));
    }
    int pending = static_cast<int>(spec_by_shard.size());
    out->stats.coalesced_reads += pending;
    while (auto b = co_await AwaitVector(*results, pending, ctx.deadline_at)) {
      const auto& items = spec_by_shard[b->shard];
      for (size_t j = 0; j < items.size(); ++j) {
        KeyState& k = ks[items[j].ki];
        const Status read = EntryStatus(b->status, b->reads, j);
        StatusOr<GetResult> res =
            read.ok() ? ValidateSpeculative(*b->reads[j], keys[k.slot], k.hash,
                                            items[j].loc.version)
                      : StatusOr<GetResult>(read);
        if (SettleSpeculation(k.hash, b->shard, res)) {
          out->results[k.slot] = std::move(res);
          k.phase = Phase::kDone;
        }
        // Otherwise the phase stays kIndex: the key rejoins the quorum plan.
      }
    }
  }

  // --- Index phase: one vectored op per backend shard, covering every
  // (key, replica) routed there, issued through the incast gate. ---
  // (key index in ks, replica ordinal) per shard, in key order.
  std::map<uint32_t, std::vector<std::pair<size_t, int>>> by_shard;
  for (size_t i = 0; i < ks.size(); ++i) {
    if (ks[i].phase != Phase::kIndex) continue;
    for (size_t r = 0; r < ks[i].targets.size(); ++r) {
      by_shard[ks[i].targets[r]].push_back({i, static_cast<int>(r)});
    }
  }
  auto index_results = std::make_shared<sim::Channel<VectorResult>>(sim_);
  for (const auto& [shard, items] : by_shard) {
    const Conn& conn = conns_[shard];
    const auto length = static_cast<uint32_t>(BucketBytes(conn.ways));
    std::vector<rma::ReadVEntry> reads;
    std::vector<rma::ScarVEntry> scars;
    for (const auto& [ki, replica] : items) {
      const Hash128& hash = ks[ki].hash;
      const uint64_t offset =
          BucketIndex(hash, conn.num_buckets) * BucketBytes(conn.ways);
      if (use_scar) {
        scars.push_back({conn.index_region, offset, length, hash.hi, hash.lo});
      } else {
        reads.push_back({conn.index_region, offset, length});
      }
    }
    sim_.Spawn(IssueVector(shard, conn.ways, conn.host, std::move(reads),
                           std::move(scars), ctx.span, index_results));
  }
  int index_pending = static_cast<int>(by_shard.size());
  out->stats.backends_contacted = index_pending;
  out->stats.coalesced_reads += index_pending;

  while (auto b = co_await AwaitVector(*index_results, index_pending,
                                       ctx.deadline_at)) {
    const auto& items = by_shard[b->shard];
    for (size_t j = 0; j < items.size(); ++j) {
      KeyState& k = ks[items[j].first];
      if (k.phase != Phase::kIndex) continue;  // already decided
      IndexVote vote;
      vote.replica = items[j].second;
      vote.shard = b->shard;
      if (use_scar) {
        vote.status = EntryStatus(b->status, b->scars, j);
        if (vote.status.ok()) {
          vote.status = b->scars[j]->bucket.Borrow([&](ByteSpan bucket) {
            return DecodeBucketVote(bucket, b->shard, k.hash, b->ways, &vote);
          });
          if (vote.status.ok()) vote.scar_data = std::move(b->scars[j]->data);
        }
      } else {
        vote.status = EntryStatus(b->status, b->reads, j);
        if (vote.status.ok()) {
          vote.status = DecodeBucketVote(*b->reads[j], b->shard, k.hash,
                                         b->ways, &vote);
        }
      }
      // Every dead end routes to the slow path (or the batched RPC) instead
      // of failing the key.
      const QuorumTally::Verdict verdict =
          CountVote(k.tally, std::move(vote), k.hash);
      if (verdict == QuorumTally::Verdict::kQuorum) {
        k.phase = Phase::kData;
      } else if (verdict == QuorumTally::Verdict::kAbsence) {
        if (k.tally.overflow()) {
          k.phase = Phase::kRpc;  // bucket overflow: RPC-servable (§4.2)
        } else {
          out->results[k.slot] = NotFoundError("absence quorum");
          k.phase = Phase::kDone;
        }
      } else if (verdict != QuorumTally::Verdict::kPending) {
        k.phase = Phase::kSlow;  // quorum impossible, or inquorate
      }
    }
  }
  for (KeyState& k : ks) {
    // Deadline or lost vector: the single-key path owns the retry/backoff
    // dance.
    if (k.phase == Phase::kIndex) k.phase = Phase::kSlow;
  }

  // --- Data phase. SCAR piggybacked the DataEntry bytes; validate in
  // place. 2xR issues one more vectored read per backend holding quorumed
  // pointers. A validated hit (or a full-key collision miss) resolves the
  // key; a torn read retries cleanly on the slow path. ---
  auto settle_data = [&](KeyState& k, const auto& blob) {
    const IndexVote& chosen = k.tally.winner();
    auto r = ValidateData(blob, keys[k.slot], k.hash, chosen.entry.version);
    if (r.ok() || r.status().code() == StatusCode::kNotFound) {
      if (r.ok()) CacheWinningVote(k.hash, chosen, ctx);
      out->results[k.slot] = std::move(r);
      k.phase = Phase::kDone;
    } else {
      k.phase = Phase::kSlow;
    }
  };
  if (use_scar) {
    for (KeyState& k : ks) {
      if (k.phase != Phase::kData) continue;
      if (k.tally.winner().scar_data.empty()) {
        ++stats_.torn_reads;  // pointer raced an eviction/mutation
        k.phase = Phase::kSlow;
        continue;
      }
      settle_data(k, k.tally.winner().scar_data);
    }
  } else {
    std::map<uint32_t, std::vector<size_t>> data_by_shard;
    for (size_t i = 0; i < ks.size(); ++i) {
      if (ks[i].phase == Phase::kData) {
        data_by_shard[ks[i].tally.winner().shard].push_back(i);
      }
    }
    auto results = std::make_shared<sim::Channel<VectorResult>>(sim_);
    int pending = 0;
    for (const auto& [shard, items] : data_by_shard) {
      if (shard >= conns_.size() || !conns_[shard].connected) {
        for (size_t i : items) ks[i].phase = Phase::kSlow;
        continue;
      }
      std::vector<rma::ReadVEntry> entries;
      entries.reserve(items.size());
      for (size_t i : items) {
        const Pointer& p = ks[i].tally.winner().entry.pointer;
        entries.push_back({p.region, p.offset, p.size});
      }
      sim_.Spawn(IssueVector(shard, 0, conns_[shard].host, std::move(entries),
                             {}, ctx.span, results));
      ++pending;
    }
    out->stats.coalesced_reads += pending;
    while (auto b = co_await AwaitVector(*results, pending, ctx.deadline_at)) {
      const auto& items = data_by_shard[b->shard];
      for (size_t j = 0; j < items.size(); ++j) {
        KeyState& k = ks[items[j]];
        if (k.phase != Phase::kData) continue;
        if (Status s = EntryStatus(b->status, b->reads, j); !s.ok()) {
          NoteReadFault(s, b->shard);
          k.phase = Phase::kSlow;
          continue;
        }
        settle_data(k, *b->reads[j]);
      }
    }
    for (KeyState& k : ks) {
      if (k.phase == Phase::kData) k.phase = Phase::kSlow;
    }
  }

  // --- Batched RPC fallback: one MultiGet RPC per backend for keys whose
  // absence quorum carried the bucket-overflow bit. ---
  std::map<uint32_t, std::vector<size_t>> rpc_by_shard;
  for (size_t i = 0; i < ks.size(); ++i) {
    if (ks[i].phase == Phase::kRpc && !ks[i].targets.empty()) {
      rpc_by_shard[ks[i].targets[0]].push_back(i);
    } else if (ks[i].phase == Phase::kRpc) {
      ks[i].phase = Phase::kSlow;
    }
  }
  for (const auto& [shard, items] : rpc_by_shard) {
    const sim::Duration remaining = ctx.deadline_at - sim_.now();
    if (shard >= view_.num_shards() || remaining <= 0) {
      for (size_t i : items) ks[i].phase = Phase::kSlow;
      continue;
    }
    std::vector<std::string_view> batch_keys;
    for (size_t i : items) batch_keys.push_back(keys[ks[i].slot]);
    ++stats_.batch_rpc_fallbacks;
    ++out->stats.rpc_fallbacks;
    stats_.rpc_fallback_gets += static_cast<int64_t>(items.size());
    rpc::RpcChannel ch(rpc_network_, host_, view_.shard_hosts[shard]);
    auto resp = co_await ch.Call(proto::kMethodMultiGet,
                                 proto::GetRequest(batch_keys, ctx.tenant),
                                 remaining, ctx.span);
    if (!resp.ok()) {
      for (size_t i : items) ks[i].phase = Phase::kSlow;
      continue;
    }
    rpc::WireReader r(*resp);
    const size_t m = r.CountBytes(proto::kTagResult);
    for (size_t j = 0; j < items.size(); ++j) {
      KeyState& k = ks[items[j]];
      std::optional<ByteSpan> frame;
      if (j < m) frame = r.GetBytesAt(proto::kTagResult, j);
      if (!frame) {
        k.phase = Phase::kSlow;
        continue;
      }
      rpc::WireReader sub(*frame);
      const auto code = sub.GetU32(proto::kTagStatusCode)
                            .value_or(uint32_t(StatusCode::kInternal));
      if (code == uint32_t(StatusCode::kOk)) {
        if (auto hit = proto::GetHit(sub)) {
          out->results[k.slot] = GetResult::Copy(*hit);
          k.phase = Phase::kDone;
        } else {
          k.phase = Phase::kSlow;
        }
      } else if (code == uint32_t(StatusCode::kNotFound)) {
        out->results[k.slot] = NotFoundError("no such key");
        k.phase = Phase::kDone;
      } else {
        k.phase = Phase::kSlow;
      }
    }
  }

  // --- Finalize batch-resolved keys: per-key accounting identical to what
  // Get() would have recorded, plus one post-paid byte debit. ---
  int64_t debit_bytes = 0;
  for (KeyState& k : ks) {
    if (k.phase != Phase::kDone) continue;
    ++stats_.gets;
    StatusOr<GetResult>& r = out->results[k.slot];
    FinishGet(r, k.hash, n, start);
    if (r.ok()) debit_bytes += static_cast<int64_t>(r->value.size());
  }
  if (debit_bytes > 0) DebitTenantBytes(ctx, debit_bytes);

  // --- Slowpath: anything the batch could not cleanly resolve retries as
  // an ordinary single-key Get (same options), concurrently. This is what
  // guarantees batching never changes observable values/versions: the fast
  // path only ever answers from quorumed, validated state, and every
  // ambiguous case replays the reference protocol. ---
  std::vector<sim::Task<void>> slow_tasks;
  for (const KeyState& k : ks) {
    if (k.phase == Phase::kDone) continue;
    ++stats_.batch_slowpath_keys;
    ++out->stats.slowpath_keys;
    slow_tasks.push_back([](Client* self, std::string key, GetOptions opts,
                            StatusOr<GetResult>* slot) -> sim::Task<void> {
      *slot = co_await self->Get(std::move(key), opts);
    }(this, keys[k.slot], opts, &out->results[k.slot]));
  }
  if (!slow_tasks.empty()) {
    co_await sim::JoinAll(sim_, std::move(slow_tasks));
  }
}

sim::Task<void> Client::AcquireIssueSlot(uint32_t shard) {
  IssueGate& gate = issue_gates_[shard];
  if (!gate.slots) {
    gate.slots = std::make_shared<sim::Channel<bool>>(sim_);
    for (int i = 0; i < kBatchMaxInflightPerBackend; ++i) {
      gate.slots->Send(true);
    }
  }
  auto slots = gate.slots;  // keep alive across the await
  if (slots->empty()) ++stats_.batch_inflight_waits;
  (void)co_await slots->Recv();
  // Pace consecutive issues toward the same backend: each issue reserves
  // the next kBatchIssueGap-wide slot on the shard's pacing clock.
  IssueGate& g = issue_gates_[shard];
  const sim::Time now = sim_.now();
  if (g.next_issue_at > now) {
    const sim::Duration wait = g.next_issue_at - now;
    g.next_issue_at += kBatchIssueGap;
    co_await sim_.Delay(wait);
  } else {
    g.next_issue_at = now + kBatchIssueGap;
  }
}

void Client::ReleaseIssueSlot(uint32_t shard) {
  auto it = issue_gates_.find(shard);
  if (it != issue_gates_.end() && it->second.slots) {
    it->second.slots->Send(true);
  }
}

sim::Task<StatusOr<GetResult>> Client::GetOnce(const std::string& key,
                                               const OpContext& ctx) {
  const uint32_t n = view_.num_shards();
  if (n == 0) co_return UnavailableError("empty cell");
  const int quorum = QuorumSize(view_.mode);
  const uint32_t primary = PrimaryShard(ctx.hash, n);

  // (if/else rather than switch: gcc 12 miscompiles co_await in case
  // blocks; see sim/sync.h.)
  if (ctx.strategy == LookupStrategy::kRpc || transport_ == nullptr) {
    co_return co_await GetViaRpc(key, primary, ctx);
  }
  const bool use_scar = ChooseScar(ctx.strategy);

  // 1-RMA fast path: a location-cache hit answers with one direct data
  // read, fully validated end-to-end; anything short of a validated hit
  // falls through to the quorum protocol below (which re-populates the
  // cache from the winning vote). A failed speculation has already
  // invalidated its entry, so a retry attempt will not re-speculate.
  if (SpeculationEligible(ctx)) {
    if (auto fast = co_await SpeculativeGet(key, ctx)) {
      co_return *std::move(fast);
    }
    if (sim_.now() >= ctx.deadline_at) {
      co_return DeadlineExceededError("speculative read");
    }
  }

  std::vector<uint32_t> targets = SelectReplicas(primary);
  if (static_cast<int>(targets.size()) < quorum) {
    co_return UnavailableError("not enough live replicas");
  }
  {
    std::vector<uint32_t> connected;
    connected.reserve(targets.size());
    for (uint32_t shard : targets) {
      if (co_await ConnectReplica(shard)) connected.push_back(shard);
    }
    targets = std::move(connected);
    if (static_cast<int>(targets.size()) < quorum) {
      co_return UnavailableError("not enough connectable replicas");
    }
  }

  // Outlier ejection (gray failure): drop replicas whose index-fetch EWMA
  // is an outlier against the fastest live replica — a slow-but-alive
  // backend otherwise delays every quorum it participates in. Never ejects
  // below quorum size.
  if (config_.eject_slow_replicas &&
      static_cast<int>(targets.size()) > quorum) {
    double best = 0.0;
    for (uint32_t shard : targets) {
      const double e = conns_[shard].lat_ewma_ns;
      if (e > 0.0 && (best == 0.0 || e < best)) best = e;
    }
    if (best > 0.0) {
      std::vector<uint32_t> kept;
      std::vector<uint32_t> slow;
      for (uint32_t shard : targets) {
        if (conns_[shard].lat_ewma_ns > kSlowEjectFactor * best) {
          slow.push_back(shard);
        } else {
          kept.push_back(shard);
        }
      }
      while (static_cast<int>(kept.size()) < quorum && !slow.empty()) {
        kept.push_back(slow.front());
        slow.erase(slow.begin());
      }
      stats_.slow_ejections += static_cast<int64_t>(slow.size());
      targets = std::move(kept);
    }
  }

  // Fan out index fetches; votes arrive in responder order (Fig 4).
  auto votes = std::make_shared<sim::Channel<IndexVote>>(sim_);
  for (size_t i = 0; i < targets.size(); ++i) {
    sim_.Spawn(FetchIndex(votes, static_cast<int>(i), targets[i], use_scar,
                          ctx));
  }

  QuorumTally tally(static_cast<int>(targets.size()), quorum);
  QuorumTally::Verdict verdict = QuorumTally::Verdict::kPending;
  uint32_t deciding_shard = 0;  // replica whose vote settled the verdict
  sim::OneShot<StatusOr<GetResult>> speculative_data(sim_);
  while (verdict == QuorumTally::Verdict::kPending) {
    const sim::Duration remaining = ctx.deadline_at - sim_.now();
    if (remaining <= 0) co_return DeadlineExceededError("quorum wait");
    auto vote = co_await votes->RecvFor(remaining);
    if (!vote) co_return DeadlineExceededError("quorum wait");
    // Speculative data fetch from the preferred backend (2xR): issued as
    // soon as the first successful index response lands, before the
    // quorum resolves.
    const bool fetch_early = !use_scar && vote->status.ok() &&
                             vote->has_entry && tally.preferred() == nullptr;
    const IndexEntry entry = vote->entry;
    deciding_shard = vote->shard;
    verdict = CountVote(tally, *std::move(vote), ctx.hash);
    if (fetch_early) {
      sim_.Spawn([](Client* self, std::string key, uint32_t shard,
                    IndexEntry entry, OpContext ctx,
                    sim::OneShot<StatusOr<GetResult>> out) -> sim::Task<void> {
        out.Set(co_await self->FetchData(key, shard, entry, ctx));
      }(this, key, deciding_shard, entry, ctx, speculative_data));
    }
  }

  if (verdict == QuorumTally::Verdict::kImpossible) {
    if (tally.config_mismatch()) co_return FailedPreconditionError("config");
    co_return UnavailableError("too many replica failures");
  }
  if (verdict == QuorumTally::Verdict::kAbsence) {
    // The overflow bit may still route us to RPC (§4.2).
    if (tally.overflow()) {
      co_return co_await GetViaRpc(key, deciding_shard, ctx);
    }
    co_return NotFoundError("absence quorum");
  }
  if (verdict == QuorumTally::Verdict::kInquorate) {
    // All responses in, no quorum: mixed versions/absence under churn.
    if (tally.config_mismatch()) {
      co_return FailedPreconditionError("config mismatch");
    }
    ++stats_.inquorate;
    // If an absence vote carried the bucket-overflow bit, the key may be
    // RPC-servable there even though no RMA quorum formed (§4.2).
    if (tally.overflow()) {
      auto via_rpc = co_await GetViaRpc(key, targets[0], ctx);
      if (via_rpc.ok()) co_return via_rpc;
    }
    co_return AbortedError("inquorate");
  }

  // Version quorum. Hit condition (4): the data must come from a quorum
  // member. The winner is the first vote for the quorumed version, so it
  // is the preferred responder whenever that responder is a member.
  const IndexVote& winner = tally.winner();
  const IndexVote& preferred = *tally.preferred();
  const bool preferred_in_quorum =
      preferred.has_entry && preferred.entry.version == winner.entry.version;
  if (!preferred_in_quorum) ++stats_.preferred_mismatch;
  if (use_scar) {
    if (winner.scar_data.empty()) {
      ++stats_.torn_reads;  // pointer raced an eviction/mutation
      co_return AbortedError("scar returned no data");
    }
    co_await ChargeValidate(ctx.span);
    auto res = ValidateData(winner.scar_data, key, ctx.hash,
                            winner.entry.version);
    if (res.ok()) CacheWinningVote(ctx.hash, winner, ctx);
    co_return res;
  }
  if (!preferred_in_quorum) {
    // No early fetch to reuse: fetch from a quorum member instead.
    auto res = co_await FetchData(key, winner.shard, winner.entry, ctx);
    if (res.ok()) CacheWinningVote(ctx.hash, winner, ctx);
    co_return res;
  }
  // The early fetch from the preferred backend (a quorum member) is in
  // flight.
  const sim::Duration rem = ctx.deadline_at - sim_.now();
  if (rem <= 0) co_return DeadlineExceededError("data wait");
  if (ctx.hedge && tally.second() != nullptr) {
    // Hedged fetch: give the in-flight speculative read `hedge_delay` to
    // resolve, then race a second fetch against another quorum member
    // through the same OneShot (first Set wins, the loser's read completes
    // and is discarded — one-sided ops can't cancel).
    auto data =
        co_await speculative_data.WaitFor(std::min(rem, config_.hedge_delay));
    if (data) {
      if (data->ok()) CacheWinningVote(ctx.hash, winner, ctx);
      co_return *std::move(data);
    }
    const sim::Duration rem2 = ctx.deadline_at - sim_.now();
    if (rem2 <= 0) co_return DeadlineExceededError("data wait");
    ++stats_.hedged_reads;
    const IndexVote& alt = *tally.second();
    auto hedge_won = std::make_shared<bool>(false);
    sim_.Spawn([](Client* self, std::string key, uint32_t shard,
                  IndexEntry entry, OpContext ctx,
                  sim::OneShot<StatusOr<GetResult>> out,
                  std::shared_ptr<bool> won) -> sim::Task<void> {
      auto r = co_await self->FetchData(key, shard, entry, ctx);
      // A hedge failure must not poison a primary that may still land;
      // only a successful hedge competes for the slot.
      if (r.ok() && !out.ready()) {
        *won = true;
        out.Set(std::move(r));
      }
    }(this, key, alt.shard, alt.entry, ctx, speculative_data, hedge_won));
    auto raced = co_await speculative_data.WaitFor(rem2);
    if (!raced) co_return DeadlineExceededError("data wait");
    if (*hedge_won) ++stats_.hedge_wins;
    if (raced->ok()) {
      // Cache whichever quorum member actually served the bytes.
      CacheWinningVote(ctx.hash, *hedge_won ? alt : winner, ctx);
    }
    co_return *std::move(raced);
  }
  auto data = co_await speculative_data.WaitFor(rem);
  if (!data) co_return DeadlineExceededError("data wait");
  if (data->ok()) CacheWinningVote(ctx.hash, winner, ctx);
  co_return *std::move(data);
}

// ---------------------------------------------------------------------------
// Shared read pipeline
// ---------------------------------------------------------------------------

bool Client::ChooseScar(LookupStrategy strategy) const {
  if (strategy == LookupStrategy::kScar) return true;
  if (strategy == LookupStrategy::kTwoR) return false;
  return transport_->SupportsScar();
}

std::vector<uint32_t> Client::SelectReplicas(uint32_t primary) {
  const uint32_t n = view_.num_shards();
  std::vector<uint32_t> targets;
  for (int r = 0; r < ReplicaCount(view_.mode); ++r) {
    const uint32_t shard = ReplicaShard(primary, r, n);
    if (conns_.size() <= shard) conns_.resize(n);
    if (conns_[shard].dead_until > sim_.now()) continue;
    targets.push_back(shard);
  }
  if (view_.mode == ReplicationMode::kR2Immutable && targets.size() > 1) {
    std::vector<uint32_t> healthy;
    for (uint32_t shard : targets) {
      const Conn& conn = conns_[shard];
      if (conn.connected || !conn.ever_failed) healthy.push_back(shard);
    }
    if (!healthy.empty()) targets = std::move(healthy);
    targets = {targets[config_.client_id % targets.size()]};
  }
  return targets;
}

sim::Task<bool> Client::ConnectReplica(uint32_t shard) {
  if (shard >= conns_.size()) co_return false;  // cell shrank
  Conn& conn = conns_[shard];
  if (conn.connected && conn.config_id == view_.shard_config_ids[shard] &&
      conn.host == view_.shard_hosts[shard]) {
    co_return true;
  }
  if (!conn.ever_failed) co_return (co_await EnsureConnected(shard)).ok();
  if (!conn.probe_in_flight) {
    conn.probe_in_flight = true;
    sim_.Spawn([](Client* self, uint32_t shard,
                  std::shared_ptr<bool> alive) -> sim::Task<void> {
      (void)co_await self->EnsureConnected(shard);
      if (*alive && shard < self->conns_.size()) {
        self->conns_[shard].probe_in_flight = false;
      }
    }(this, shard, alive_));
  }
  co_return false;
}

void Client::NoteReadFault(const Status& status, uint32_t shard) {
  if (status.code() == StatusCode::kPermissionDenied) {
    ++stats_.window_errors;
    if (shard < conns_.size()) conns_[shard].connected = false;
  } else if (status.code() == StatusCode::kDeadlineExceeded) {
    ++stats_.op_timeouts;
  }
}

QuorumTally::Verdict Client::CountVote(QuorumTally& tally, IndexVote vote,
                                       const Hash128& hash) {
  if (!vote.status.ok()) {
    NoteReadFault(vote.status, vote.shard);
    const StatusCode code = vote.status.code();
    if (code == StatusCode::kUnavailable ||
        code == StatusCode::kUnimplemented) {
      NoteReplicaFailure(vote.shard);
    }
  }
  const QuorumTally::Verdict verdict = tally.Add(std::move(vote));
  if (verdict == QuorumTally::Verdict::kAbsence) loccache_.Invalidate(hash);
  return verdict;
}

sim::Task<void> Client::IssueVector(
    uint32_t shard, uint32_t ways, net::HostId target,
    std::vector<rma::ReadVEntry> reads, std::vector<rma::ScarVEntry> scars,
    trace::SpanId span, std::shared_ptr<sim::Channel<VectorResult>> results) {
  co_await AcquireIssueSlot(shard);
  co_await ChargeIssue();
  VectorResult b;
  b.shard = shard;
  b.ways = ways;
  ++stats_.batch_vector_ops;
  if (!scars.empty()) {
    stats_.batch_vector_entries += static_cast<int64_t>(scars.size());
    auto r = co_await transport_->ScanAndReadV(host_, target,
                                               std::move(scars), span);
    if (r.ok()) {
      b.scars = *std::move(r);
    } else {
      b.status = r.status();
    }
  } else {
    stats_.batch_vector_entries += static_cast<int64_t>(reads.size());
    auto r = co_await transport_->ReadV(host_, target, std::move(reads), span);
    if (r.ok()) {
      b.reads = *std::move(r);
    } else {
      b.status = r.status();
    }
  }
  ReleaseIssueSlot(shard);
  results->Send(std::move(b));
}

sim::Task<std::optional<Client::VectorResult>> Client::AwaitVector(
    sim::Channel<VectorResult>& results, int& pending, sim::Time deadline) {
  if (pending <= 0) co_return std::nullopt;
  const sim::Duration remaining = deadline - sim_.now();
  if (remaining <= 0) co_return std::nullopt;
  auto b = co_await results.RecvFor(remaining);
  if (!b) co_return std::nullopt;
  --pending;
  co_await ChargeValidate(trace::kNoSpan);
  co_return b;
}

sim::CpuPool::RunAwaiter Client::ChargeIssue() {
  stats_.issue_cpu_ns += kIssueCpu;
  return fabric_.host(host_).cpu().Run(kIssueCpu);
}

sim::Task<void> Client::ChargeValidate(trace::SpanId span) {
  const sim::Time start = sim_.now();
  stats_.validate_cpu_ns += kValidateCpu;
  co_await fabric_.host(host_).cpu().Run(kValidateCpu);
  fabric_.tracer().AddSpan("validate", span, start, sim_.now(), host_);
}

// Decodes one bucket read into a vote: short-read guard, config-id fence,
// overflow bit, and the way scan. Shared by the single-key FetchIndex and
// the batched index phase (which validates whole vectors of these).
Status Client::DecodeBucketVote(ByteSpan bucket_bytes, uint32_t shard,
                                const Hash128& hash, uint32_t ways,
                                IndexVote* vote) const {
  if (bucket_bytes.size() < BucketBytes(ways)) {
    return AbortedError("short bucket read");
  }
  const BucketHeader header = DecodeBucketHeader(bucket_bytes);
  if (shard >= view_.num_shards()) {  // view refreshed across the await
    return FailedPreconditionError("bucket config id mismatch");
  }
  if (header.config_id != view_.shard_config_ids[shard]) {
    // The serving task changed underneath us (migration/spare, §6.1).
    return FailedPreconditionError("bucket config id mismatch");
  }
  vote->overflow = header.overflow;
  if (const int w = FindWay(bucket_bytes, static_cast<int>(ways), hash);
      w >= 0) {
    vote->has_entry = true;
    vote->entry = DecodeIndexEntry(bucket_bytes.subspan(WayOffset(w)));
  }
  return OkStatus();
}

sim::Task<void> Client::FetchIndex(
    std::shared_ptr<sim::Channel<IndexVote>> votes, int replica,
    uint32_t shard, bool use_scar, OpContext ctx) {
  IndexVote vote;
  vote.replica = replica;
  vote.shard = shard;
  if (shard >= conns_.size()) {  // cell shrank since targets were chosen
    vote.status = UnavailableError("cell shrank");
    votes->Send(std::move(vote));
    co_return;
  }
  const Conn conn = conns_[shard];  // copy: conns_ may be invalidated
  const sim::Time fetch_start = sim_.now();

  trace::Tracer& tracer = fabric_.tracer();
  // arg at End: replica index on success, -1 on failure.
  const trace::SpanId span = tracer.Begin("quorum_fetch", ctx.span, host_);
  co_await ChargeIssue();
  const uint64_t bucket = BucketIndex(ctx.hash, conn.num_buckets);
  const uint64_t offset = bucket * BucketBytes(conn.ways);
  const auto length = static_cast<uint32_t>(BucketBytes(conn.ways));

  BufferView bucket_bytes;    // a READ's copy
  rma::Snapshot scar_bucket;  // a SCAR's, decoded in place
  Status status;
  if (use_scar) {
    auto r = co_await transport_->ScanAndRead(
        host_, conn.host, conn.index_region, offset, length, ctx.hash.hi,
        ctx.hash.lo, span);
    if (r.ok()) {
      scar_bucket = std::move(r->bucket);
      vote.scar_data = std::move(r->data);
    } else {
      status = r.status();
    }
  } else {
    auto r = co_await transport_->Read(host_, conn.host, conn.index_region,
                                       offset, length, span);
    if (r.ok()) {
      bucket_bytes = *std::move(r);
    } else {
      status = r.status();
    }
  }
  if (status.ok()) {
    co_await ChargeValidate(span);
    auto decode = [&](ByteSpan bytes) {
      return DecodeBucketVote(bytes, shard, ctx.hash, conn.ways, &vote);
    };
    status = use_scar ? scar_bucket.Borrow(decode) : decode(bucket_bytes);
  }
  // Feed the replica's latency EWMA (outlier ejection input). Successful
  // fetches only: failures are handled by the backoff machinery.
  if (status.ok() && shard < conns_.size()) {
    Conn& live = conns_[shard];
    const double sample = static_cast<double>(sim_.now() - fetch_start);
    live.lat_ewma_ns = live.lat_ewma_ns == 0.0
                           ? sample
                           : kEwmaAlpha * sample +
                                 (1.0 - kEwmaAlpha) * live.lat_ewma_ns;
  }
  tracer.End(span, status.ok() ? replica : -1);
  vote.status = std::move(status);
  votes->Send(std::move(vote));
}

sim::Task<StatusOr<GetResult>> Client::FetchData(const std::string& key,
                                                 uint32_t shard,
                                                 IndexEntry entry,
                                                 OpContext ctx) {
  if (shard >= conns_.size()) co_return UnavailableError("cell shrank");
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("data_fetch", ctx.span, host_);
  auto r = co_await ReadDataEntry(conns_[shard].host, entry.pointer, span);
  if (!r.ok()) {
    NoteReadFault(r.status(), shard);
    tracer.End(span, -1);
    co_return r.status();
  }
  tracer.End(span, static_cast<int64_t>(r->size()));
  co_return ValidateData(*r, key, ctx.hash, entry.version);
}

sim::Task<StatusOr<BufferView>> Client::ReadDataEntry(net::HostId target,
                                                      const Pointer& p,
                                                      trace::SpanId span) {
  co_await ChargeIssue();
  auto r = co_await transport_->Read(host_, target, p.region, p.offset, p.size,
                                     span);
  if (r.ok()) co_await ChargeValidate(span);
  co_return r;
}

StatusOr<DataEntryView> Client::CheckDataEntry(
    ByteSpan blob, const std::string& key, const Hash128& hash,
    const VersionNumber& quorum_version) {
  // (1) end-to-end checksum: guards torn reads.
  auto view = DecodeDataEntry(blob);
  if (!view.ok()) {
    ++stats_.torn_reads;
    return view.status();
  }
  // (2) the DataEntry corresponds to the quorumed IndexEntry.
  if (view->keyhash != hash || view->version != quorum_version) {
    ++stats_.torn_reads;
    return AbortedError("data entry does not match quorumed index state");
  }
  // (3) full-key compare: guards the (very) rare 128-bit hash collision.
  if (view->key != key) {
    return NotFoundError("key hash collision");
  }
  return view;
}

StatusOr<GetResult> Client::ValidateData(const BufferView& blob,
                                         const std::string& key,
                                         const Hash128& hash,
                                         const VersionNumber& quorum_version) {
  auto view = CheckDataEntry(blob, key, hash, quorum_version);
  if (!view.ok()) return view.status();
  // The value is a slice of the materialized read — no extraction copy.
  return GetResult{blob.SliceOf(view->value), view->version};
}

StatusOr<GetResult> Client::ValidateData(const rma::Snapshot& blob,
                                         const std::string& key,
                                         const Hash128& hash,
                                         const VersionNumber& quorum_version) {
  size_t value_at = 0;
  size_t value_len = 0;
  VersionNumber version;
  Status status = blob.Borrow([&](ByteSpan bytes) -> Status {
    auto view = CheckDataEntry(bytes, key, hash, quorum_version);
    if (!view.ok()) return view.status();
    value_at = static_cast<size_t>(view->value.data() - bytes.data());
    value_len = view->value.size();
    version = view->version;
    return OkStatus();
  });
  if (!status.ok()) return status;
  return GetResult{blob.Slice(value_at, value_len), version};
}

// ---------------------------------------------------------------------------
// 1-RMA speculative fast path (location cache)
// ---------------------------------------------------------------------------

bool Client::SpeculationEligible(const OpContext& ctx) const {
  // Forced off during the resharding dual-version window: keys are being
  // re-homed and both topologies answer reads, so a cached pointer proves
  // nothing about where the authoritative copy lives right now.
  return ctx.speculate && transport_ != nullptr &&
         ctx.strategy != LookupStrategy::kRpc && view_valid_ &&
         !view_.transition && spec_governor_.Allowed(sim_.now());
}

StatusOr<GetResult> Client::ValidateSpeculative(const BufferView& blob,
                                                const std::string& key,
                                                const Hash128& hash,
                                                const VersionNumber& floor) {
  // Validation failures count as torn reads exactly like the quorum path's
  // ValidateData: the read raced a mutation of the slot. The dedicated
  // cm.client.loccache.speculative_failures counter carries the
  // speculation-specific signal on top.
  auto view = RevalidateDataEntry(blob, key, hash, floor);
  if (!view.ok()) {
    ++stats_.torn_reads;
    return view.status();
  }
  return GetResult{blob.SliceOf(view->value), view->version};
}

void Client::CacheWinningVote(const Hash128& hash, const IndexVote& vote,
                              const OpContext& ctx) {
  // Never cached: overflow-flagged buckets (the RPC path may supersede the
  // RMA-visible entry) and anything learned during a resharding window
  // (it would only be flushed at the window edge anyway).
  if (!ctx.speculate || loccache_.capacity() == 0) return;
  if (!vote.has_entry || vote.overflow) return;
  if (view_.transition) return;
  if (vote.shard >= conns_.size() || !conns_[vote.shard].connected) return;
  CachedLocation loc;
  loc.shard = vote.shard;
  loc.pointer = vote.entry.pointer;
  loc.version = vote.entry.version;
  loc.config_id = conns_[vote.shard].config_id;
  loc.expires_at =
      config_.loccache_ttl > 0 ? sim_.now() + config_.loccache_ttl : 0;
  loccache_.Insert(hash, loc);
}

std::optional<CachedLocation> Client::LookupSpeculation(const Hash128& hash) {
  const CachedLocation* hit = loccache_.Lookup(hash, sim_.now());
  if (hit == nullptr) return std::nullopt;
  const CachedLocation loc = *hit;
  if (loc.shard >= conns_.size() || loc.shard >= view_.num_shards()) {
    loccache_.Invalidate(hash);
    return std::nullopt;
  }
  const Conn& conn = conns_[loc.shard];
  if (!conn.connected || conn.config_id != loc.config_id ||
      conn.config_id != view_.shard_config_ids[loc.shard] ||
      conn.host != view_.shard_hosts[loc.shard]) {
    loccache_.Invalidate(hash);
    return std::nullopt;
  }
  return loc;
}

bool Client::SettleSpeculation(const Hash128& hash, uint32_t shard,
                               const StatusOr<GetResult>& result) {
  if (result.ok()) {
    spec_governor_.Record(true, sim_.now());
    loccache_.RaiseVersionFloor(hash, result->version);
    return true;
  }
  NoteReadFault(result.status(), shard);
  ++stats_.loccache_speculative_failures;
  spec_governor_.Record(false, sim_.now());
  loccache_.Invalidate(hash);
  return false;
}

sim::Task<std::optional<GetResult>> Client::SpeculativeGet(
    const std::string& key, const OpContext& ctx) {
  const std::optional<CachedLocation> loc = LookupSpeculation(ctx.hash);
  if (!loc) co_return std::nullopt;

  ++stats_.loccache_speculative_reads;
  trace::Tracer& tracer = fabric_.tracer();
  const trace::SpanId span = tracer.Begin("spec_read", ctx.span, host_);
  auto r = co_await ReadDataEntry(conns_[loc->shard].host, loc->pointer, span);
  StatusOr<GetResult> res =
      r.ok() ? ValidateSpeculative(*r, key, ctx.hash, loc->version)
             : StatusOr<GetResult>(r.status());
  // A failure hands the GET to the quorum path — never a retry of the
  // speculation itself.
  if (!SettleSpeculation(ctx.hash, loc->shard, res)) {
    tracer.End(span, -1);
    co_return std::nullopt;
  }
  tracer.End(span, static_cast<int64_t>(res->value.size()));
  co_return *std::move(res);
}

sim::Task<StatusOr<GetResult>> Client::GetViaRpc(const std::string& key,
                                                 uint32_t shard,
                                                 const OpContext& ctx) {
  ++stats_.rpc_fallback_gets;
  // An RPC-served GET yields no pointer to cache, and falling back at all
  // means the RMA-visible index state was not servable for this key — drop
  // whatever the cache believed.
  loccache_.Invalidate(ctx.hash);
  if (shard >= view_.num_shards()) co_return UnavailableError("cell shrank");
  const sim::Duration remaining = ctx.deadline_at - sim_.now();
  if (remaining <= 0) co_return DeadlineExceededError("rpc get");
  rpc::RpcChannel ch(rpc_network_, host_, view_.shard_hosts[shard]);
  auto resp = co_await ch.Call(proto::kMethodGet,
                               proto::GetRequest(key, ctx.tenant), remaining,
                               ctx.span);
  if (!resp.ok()) co_return resp.status();
  auto hit = proto::GetHit(rpc::WireReader(*resp));
  if (!hit) co_return InternalError("malformed Get response");
  co_return GetResult::Copy(*hit);
}

sim::Task<StatusOr<GetResult>> Client::PrevWindowGet(const std::string& key,
                                                     const OpContext& ctx) {
  // Speculation never runs here: this path is RPC-only by construction (a
  // previous-owner read has no RMA handshake), and the dual-version window
  // it serves is exactly when cached pointers prove nothing.
  // Snapshot the view: it may refresh (and drop the prev topology) while we
  // are suspended in an RPC below.
  const CellView view = view_;
  if (!view.transition || view.prev_num_shards() == 0) {
    co_return NotFoundError("no previous topology");
  }
  const uint32_t n = view.prev_num_shards();
  const int replicas = ReplicaCount(view.prev_mode);
  const uint32_t primary = PrimaryShard(ctx.hash, n);

  // Tenant-stamped like any RPC read: the previous owner's admission and
  // read-byte accounting attribute it.
  const Bytes request = proto::GetRequest(key, ctx.tenant);

  Status last = NotFoundError("absent at previous owners");
  for (int r = 0; r < replicas; ++r) {
    const net::HostId target =
        view.prev_shard_hosts[ReplicaShard(primary, r, n)];
    // The main attempt may already have spent the op deadline; grant a
    // small grace budget — the fallback is a single cheap RPC per replica.
    const sim::Duration remaining =
        std::max<sim::Duration>(ctx.deadline_at - sim_.now(), kPrevWindowGrace);
    rpc::RpcChannel ch(rpc_network_, host_, target);
    auto resp =
        co_await ch.Call(proto::kMethodGet, request, remaining, ctx.span);
    if (!resp.ok()) {
      if (resp.status().code() != StatusCode::kNotFound) last = resp.status();
      continue;
    }
    if (auto hit = proto::GetHit(rpc::WireReader(*resp))) {
      co_return GetResult::Copy(*hit);
    }
  }
  co_return last.code() == StatusCode::kNotFound
      ? NotFoundError("absent at previous owners")
      : last;
}

sim::Task<StatusOr<GetResult>> Client::DegradedGet(const std::string& key,
                                                   const OpContext& ctx) {
  ++stats_.degraded_attempts;
  // Snapshot the view — it may refresh while we are suspended in an RPC.
  const CellView view = view_;
  const uint32_t n = view.num_shards();
  if (n == 0) {
    ++stats_.degraded_unreachable;
    co_return UnavailableError("degraded: no cell view");
  }
  const int replicas = ReplicaCount(view.mode);
  const uint32_t primary = PrimaryShard(ctx.hash, n);

  const Bytes request = proto::GetRequest(key, ctx.tenant);

  // Probe every replica once. The backends answer DegradedGet even while
  // draining (disaster path); replicas that are dead, fenced, or partitioned
  // simply don't answer — that's the condition this path exists for.
  std::optional<GetResult> best;
  std::optional<VersionNumber> best_tomb;
  int reachable = 0;
  for (int r = 0; r < replicas; ++r) {
    const uint32_t shard = ReplicaShard(primary, r, n);
    // The main attempt usually arrives here with the op deadline already
    // spent; grant each probe a small grace budget.
    const sim::Duration remaining = std::max<sim::Duration>(
        ctx.deadline_at - sim_.now(), kDegradedProbeGrace);
    rpc::RpcChannel ch(rpc_network_, host_, view.shard_hosts[shard]);
    auto resp =
        co_await ch.Call(proto::kMethodDegradedGet, request, remaining,
                         ctx.span);
    if (!resp.ok()) continue;
    ++reachable;
    rpc::WireReader rr(*resp);
    const auto code = rr.GetU32(proto::kTagStatusCode);
    if (!code) continue;
    if (static_cast<StatusCode>(*code) == StatusCode::kOk) {
      auto hit = proto::GetHit(rr);
      if (!hit) continue;
      if (!best || hit->version > best->version) best = GetResult::Copy(*hit);
    } else if (auto tomb = proto::GetVersion(rr, proto::kTagTombstoneTt)) {
      // The replica is live but the key is absent *with a remembered erase
      // version*: a quorum-committed ERASE must win over any stale copy a
      // lagging replica still serves.
      if (!best_tomb || *tomb > *best_tomb) best_tomb = *tomb;
    }
  }

  if (reachable == 0) {
    ++stats_.degraded_unreachable;
    co_return UnavailableError("degraded: no replica reachable");
  }
  if (best && best_tomb && !(best->version > *best_tomb)) {
    // Tombstone-aware absence: the newest thing any live replica knows
    // about this key is its erasure.
    best.reset();
  }
  if (!best) {
    ++stats_.degraded_misses;
    co_return NotFoundError("degraded absence (sub-quorum)");
  }
  // Version-floor guard: never report a version this client's own quorumed
  // history already superseded. The location cache's floor is exactly that
  // history; Peek leaves the cache untouched (a degraded answer must not
  // perturb MRU order, leases, or stats — it is not quorum-backed).
  if (const CachedLocation* loc = loccache_.Peek(ctx.hash)) {
    if (best->version < loc->version) {
      ++stats_.degraded_rollback_refused;
      co_return UnavailableError(
          "degraded answer below the quorumed version floor");
    }
  }
  ++stats_.degraded_hits;
  best->degraded = true;
  co_return std::move(*best);
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

VersionNumber Client::NextVersion() {
  return VersionNumber{truetime_.NowMicros(host_), config_.client_id, ++seq_};
}

sim::Task<Status> Client::MutateAll(const char* method, const std::string& key,
                                    Bytes request, int* applied_out,
                                    const OpContext& ctx) {
  if (!view_valid_) {
    Status s = co_await RefreshConfig();
    if (!s.ok()) co_return s;
  }
  const uint32_t n = view_.num_shards();
  const int replicas = ReplicaCount(view_.mode);
  const int quorum = QuorumSize(view_.mode);
  const uint32_t primary = PrimaryShard(config_.hash_fn(key), n);

  // Stamp the cell generation this mutation was routed under: backends
  // reject mismatches (kFailedPrecondition) so a write addressed to the old
  // topology can never be acked after a reconfiguration started. Tags are
  // append-only TLV, so appending to an already-built request is legal.
  {
    rpc::WireWriter gw;
    gw.PutU32(proto::kTagGeneration, view_.generation);
    // Tenanted clients also stamp their tenant id so the backend's
    // admission queue can attribute the op; untenanted requests stay
    // byte-identical.
    if (ctx.tenant != kDefaultTenant) {
      gw.PutU32(proto::kTagTenant, ctx.tenant);
    }
    const Bytes gen = std::move(gw).Take();
    request.insert(request.end(), gen.begin(), gen.end());
  }

  struct Ack {
    Status status;
    bool applied = false;
  };
  auto acks = std::make_shared<sim::Channel<Ack>>(sim_);
  for (int r = 0; r < replicas; ++r) {
    const uint32_t shard = ReplicaShard(primary, r, n);
    sim_.Spawn([](Client* self, const char* method, Bytes req,
                  net::HostId target, sim::Duration deadline,
                  trace::SpanId parent,
                  std::shared_ptr<sim::Channel<Ack>> acks) -> sim::Task<void> {
      rpc::RpcChannel ch(self->rpc_network_, self->host_, target);
      auto resp = co_await ch.Call(method, std::move(req), deadline, parent);
      Ack ack;
      ack.status = resp.status();
      if (resp.ok()) {
        rpc::WireReader rr(*resp);
        ack.applied = rr.GetU32(proto::kTagApplied).value_or(0) != 0;
      }
      acks->Send(ack);
    }(this, method, request, view_.shard_hosts[shard], ctx.op_deadline,
      ctx.span, acks));
  }

  int ok = 0, applied = 0, received = 0;
  Status last_error = OkStatus();
  while (received < replicas) {
    auto ack = co_await acks->RecvFor(ctx.op_deadline);
    if (!ack) break;
    ++received;
    if (ack->status.ok()) {
      ++ok;
      if (ack->applied) ++applied;
    } else {
      if (ack->status.code() == StatusCode::kFailedPrecondition) {
        ++stats_.stale_generation_rejects;
      }
      last_error = ack->status;
    }
  }
  if (applied_out != nullptr) *applied_out = applied;
  // Any mutation attempt — even a failed one — may have re-allocated the
  // key's DataEntry on some replica, so the cached location is suspect.
  loccache_.Invalidate(ctx.hash);
  if (ok >= quorum) co_return OkStatus();
  co_return last_error.ok() ? DeadlineExceededError("mutation acks")
                            : last_error;
}

sim::Task<Status> Client::Set(std::string key, Bytes value, GetOptions opts) {
  const sim::Time start = sim_.now();
  ++stats_.sets;
  trace::Tracer& tracer = fabric_.tracer();
  OpContext ctx = MakeContext(opts, tracer.BeginRoot("set", host_));
  ctx.hash = config_.hash_fn(key);
  if (config_.compress_values) {
    stats_.compress_bytes_in += static_cast<int64_t>(value.size());
    value = CompressValue(value);
    stats_.compress_bytes_out += static_cast<int64_t>(value.size());
  }
  Status result = InternalError("unset");
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    // Each (re)try nominates a fresh, higher version: TrueTime in the upper
    // bits guarantees per-client forward progress (§5.2).
    rpc::WireWriter w;
    w.PutString(proto::kTagKey, key);
    w.PutBytes(proto::kTagValue, value);
    proto::PutVersion(w, NextVersion());
    result = co_await MutateAll(proto::kMethodSet, key, std::move(w).Take(),
                                nullptr, ctx);
    if (result.ok()) break;
    if (sim_.now() - start >= ctx.op_deadline) break;
    ++stats_.retries;
    (void)co_await RefreshConfig();
  }
  stats_.set_latency_ns.Record(sim_.now() - start);
  tracer.End(ctx.span, result.ok() ? 1 : 0);
  if (!result.ok()) ++stats_.set_errors;
  co_return result;
}

sim::Task<Status> Client::Erase(std::string key, GetOptions opts) {
  const sim::Time start = sim_.now();
  ++stats_.erases;
  trace::Tracer& tracer = fabric_.tracer();
  OpContext ctx = MakeContext(opts, tracer.BeginRoot("erase", host_));
  ctx.hash = config_.hash_fn(key);
  Status result = InternalError("unset");
  // Retried like Set: a stale-generation bounce (resharding window) must
  // re-route to the new owners, with a fresh higher version each attempt.
  for (int attempt = 0; attempt <= config_.max_retries; ++attempt) {
    rpc::WireWriter w;
    w.PutString(proto::kTagKey, key);
    proto::PutVersion(w, NextVersion());
    result = co_await MutateAll(proto::kMethodErase, key, std::move(w).Take(),
                                nullptr, ctx);
    if (result.ok()) break;
    if (sim_.now() - start >= ctx.op_deadline) break;
    ++stats_.retries;
    (void)co_await RefreshConfig();
  }
  tracer.End(ctx.span, result.ok() ? 1 : 0);
  co_return result;
}

sim::Task<StatusOr<bool>> Client::Cas(std::string key, Bytes value,
                                      VersionNumber expected,
                                      GetOptions opts) {
  ++stats_.cas_ops;
  trace::Tracer& tracer = fabric_.tracer();
  OpContext ctx = MakeContext(opts, tracer.BeginRoot("cas", host_));
  ctx.hash = config_.hash_fn(key);
  if (config_.compress_values) {
    stats_.compress_bytes_in += static_cast<int64_t>(value.size());
    value = CompressValue(value);
    stats_.compress_bytes_out += static_cast<int64_t>(value.size());
  }
  rpc::WireWriter w;
  w.PutString(proto::kTagKey, key);
  w.PutBytes(proto::kTagValue, value);
  proto::PutVersion(w, NextVersion());
  proto::PutVersion(w, expected, proto::kTagExpectedTt);
  int applied = 0;
  Status s = co_await MutateAll(proto::kMethodCas, key, std::move(w).Take(),
                                &applied, ctx);
  if (!s.ok()) {
    tracer.End(ctx.span, -1);
    co_return s;
  }
  tracer.End(ctx.span, applied);
  co_return applied >= QuorumSize(view_.mode);
}

// ---------------------------------------------------------------------------
// Access recording (§4.2)
// ---------------------------------------------------------------------------

void Client::RecordTouch(const Hash128& hash, uint32_t primary_shard) {
  if (!view_valid_ || view_.num_shards() == 0) return;
  const int replicas = ReplicaCount(view_.mode);
  for (int r = 0; r < replicas; ++r) {
    const uint32_t shard = ReplicaShard(primary_shard, r, view_.num_shards());
    proto::AppendTouchRecord(touch_buffers_[view_.shard_hosts[shard]], hash);
  }
}

sim::Task<void> Client::FlushTouches() {
  for (auto& [target, buffer] : touch_buffers_) {
    if (buffer.empty()) continue;
    Bytes blob;
    blob.swap(buffer);
    rpc::WireWriter w;
    w.PutBytes(proto::kTagRecords, blob);
    rpc::RpcChannel ch(rpc_network_, host_, target);
    ++stats_.touch_rpcs;
    (void)co_await ch.Call(proto::kMethodTouch, std::move(w).Take(),
                           sim::Milliseconds(100));
  }
}

void Client::StartTouchFlusher() {
  if (touch_flusher_running_) return;
  touch_flusher_running_ = true;
  sim_.Spawn([](Client* self, std::shared_ptr<bool> alive) -> sim::Task<void> {
    while (*alive && self->touch_flusher_running_) {
      co_await self->sim_.Delay(self->config_.touch_flush_interval);
      if (!*alive || !self->touch_flusher_running_) co_return;
      co_await self->FlushTouches();
      if (!*alive) co_return;
    }
  }(this, alive_));
}

void Client::StopTouchFlusher() { touch_flusher_running_ = false; }

// ---------------------------------------------------------------------------
// Config watcher (resharding)
// ---------------------------------------------------------------------------

void Client::StartConfigWatcher() {
  if (config_watcher_running_) return;
  config_watcher_running_ = true;
  sim_.Spawn([](Client* self, std::shared_ptr<bool> alive) -> sim::Task<void> {
    while (*alive && self->config_watcher_running_) {
      co_await self->sim_.Delay(self->config_.config_watch_interval);
      if (!*alive || !self->config_watcher_running_) co_return;
      (void)co_await self->RefreshConfig();
      if (!*alive) co_return;
    }
  }(this, alive_));
}

void Client::StopConfigWatcher() { config_watcher_running_ = false; }

}  // namespace cm::cliquemap
