#include "cliquemap/resharder.h"

#include <algorithm>

namespace cm::cliquemap {
namespace {
// A failed InstallBulk batch is resent up to this many times, the n-th
// retry after n x kRetryBackoff.
constexpr int kMaxBatchRetries = 20;
constexpr sim::Duration kRetryBackoff = sim::Milliseconds(5);
}  // namespace

// ---------------------------------------------------------------------------
// Operation builders
// ---------------------------------------------------------------------------

sim::Task<Status> Resharder::Resize(uint32_t new_num_shards,
                                    const BackendConfig* config_override) {
  ConfigService& cfg = cell_.config_service();
  if (in_progress_ || cfg.in_transition()) {
    co_return FailedPreconditionError("reconfiguration already in flight");
  }
  const CellView cur = cfg.view();
  const uint32_t old_n = cur.num_shards();
  if (new_num_shards == 0) {
    co_return InvalidArgumentError("resize to zero shards");
  }
  if (new_num_shards < static_cast<uint32_t>(ReplicaCount(cur.mode))) {
    co_return InvalidArgumentError("fewer shards than replicas");
  }
  if (new_num_shards == old_n) co_return OkStatus();

  Transition t;
  t.next = cur;
  t.stream_records = true;
  t.post_repair = ReplicaCount(cur.mode) >= 2;
  t.bump_and_gc = true;  // the shard count reshuffles every key's placement
  for (uint32_t s = 0; s < std::min(old_n, new_num_shards); ++s) {
    t.continuing.push_back(&cell_.backend(s));
    t.sources.push_back(&cell_.backend(s));
  }
  if (new_num_shards > old_n) {
    for (uint32_t s = old_n; s < new_num_shards; ++s) {
      const uint32_t id = cfg.AllocateConfigId(s);
      Backend* fresh = cell_.AddBackendForShard(s, id, config_override);
      ++stats_.backends_added;
      t.next.shard_hosts.push_back(fresh->host());
      t.next.shard_config_ids.push_back(id);
      if (!t.next.shard_domains.empty()) {
        t.next.shard_domains.push_back(fresh->config().failure_domain);
      }
    }
  } else {
    t.next.shard_hosts.resize(new_num_shards);
    t.next.shard_config_ids.resize(new_num_shards);
    if (!t.next.shard_domains.empty()) {
      t.next.shard_domains.resize(new_num_shards);
    }
    // Retirees leave the live slot vector but keep serving (dual-version
    // reads) until Run() drains and stops them.
    for (Backend* b : cell_.RetireShardsAbove(new_num_shards)) {
      t.retiring.push_back(b);
      t.sources.push_back(b);
    }
  }
  for (uint32_t d = 0; d < new_num_shards; ++d) t.dest_shards.push_back(d);
  co_return co_await Run(std::move(t));
}

sim::Task<Status> Resharder::SetReplication(ReplicationMode mode) {
  ConfigService& cfg = cell_.config_service();
  if (in_progress_ || cfg.in_transition()) {
    co_return FailedPreconditionError("reconfiguration already in flight");
  }
  const CellView cur = cfg.view();
  if (mode == cur.mode) co_return OkStatus();
  if (cur.num_shards() < static_cast<uint32_t>(ReplicaCount(mode))) {
    co_return InvalidArgumentError("fewer shards than replicas");
  }
  const int old_r = ReplicaCount(cur.mode);
  const int new_r = ReplicaCount(mode);

  Transition t;
  t.next = cur;
  t.next.mode = mode;
  for (uint32_t s = 0; s < cur.num_shards(); ++s) {
    t.continuing.push_back(&cell_.backend(s));
  }
  if (new_r > old_r) {
    // Up-replication: primaries keep their data; the new replica copies
    // are seeded by a quorum-read + repair pass under the window view
    // (which already carries the new mode). Reads that race ahead of the
    // seeding fall back to the previous owners.
    t.post_repair = true;
  } else {
    // Down-replication: every old copy streams to the surviving owners
    // while the window is open. This — not a pre-pass — is what makes the
    // consolidation lossless: the generation fence guarantees no write can
    // be acked under the old replica set after the window opens, so a
    // quorum-acked record missing from the survivor is still held by some
    // old replica and rides the sweep over.
    t.stream_records = true;
    t.sources = t.continuing;
    for (uint32_t d = 0; d < cur.num_shards(); ++d) t.dest_shards.push_back(d);
    t.post_repair = new_r >= 2;
    t.bump_and_gc = true;  // dropped replicas must hard-fail stale readers
  }
  co_return co_await Run(std::move(t));
}

sim::Task<Status> Resharder::ReplaceBackend(
    uint32_t shard, const BackendConfig* config_override) {
  ConfigService& cfg = cell_.config_service();
  if (in_progress_ || cfg.in_transition()) {
    co_return FailedPreconditionError("reconfiguration already in flight");
  }
  const CellView cur = cfg.view();
  if (shard >= cur.num_shards()) co_return InvalidArgumentError("no such shard");

  Transition t;
  t.next = cur;
  Backend* victim = &cell_.backend(shard);
  const uint32_t id = cfg.AllocateConfigId(shard);
  Backend* fresh = cell_.AddBackendForShard(shard, id, config_override);
  ++stats_.backends_added;
  t.next.shard_hosts[shard] = fresh->host();
  t.next.shard_config_ids[shard] = id;
  if (!t.next.shard_domains.empty()) {
    t.next.shard_domains[shard] = fresh->config().failure_domain;
  }
  // The incumbent holds exactly the copies placed on `shard` (its own
  // primaries plus the replicas of its neighbors), so it is the sole
  // stream source and the sole dest shard is its slot.
  t.sources.push_back(victim);
  t.retiring.push_back(victim);
  for (uint32_t s = 0; s < cur.num_shards(); ++s) {
    if (s != shard) t.continuing.push_back(&cell_.backend(s));
  }
  t.dest_shards.push_back(shard);
  t.stream_records = true;
  t.post_repair = ReplicaCount(cur.mode) >= 2;
  co_return co_await Run(std::move(t));
}

sim::Task<Status> Resharder::RebalanceDomains() {
  ConfigService& cfg = cell_.config_service();
  if (in_progress_ || cfg.in_transition()) {
    co_return FailedPreconditionError("reconfiguration already in flight");
  }
  const CellView cur = cfg.view();
  const uint32_t n = cur.num_shards();
  if (cur.shard_domains.size() != n) co_return OkStatus();  // unconfigured
  const int before = DomainSpreadViolations(cur);
  if (before == 0) co_return OkStatus();
  const int r = ReplicaCount(cur.mode);

  // Greedy slot permutation: walk the ring assigning each slot a backend
  // whose domain differs from the r-1 slots before it, preferring the
  // current occupant so already-spread stretches don't move. The ring wraps,
  // so greedy can leave a seam; the violation recount below only commits an
  // actual improvement.
  std::vector<uint32_t> order(n);
  std::vector<bool> used(n, false);
  std::vector<std::string> assigned(n);
  for (uint32_t s = 0; s < n; ++s) {
    auto conflicts = [&](const std::string& d) {
      if (d.empty()) return false;  // unlabeled backends are wildcards
      for (uint32_t i = 1; i < static_cast<uint32_t>(r) && i <= s; ++i) {
        if (assigned[s - i] == d) return true;
      }
      return false;
    };
    uint32_t pick = n;
    if (!used[s] && !conflicts(cur.shard_domains[s])) pick = s;
    for (uint32_t c = 0; pick == n && c < n; ++c) {
      if (!used[c] && !conflicts(cur.shard_domains[c])) pick = c;
    }
    if (pick == n) {  // no conflict-free backend left: keep/take any
      if (!used[s]) pick = s;
      for (uint32_t c = 0; pick == n && c < n; ++c) {
        if (!used[c]) pick = c;
      }
    }
    order[s] = pick;
    used[pick] = true;
    assigned[s] = cur.shard_domains[pick];
  }

  Transition t;
  t.next = cur;
  std::vector<uint32_t> moved;
  for (uint32_t s = 0; s < n; ++s) {
    t.next.shard_hosts[s] = cur.shard_hosts[order[s]];
    t.next.shard_config_ids[s] = cur.shard_config_ids[order[s]];
    t.next.shard_domains[s] = cur.shard_domains[order[s]];
    if (order[s] != s) moved.push_back(s);
  }
  if (moved.empty() || DomainSpreadViolations(t.next) >= before) {
    co_return FailedPreconditionError("no improving domain rebalance found");
  }

  // Nobody retires — every backend keeps serving from its new slot. The
  // records a moved slot must hold live on that slot's *old* occupant (key
  // placement depends only on the slot index, which is unchanged), so the
  // old occupant is the stream source for each moved slot.
  for (uint32_t s = 0; s < n; ++s) t.continuing.push_back(&cell_.backend(s));
  for (uint32_t s : moved) {
    t.sources.push_back(&cell_.backend(s));
    t.dest_shards.push_back(s);
  }
  t.stream_records = true;
  t.post_repair = r >= 2;
  t.bump_and_gc = true;  // moved slots change owners: hard-fail stale readers
  ++stats_.domain_rebalances;
  stats_.domain_slots_moved += static_cast<int64_t>(moved.size());
  // Physical slot reassignment and Run's BeginTransition execute with no
  // awaits between them, so no op can observe the half-applied topology.
  cell_.ReassignShards(order);
  co_return co_await Run(std::move(t));
}

// ---------------------------------------------------------------------------
// The transition engine
// ---------------------------------------------------------------------------

sim::Task<Status> Resharder::Run(Transition t) {
  ConfigService& cfg = cell_.config_service();
  in_progress_ = true;
  ++stats_.transitions_started;

  // 1. Open the dual-version window. This bumps the cell generation, and —
  // because the builders above run no awaits between validating the view
  // and here — atomically fences every write stamped under the old
  // topology: backends reject mismatched generations, so an old-placement
  // write can never be acked after this line. Everything the sweep below
  // snapshots is therefore complete.
  cfg.BeginTransition(t.next);

  // 2. Retirees drain: reads continue (dual-version fallback), writes and
  // repair pushes stop.
  for (Backend* b : t.retiring) b->SetDraining(true);

  // 3. Placement-filtered record sweep from old owners to new owners.
  if (t.stream_records) {
    for (Backend* src : t.sources) {
      if (!src->serving()) continue;  // crashed source: repair converges it
      Status s = co_await StreamFrom(src, t);
      if (!s.ok()) {
        // Committing without the records would lose acked data; leave the
        // window open (reads stay correct via the fallback) and surface
        // the failure to the operator.
        in_progress_ = false;
        co_return s;
      }
    }
  }

  // 4. One quorum-read + repair pass under the window view: seeds replicas
  // a stream cannot (up-replication) and converges cohorts after a resize.
  if (t.post_repair) {
    for (uint32_t s = 0; s < cell_.num_shards(); ++s) {
      co_await cell_.backend(s).RecoverFromCohort();
      ++stats_.repair_passes;
    }
  }

  // 5. Commit. The id bump + commit + GC run without awaits: the cutover
  // is atomic from the simulation's point of view. Fresh config ids on
  // ownership-changed shards make lagging clients hard-fail (bucket
  // config-id mismatch) into a view refresh instead of mis-reading.
  CellView committed = t.next;
  if (t.bump_and_gc) {
    for (Backend* b : t.continuing) {
      committed.shard_config_ids[b->shard()] =
          cfg.AllocateConfigId(b->shard());
    }
  }
  cfg.CommitTransition(committed);
  ++stats_.transitions_committed;
  if (t.bump_and_gc) {
    for (Backend* b : t.continuing) {
      b->SetConfigId(committed.shard_config_ids[b->shard()]);
    }
    for (Backend* b : t.continuing) {
      stats_.entries_dropped +=
          static_cast<int64_t>(b->DropNonOwned(cfg.view()));
    }
  }

  // 6. Release retirees after a linger, so clients still holding the window
  // view drain off them before the hosts go away.
  if (!t.retiring.empty()) {
    co_await cell_.simulator().Delay(options_.release_linger);
    for (Backend* b : t.retiring) {
      if (b->serving()) b->Stop();
      ++stats_.backends_retired;
    }
  }
  in_progress_ = false;
  co_return OkStatus();
}

sim::Task<Status> Resharder::StreamFrom(Backend* src, const Transition& t) {
  const uint32_t n = t.next.num_shards();
  const int replicas = ReplicaCount(t.next.mode);
  const HashFn hash_fn = cell_.options().hash_fn;
  // One coherent snapshot per source; concurrent new-generation writes are
  // routed to the new owners directly and version monotonicity (plus keyed
  // tombstones riding the stream) keeps late installs from regressing them.
  const std::vector<proto::BulkRecord> records = src->SnapshotBulk();

  for (uint32_t d : t.dest_shards) {
    const net::HostId dest_host = t.next.shard_hosts[d];
    if (dest_host == src->host()) continue;
    Bytes batch;
    int64_t in_batch = 0;
    for (const auto& rec : records) {
      const uint32_t primary = PrimaryShard(hash_fn(rec.key), n);
      bool owned = false;
      for (int r = 0; r < replicas; ++r) {
        if (ReplicaShard(primary, r, n) == d) {
          owned = true;
          break;
        }
      }
      if (!owned) continue;
      proto::AppendBulkRecord(batch, rec.key, rec.value, rec.version,
                              rec.erased);
      ++in_batch;
      if (batch.size() >= options_.batch_bytes) {
        Status s = co_await SendBatch(src->host(), dest_host,
                                      std::move(batch));
        if (!s.ok()) co_return s;
        stats_.records_streamed += in_batch;
        batch.clear();
        in_batch = 0;
      }
    }
    if (!batch.empty()) {
      Status s = co_await SendBatch(src->host(), dest_host, std::move(batch));
      if (!s.ok()) co_return s;
      stats_.records_streamed += in_batch;
    }
  }
  co_return OkStatus();
}

sim::Task<Status> Resharder::SendBatch(net::HostId from, net::HostId to,
                                       Bytes batch) {
  stats_.bytes_streamed += static_cast<int64_t>(batch.size());
  rpc::WireWriter w;
  w.PutBytes(proto::kTagRecords, batch);
  const Bytes request = std::move(w).Take();
  Status last = UnavailableError("no attempt");
  for (int attempt = 0; attempt <= kMaxBatchRetries; ++attempt) {
    if (attempt > 0) {
      ++stats_.batch_retries;
      co_await cell_.simulator().Delay(kRetryBackoff *
                                       static_cast<sim::Duration>(attempt));
    }
    rpc::RpcChannel ch(cell_.rpc_network(), from, to);
    auto resp = co_await ch.Call(proto::kMethodInstallBulk, request,
                                 kBulkInstallTimeout);
    if (resp.ok()) {
      ++stats_.batches_sent;
      co_return OkStatus();
    }
    last = resp.status();
  }
  co_return last;
}

}  // namespace cm::cliquemap
