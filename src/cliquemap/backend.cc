#include "cliquemap/backend.h"

#include <algorithm>
#include <cassert>

namespace cm::cliquemap {
namespace {
// Index reshaping (§4.1) multiplies the bucket count by this.
constexpr double kIndexGrowFactor = 2.0;
// The data region starts growing asynchronously at this slab utilization.
constexpr double kDataHighWatermark = 0.80;
// Keyed tombstones remembered for erased keys.
constexpr size_t kTombstoneCapacity = 4096;
// Registering a resized region with the NIC, on the host CPU.
constexpr sim::Duration kMemoryRegistrationCost = sim::Microseconds(40);
}  // namespace

// ---------------------------------------------------------------------------
// Memory sources
// ---------------------------------------------------------------------------

// The index region: one contiguous buffer per index generation. Replaced
// wholesale (and its window revoked) on reshaping. SCAR buckets are
// deferred snapshots of it, so every write goes through Mutable().
class Backend::IndexBuffer final : public rma::MemorySource {
 public:
  explicit IndexBuffer(size_t bytes) : bytes_(bytes, std::byte{0}) {}
  // A replaced index copies out the SCAR buckets still pending on it.
  ~IndexBuffer() override { MaterializeAll(); }

  Status ReadAt(uint64_t offset, uint32_t length,
                std::byte* dst) const override {
    if (!rma::InBounds(offset, length, bytes_.size())) {
      return InvalidArgumentError("index read out of range");
    }
    std::memcpy(dst, bytes_.data() + offset, length);
    return OkStatus();
  }
  uint64_t size() const override { return bytes_.size(); }
  ByteSpan Peek(uint64_t offset, uint32_t length) const override {
    return cspan().subspan(offset, length);
  }

  // The single write funnel into the index: pending snapshots of the bytes
  // it hands out are materialized first.
  MutableByteSpan Mutable(uint64_t offset, uint64_t length) {
    BeforeWrite(offset, length);
    return MutableByteSpan(bytes_).subspan(offset, length);
  }
  ByteSpan cspan() const { return ByteSpan(bytes_); }

 private:
  std::vector<std::byte> bytes_;
};

// The data pool: virtually contiguous, chunk-backed storage populated on
// demand (the mmap(PROT_NONE)-reserve / populate-on-touch scheme of §4.1).
// Only populated chunks consume memory.
class Backend::DataPool final : public rma::MemorySource {
 public:
  explicit DataPool(uint64_t chunk_bytes) : chunk_bytes_(chunk_bytes) {}
  ~DataPool() override { MaterializeAll(); }

  void EnsurePopulated(uint64_t bytes) {
    while (populated_ < bytes) {
      chunks_.push_back(
          std::make_unique<std::byte[]>(static_cast<size_t>(chunk_bytes_)));
      std::memset(chunks_.back().get(), 0, static_cast<size_t>(chunk_bytes_));
      populated_ += chunk_bytes_;
    }
  }

  Status ReadAt(uint64_t offset, uint32_t length,
                std::byte* dst) const override {
    if (!rma::InBounds(offset, length, populated_)) {
      return InvalidArgumentError("data read beyond populated pool");
    }
    uint64_t at = offset;
    uint32_t remaining = length;
    while (remaining > 0) {
      const uint64_t chunk = at / chunk_bytes_;
      const uint64_t within = at % chunk_bytes_;
      const auto n = static_cast<uint32_t>(
          std::min<uint64_t>(remaining, chunk_bytes_ - within));
      std::memcpy(dst, chunks_[chunk].get() + within, n);
      dst += n;
      at += n;
      remaining -= n;
    }
    return OkStatus();
  }

  // A range inside one chunk is contiguous (slab slots never straddle).
  ByteSpan Peek(uint64_t offset, uint32_t length) const override {
    const uint64_t within = offset % chunk_bytes_;
    if (within + length > chunk_bytes_) return {};
    return ByteSpan(chunks_[offset / chunk_bytes_].get() + within, length);
  }

  // The single write funnel into the pool: pending snapshots of the bytes
  // it overwrites are materialized first.
  Status WriteAt(uint64_t offset, ByteSpan src) {
    if (!rma::InBounds(offset, src.size(), populated_)) {
      return InvalidArgumentError("data write beyond populated pool");
    }
    BeforeWrite(offset, src.size());
    uint64_t at = offset;
    size_t done = 0;
    while (done < src.size()) {
      const uint64_t chunk = at / chunk_bytes_;
      const uint64_t within = at % chunk_bytes_;
      const auto n = static_cast<size_t>(
          std::min<uint64_t>(src.size() - done, chunk_bytes_ - within));
      std::memcpy(chunks_[chunk].get() + within, src.data() + done, n);
      done += n;
      at += n;
    }
    return OkStatus();
  }

  uint64_t size() const override { return populated_; }

 private:
  uint64_t chunk_bytes_;
  uint64_t populated_ = 0;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
};

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

Backend::Backend(net::Fabric& fabric, rpc::RpcNetwork& rpc_network,
                 rma::RmaNetwork& rma_network, truetime::TrueTime& truetime,
                 net::HostId host, ConfigService* config_service,
                 uint32_t shard, BackendConfig config)
    : sim_(fabric.simulator()),
      fabric_(fabric),
      rpc_network_(rpc_network),
      rma_network_(rma_network),
      truetime_(truetime),
      host_(host),
      config_service_(config_service),
      shard_(shard),
      config_(std::move(config)),
      rng_(config_.seed ^ (uint64_t{host} << 32) ^ shard),
      tombstones_(kTombstoneCapacity),
      exports_(&fabric.metrics()) {
  const metrics::Labels l = {{"host", std::to_string(host_)}};
  metrics::ExportCounters(exports_, "cm.backend.", l, stats_);
  exports_.ExportGauge("cm.backend.live_entries", l, [this] {
    return static_cast<int64_t>(live_entries());
  });
  exports_.ExportGauge("cm.backend.memory_footprint_bytes", l, [this] {
    return static_cast<int64_t>(memory_footprint());
  });
  exports_.ExportGauge("cm.backend.data_used_bytes", l, [this] {
    return static_cast<int64_t>(data_used());
  });
}

Backend::~Backend() {
  repair_loop_running_ = false;
  *alive_ = false;
  if (serving_) Stop();
}

void Backend::EnableTenancy(const TenantRegistry& reg,
                            AdmissionQueue::Options admission) {
  if (!admission_) {
    admission_ = std::make_unique<AdmissionQueue>(
        sim_, &fabric_.metrics(),
        metrics::Labels{{"host", std::to_string(host_)}}, admission);
  }
  admission_->Configure(reg);
  if (!ledger_) ledger_ = std::make_unique<TenantMemoryLedger>();
  ledger_->Configure(reg);
}

void Backend::Start(uint32_t config_id) {
  assert(!serving_);
  ++incarnation_;
  config_id_ = config_id;

  // Index region.
  num_buckets_ = config_.initial_buckets;
  index_ = std::make_unique<IndexBuffer>(num_buckets_ *
                                         BucketBytes(config_.ways));
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    EncodeBucketHeader(BucketSpan(b), BucketHeader{config_id_, false});
  }
  index_region_ = registry_.Register(index_.get(), index_->size());

  // Data region.
  slab_ = std::make_unique<SlabAllocator>(
      config_.data_max_bytes, config_.data_initial_bytes, config_.slab);
  data_ = std::make_unique<DataPool>(config_.slab.slab_bytes);
  data_->EnsurePopulated(slab_->populated());
  data_regions_.clear();
  data_regions_.push_back(registry_.Register(data_.get(), slab_->populated()));

  eviction_ = MakeEvictionPolicy(
      config_.eviction, num_buckets_ * static_cast<size_t>(config_.ways),
      rng_.NextU64());
  live_entries_ = 0;
  overflow_.clear();
  overflow_count_.clear();
  if (ledger_) ledger_->Clear();  // restart dropped every resident entry

  // RMA attach + SCAR co-design install.
  rma_network_.Attach(host_, &registry_);
  rma_network_.InstallScar(
      host_, [this](uint64_t hi, uint64_t lo, rma::RegionId region,
                    uint64_t off, uint32_t len) -> StatusOr<rma::ScarResult> {
        return ExecuteScar(hi, lo, region, off, len);
      });

  // RPC surface. The server object lives for the backend's lifetime and is
  // only marked down across stop/crash windows: in-flight RpcChannel::Call
  // coroutines (and suspended handler frames referencing the registered
  // closures) may outlive an incarnation, so neither the server nor its
  // method table may be destroyed while the simulation is running.
  if (!rpc_server_) {
    rpc_server_ =
        std::make_unique<rpc::RpcServer>(rpc_network_, host_, config_.rpc_costs);
    auto bind = [this](auto method) {
      return [this, method](ByteSpan req) -> sim::Task<StatusOr<Bytes>> {
        return (this->*method)(req);
      };
    };
    rpc_server_->RegisterMethod(proto::kMethodSet, bind(&Backend::HandleSet));
    rpc_server_->RegisterMethod(proto::kMethodErase,
                                bind(&Backend::HandleErase));
    rpc_server_->RegisterMethod(proto::kMethodCas, bind(&Backend::HandleCas));
    rpc_server_->RegisterMethod(proto::kMethodGet, bind(&Backend::HandleGet));
    rpc_server_->RegisterMethod(proto::kMethodDegradedGet,
                                bind(&Backend::HandleDegradedGet));
    rpc_server_->RegisterMethod(proto::kMethodMultiGet,
                                bind(&Backend::HandleMultiGet));
    rpc_server_->RegisterMethod(proto::kMethodTouch,
                                bind(&Backend::HandleTouch));
    rpc_server_->RegisterMethod(proto::kMethodInfo,
                                bind(&Backend::HandleInfo));
    rpc_server_->RegisterMethod(proto::kMethodPing,
                                bind(&Backend::HandlePing));
    rpc_server_->RegisterMethod(proto::kMethodRepairPull,
                                bind(&Backend::HandleRepairPull));
    rpc_server_->RegisterMethod(proto::kMethodGetByHash,
                                bind(&Backend::HandleGetByHash));
    rpc_server_->RegisterMethod(proto::kMethodBumpVersion,
                                bind(&Backend::HandleBumpVersion));
    rpc_server_->RegisterMethod(proto::kMethodInstallBulk,
                                bind(&Backend::HandleInstallBulk));
  }
  rpc_server_->SetDown(false);

  fenced_ = false;
  lease_expires_at_ = 0;
  serving_ = true;
}

void Backend::Stop() {
  serving_ = false;
  if (index_region_ != rma::kInvalidRegion) registry_.Revoke(index_region_);
  for (auto r : data_regions_) registry_.Revoke(r);
  rma_network_.Detach(host_);
  // Crash semantics without destruction (see Start): down servers answer
  // nothing, so clients burn their connect timeout and back off.
  if (rpc_server_) rpc_server_->SetDown(true);
  if (resize_done_) resize_done_->Notify();  // release stalled mutations
  if (grow_done_) grow_done_->Notify();      // release allocation waiters
}

void Backend::Crash() { Stop(); }

// ---------------------------------------------------------------------------
// Lease-based membership (self-healing control plane)
// ---------------------------------------------------------------------------

void Backend::StartHeartbeats(sim::Duration interval) {
  heartbeat_interval_ = interval;
  if (heartbeats_running_) return;
  heartbeats_running_ = true;
  // Like the repair loop, the heartbeat loop survives Stop()/Start() cycles
  // (a restarted backend must re-acquire its lease without re-orchestration)
  // and simply skips renewals while not serving.
  sim_.Spawn([](Backend* b, std::shared_ptr<bool> alive) -> sim::Task<void> {
    while (*alive && b->heartbeats_running_) {
      if (b->serving_) {
        co_await b->SendHeartbeat();
      }
      if (!*alive || !b->heartbeats_running_) co_return;
      co_await b->sim_.Delay(b->heartbeat_interval_);
    }
  }(this, alive_));
}

void Backend::StopHeartbeats() { heartbeats_running_ = false; }

sim::Task<void> Backend::SendHeartbeat() {
  ++stats_.heartbeats_sent;
  // The lease clock starts at *send* time: the granted duration is counted
  // from before the request left, so this backend's view of its lease
  // always expires no later than the ConfigService's. Self-fencing therefore
  // happens before (or exactly when) the membership layer declares the
  // lease lapsed — a stale window can never outlive its membership.
  const sim::Time sent_at = sim_.now();
  rpc::WireWriter w;
  w.PutU32(proto::kTagHeartbeatHost, host_);
  w.PutU32(proto::kTagHeartbeatShard, shard_);
  rpc::RpcChannel ch(rpc_network_, host_, config_service_->host());
  auto resp = co_await ch.Call(proto::kMethodHeartbeat, std::move(w).Take(),
                               heartbeat_interval_);
  if (!serving_ || !heartbeats_running_) co_return;  // stopped across await
  if (resp.ok()) {
    rpc::WireReader r(*resp);
    if (auto lease_ns = r.GetU64(proto::kTagLeaseNs)) {
      lease_expires_at_ = sent_at + static_cast<sim::Duration>(*lease_ns);
      if (fenced_) UnfenceRma();
      co_return;
    }
  }
  ++stats_.heartbeat_failures;
  if (!fenced_ && lease_expires_at_ != 0 && sim_.now() >= lease_expires_at_) {
    FenceRma();
  }
}

void Backend::FenceRma() {
  if (fenced_ || !serving_) return;
  fenced_ = true;
  ++stats_.self_fences;
  // Drop RMA permission in place: region ids (and the pointers stored in
  // index entries that embed them) stay allocated, so a later renewal can
  // restore access without rewriting the index.
  if (index_region_ != rma::kInvalidRegion) registry_.Revoke(index_region_);
  for (auto r : data_regions_) registry_.Revoke(r);
}

void Backend::UnfenceRma() {
  if (!fenced_ || !serving_) return;
  fenced_ = false;
  ++stats_.unfences;
  if (index_region_ != rma::kInvalidRegion) registry_.Restore(index_region_);
  for (auto r : data_regions_) registry_.Restore(r);
}

void Backend::SetConfigId(uint32_t config_id) {
  config_id_ = config_id;
  if (!index_) return;
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    BucketHeader h = DecodeBucketHeader(BucketView(b));
    h.config_id = config_id_;
    EncodeBucketHeader(BucketSpan(b), h);
  }
}

// ---------------------------------------------------------------------------
// Index helpers
// ---------------------------------------------------------------------------

MutableByteSpan Backend::BucketSpan(uint64_t bucket) {
  return index_->Mutable(bucket * BucketBytes(config_.ways),
                         BucketBytes(config_.ways));
}

ByteSpan Backend::BucketView(uint64_t bucket) const {
  return index_->cspan().subspan(bucket * BucketBytes(config_.ways),
                                 BucketBytes(config_.ways));
}

std::optional<int> Backend::FindFreeWay(uint64_t bucket) const {
  const ByteSpan span = BucketView(bucket);
  for (int w = 0; w < config_.ways; ++w) {
    if (WayKeyhash(span, w).is_zero()) return w;
  }
  return std::nullopt;
}

void Backend::WriteEntry(uint64_t bucket, int way, const IndexEntry& entry) {
  EncodeIndexEntry(BucketSpan(bucket).subspan(WayOffset(way)), entry);
}

void Backend::ClearEntry(uint64_t bucket, int way) {
  WriteEntry(bucket, way, IndexEntry{});
}

void Backend::SetOverflowFlag(uint64_t bucket, bool overflow) {
  BucketHeader h = DecodeBucketHeader(BucketView(bucket));
  h.overflow = overflow;
  EncodeBucketHeader(BucketSpan(bucket), h);
}

// ---------------------------------------------------------------------------
// Data helpers
// ---------------------------------------------------------------------------

void Backend::FreeData(const Pointer& ptr) {
  if (ptr.is_null()) return;
  slab_->Free(ptr.offset, ptr.size);
}

Bytes Backend::ReadData(const Pointer& ptr) const {
  Bytes out(ptr.size);
  if (!data_->ReadAt(ptr.offset, ptr.size, out.data()).ok()) out.clear();
  return out;
}

bool Backend::EvictOne(const EvictScope& scope) {
  Hash128 victim;
  if (scope.kind == EvictScope::kPool) {
    victim = eviction_->Victim();
  } else {
    std::vector<Hash128> candidates;
    if (scope.kind == EvictScope::kBucket) {
      candidates.reserve(static_cast<size_t>(config_.ways));
      const ByteSpan span = BucketView(scope.bucket);
      for (int w = 0; w < config_.ways; ++w) {
        const Hash128 h = WayKeyhash(span, w);
        if (!h.is_zero()) candidates.push_back(h);
      }
    } else {
      for (const Hash128& h : ledger_->keys(scope.tenant)) {
        if (h != scope.keep) candidates.push_back(h);
      }
    }
    victim = eviction_->VictimAmong(candidates);
  }
  if (victim.is_zero()) return false;
  const auto r = FindIndexed(victim);
  assert(r && "the policy and the ledger track only index residents");
  RemoveResident(*r);
  ++(scope.kind == EvictScope::kPool     ? stats_.evictions_capacity
     : scope.kind == EvictScope::kBucket ? stats_.evictions_assoc
                                         : stats_.evictions_tenant);
  return true;
}

// ---------------------------------------------------------------------------
// Residency: index slot or overflow entry
// ---------------------------------------------------------------------------

std::optional<Backend::Resident> Backend::FindIndexed(
    const Hash128& hash) const {
  if (!index_) return std::nullopt;  // never started
  const uint64_t bucket = BucketIndex(hash, num_buckets_);
  const ByteSpan span = BucketView(bucket);
  const int way = FindWay(span, config_.ways, hash);
  if (way < 0) return std::nullopt;
  const IndexEntry e = DecodeIndexEntry(span.subspan(WayOffset(way)));
  return Resident{hash, e.version, Location{bucket, way}, e.pointer, {}};
}

std::optional<Backend::Resident> Backend::FindResident(
    const Hash128& hash, std::string_view key) const {
  if (auto r = FindIndexed(hash)) return r;
  if (overflow_.empty()) return std::nullopt;
  const auto ov =
      key.empty() ? std::find_if(overflow_.begin(), overflow_.end(),
                                 [&](const auto& entry) {
                                   return config_.hash_fn(entry.first) == hash;
                                 })
                  : overflow_.find(std::string(key));
  if (ov == overflow_.end()) return std::nullopt;
  return Resident{hash, ov->second.version, std::nullopt, {}, ov};
}

StatusOr<DataEntryView> Backend::ReadRecord(const Resident& r,
                                            Bytes& buf) const {
  if (!r.slot) {
    return DataEntryView{r.hash, r.version, r.ov->first,
                         ByteSpan(r.ov->second.value)};
  }
  buf = ReadData(r.data);
  return DecodeDataEntry(buf);
}

void Backend::RemoveResident(const Resident& r) {
  if (r.slot) {
    // Nullify the pointer first, then reclaim: in-flight 2xR GETs that read
    // the old pointer may still complete (ordered-before the eviction, §4.2).
    ClearEntry(r.slot->bucket, r.slot->way);
    FreeData(r.data);
    --live_entries_;
    eviction_->OnRemove(r.hash);
    if (ledger_) ledger_->Release(r.hash);
  } else {
    const uint64_t bucket = BucketIndex(r.hash, num_buckets_);
    overflow_.erase(r.ov);
    if (--overflow_count_[bucket] <= 0) {
      overflow_count_.erase(bucket);
      SetOverflowFlag(bucket, false);
    }
  }
}

Status Backend::BumpResident(const Resident& r, const VersionNumber& version) {
  if (r.slot) {
    // Rewrite the DataEntry's version + checksum, then the IndexEntry; a
    // concurrent GET sees either a consistent old or new state, or a
    // retryable checksum failure.
    Bytes data = ReadData(r.data);
    if (Status s = RewriteDataEntryVersion(data, version); !s.ok()) return s;
    (void)data_->WriteAt(r.data.offset, data);
    WriteEntry(r.slot->bucket, r.slot->way,
               IndexEntry{r.hash, version, r.data});
  } else {
    overflow_.at(r.ov->first).version = version;
  }
  ++stats_.bump_versions;
  return OkStatus();
}

void Backend::InsertIndexed(uint64_t bucket, int way, const IndexEntry& entry,
                            TenantId tenant) {
  if (WayKeyhash(BucketView(bucket), way).is_zero()) ++live_entries_;
  WriteEntry(bucket, way, entry);
  eviction_->OnInsert(entry.keyhash);
  if (ledger_) ledger_->Charge(tenant, entry.keyhash, entry.pointer.size);
}

void Backend::InsertOverflow(std::string_view key, const Hash128& hash,
                             ByteSpan value, const VersionNumber& version,
                             TenantId tenant) {
  const uint64_t bucket = BucketIndex(hash, num_buckets_);
  auto [it, inserted] = overflow_.try_emplace(std::string(key));
  if (tenant == kDefaultTenant) tenant = it->second.tenant;
  it->second = {Bytes(value.begin(), value.end()), version, tenant};
  if (inserted) overflow_count_[bucket]++;
  SetOverflowFlag(bucket, true);
}

template <typename OnResident, typename OnTombstone>
void Backend::ForEachRecord(OnResident on_resident,
                            OnTombstone on_tombstone) const {
  for (uint64_t b = 0; b < num_buckets_; ++b) {
    const ByteSpan span = BucketView(b);
    for (int w = 0; w < config_.ways; ++w) {
      if (WayKeyhash(span, w).is_zero()) continue;
      const IndexEntry e = DecodeIndexEntry(span.subspan(WayOffset(w)));
      on_resident(
          Resident{e.keyhash, e.version, Location{b, w}, e.pointer, {}});
    }
  }
  for (auto ov = overflow_.begin(); ov != overflow_.end(); ++ov) {
    on_resident(Resident{config_.hash_fn(ov->first), ov->second.version,
                         std::nullopt, {}, ov});
  }
  for (const auto& [hash, tomb] : tombstones_.entries()) {
    on_tombstone(hash, tomb);
  }
}

sim::Task<StatusOr<uint64_t>> Backend::AllocateWithEviction(uint32_t size) {
  for (int attempt = 0; attempt < 256; ++attempt) {
    auto r = slab_->Allocate(size);
    if (r.ok()) {
      MaybeScheduleDataGrow();
      co_return r;
    }
    // Growth, when possible, proceeds asynchronously off the critical path
    // (§4.1); a mutation that can't allocate while a grow is in flight
    // waits for it rather than evicting prematurely.
    MaybeScheduleDataGrow(/*force=*/true);
    if (data_growing_ && grow_done_) {
      co_await grow_done_->Wait();
      continue;
    }
    // Capacity conflict (§4.2): an eviction anywhere in the pool suffices.
    if (!EvictOne({.kind = EvictScope::kPool})) break;
  }
  co_return ResourceExhaustedError("data region full and nothing evictable");
}

// ---------------------------------------------------------------------------
// Reshaping
// ---------------------------------------------------------------------------

sim::Task<void> Backend::AwaitMutationsAllowed() {
  // "For simplicity, mutations stall during an index resize" (§4.1).
  while (index_resizing_) {
    co_await resize_done_->Wait();
  }
}

void Backend::MaybeScheduleIndexResize() {
  if (index_resizing_ || !serving_) return;
  const double load = double(live_entries()) /
                      double(num_buckets_ * uint64_t(config_.ways));
  if (load < config_.index_load_limit) return;
  index_resizing_ = true;
  resize_done_ = std::make_unique<sim::Notification>(sim_);
  sim_.Spawn(ResizeIndex());
}

sim::Task<void> Backend::ResizeIndex() {
  ++stats_.index_resizes;
  // Registration + repopulation cost on the host CPU (handlers are cheap;
  // registration is "widely recognized to be expensive").
  co_await fabric_.host(host_).cpu().Run(
      kMemoryRegistrationCost +
      sim::Nanoseconds(static_cast<int64_t>(50 * live_entries())));
  if (!serving_) {
    index_resizing_ = false;
    resize_done_->Notify();
    co_return;
  }

  // Re-place every live entry under the new bucket count (atomic in sim
  // time: no suspension between here and the swap below). If some bucket
  // still overflows its ways, double again — upsizing exists precisely to
  // make associativity conflicts rare (§4.2).
  auto new_buckets =
      static_cast<uint64_t>(double(num_buckets_) * kIndexGrowFactor);
  // Entries move in the old index's (bucket, way) order.
  std::unique_ptr<IndexBuffer> new_index;
  std::vector<Hash128> unplaced;
  for (int attempt = 0; attempt < 4; ++attempt) {
    new_index = std::make_unique<IndexBuffer>(new_buckets *
                                              BucketBytes(config_.ways));
    for (uint64_t b = 0; b < new_buckets; ++b) {
      EncodeBucketHeader(new_index->Mutable(b * BucketBytes(config_.ways),
                                            BucketBytes(config_.ways)),
                         BucketHeader{config_id_, false});
    }
    unplaced.clear();
    for (uint64_t b = 0; b < num_buckets_; ++b) {
      const ByteSpan old = BucketView(b);
      for (int w = 0; w < config_.ways; ++w) {
        const Hash128 hash = WayKeyhash(old, w);
        if (hash.is_zero()) continue;
        MutableByteSpan bspan =
            new_index->Mutable(BucketIndex(hash, new_buckets) *
                                   BucketBytes(config_.ways),
                               BucketBytes(config_.ways));
        int nw = 0;
        while (nw < config_.ways && !WayKeyhash(bspan, nw).is_zero()) ++nw;
        if (nw == config_.ways) {
          unplaced.push_back(hash);
          continue;
        }
        std::memcpy(bspan.data() + WayOffset(nw), old.data() + WayOffset(w),
                    kIndexEntrySize);
      }
    }
    if (unplaced.empty()) break;
    new_buckets *= 2;
  }
  // Anything still unplaced after repeated doubling is treated as an
  // associativity eviction (vanishingly rare at production geometries).
  // Removing it from the old index leaves live_entries_ counting exactly
  // the entries the new one holds.
  for (const Hash128& hash : unplaced) {
    RemoveResident(*FindIndexed(hash));
    ++stats_.evictions_assoc;
  }

  // Revoke the original index: in-flight client RMAs fail and clients
  // re-learn the layout via RPC (§4.1).
  registry_.Revoke(index_region_);
  index_ = std::move(new_index);
  num_buckets_ = new_buckets;
  index_region_ = registry_.Register(index_.get(), index_->size());
  // A fenced backend must not grow new live windows: permission stays
  // revoked until the lease renews.
  if (fenced_) registry_.Revoke(index_region_);

  // The larger index usually has room for keys that overflowed the old
  // one: promote them back to RMA-servable residency. Whatever still
  // doesn't fit keeps its overflow bit (on its *new* bucket).
  overflow_count_.clear();
  for (auto it = overflow_.begin(); it != overflow_.end();) {
    const std::string& key = it->first;
    const auto& [value, version, tenant] = it->second;
    const Hash128 hash = config_.hash_fn(key);
    const uint64_t bucket = BucketIndex(hash, num_buckets_);
    bool promoted = false;
    if (auto way = FindFreeWay(bucket)) {
      const auto entry_bytes =
          static_cast<uint32_t>(DataEntryBytes(key.size(), value.size()));
      auto offset = slab_->Allocate(entry_bytes);
      if (offset.ok()) {
        Bytes encoded(entry_bytes);
        EncodeDataEntry(encoded, key, value, hash, version);
        (void)data_->WriteAt(*offset, encoded);
        InsertIndexed(bucket, *way,
                      IndexEntry{hash, version,
                                 Pointer{data_regions_.back(), entry_bytes,
                                         *offset}},
                      tenant);
        promoted = true;
      }
    }
    if (promoted) {
      it = overflow_.erase(it);
    } else {
      overflow_count_[bucket]++;
      SetOverflowFlag(bucket, true);
      ++it;
    }
  }

  index_resizing_ = false;
  resize_done_->Notify();
}

void Backend::MaybeScheduleDataGrow(bool force) {
  if (data_growing_ || !serving_ || !slab_->CanGrow()) return;
  if (!force && slab_->Utilization() < kDataHighWatermark) return;
  data_growing_ = true;
  grow_done_ = std::make_unique<sim::Notification>(sim_);
  sim_.Spawn(GrowData());
}

sim::Task<void> Backend::GrowData() {
  ++stats_.data_grows;
  // Kernel memory management has unpredictable duration: charge the
  // registration cost off the serving path (§4.1).
  co_await fabric_.host(host_).cpu().Run(kMemoryRegistrationCost);
  if (!serving_) {
    data_growing_ = false;
    if (grow_done_) grow_done_->Notify();
    co_return;
  }
  slab_->Grow(config_.data_grow_factor);
  data_->EnsurePopulated(slab_->populated());
  // Establish the second, larger, overlapping window; old windows stay
  // live (clients converge to the new one over time).
  data_regions_.push_back(registry_.Register(data_.get(), slab_->populated()));
  if (fenced_) registry_.Revoke(data_regions_.back());  // lease still lapsed
  data_growing_ = false;
  if (grow_done_) grow_done_->Notify();
}

// ---------------------------------------------------------------------------
// Mutation paths
// ---------------------------------------------------------------------------

sim::Task<StatusOr<bool>> Backend::ApplySet(std::string_view key,
                                            ByteSpan value,
                                            const VersionNumber& version,
                                            bool charge_write_time,
                                            TenantId tenant) {
  co_await AwaitMutationsAllowed();
  if (!serving_) co_return UnavailableError("backend stopped");

  const Hash128 hash = config_.hash_fn(key);
  {
    // Monotonicity (§5.2): apply only if the proposed version exceeds the
    // stored version — the resident's, else the tombstone cache's floor.
    const auto r = FindResident(hash, key);
    if (version <= (r ? r->version : tombstones_.Floor(hash))) {
      ++stats_.sets_rejected_stale;
      co_return false;
    }
  }

  const auto entry_bytes =
      static_cast<uint32_t>(DataEntryBytes(key.size(), value.size()));

  // Memory-plane containment (§7.1): a tenant past its byte quota evicts
  // its OWN keys to make room (the policy picks which, never the key being
  // written) — neighbors' entries are never squeezed by this path.
  // Overwrites net out the bytes the key already holds.
  if (ledger_) {
    const TenantId owner =
        tenant != kDefaultTenant ? tenant : ledger_->OwnerOf(hash);
    const uint64_t resident = ledger_->ResidentBytes(hash);
    const uint64_t incoming =
        entry_bytes > resident ? entry_bytes - resident : 0;
    while (ledger_->OverQuota(owner, incoming) &&
           EvictOne({.kind = EvictScope::kTenant, .tenant = owner,
                     .keep = hash})) {
    }
  }

  auto offset = co_await AllocateWithEviction(entry_bytes);
  if (!offset.ok()) co_return offset.status();
  const Pointer new_ptr{data_regions_.back(), entry_bytes, *offset};

  // Serialize the DataEntry and write it in two steps with simulated memcpy
  // time in between: the window in which a concurrent RMA read observes a
  // torn entry (checksum mismatch -> client retry).
  Bytes encoded(entry_bytes);
  EncodeDataEntry(encoded, key, value, hash, version);
  if (charge_write_time) {
    const auto write_ns = static_cast<sim::Duration>(
        double(entry_bytes) / config_.write_bytes_per_ns);
    (void)data_->WriteAt(*offset, ByteSpan(encoded).first(entry_bytes / 2));
    co_await sim_.Delay(std::max<sim::Duration>(write_ns / 2, 1));
    (void)data_->WriteAt(*offset + entry_bytes / 2,
                         ByteSpan(encoded).subspan(entry_bytes / 2));
    co_await sim_.Delay(std::max<sim::Duration>(write_ns / 2, 1));
  } else {
    (void)data_->WriteAt(*offset, encoded);
  }

  if (!serving_) {  // stopped while writing
    slab_->Free(*offset, entry_bytes);
    co_return UnavailableError("backend stopped");
  }

  // Re-resolve the residency: the index may have reshaped, or a competing
  // SET or ERASE may have won while we were writing.
  const auto r = FindResident(hash, key);
  if (version <= (r ? r->version : tombstones_.Floor(hash))) {
    slab_->Free(*offset, entry_bytes);  // lost the race to a newer mutation
    ++stats_.sets_rejected_stale;
    co_return false;
  }
  if (r && r->slot) {
    InsertIndexed(r->slot->bucket, r->slot->way,
                  IndexEntry{hash, version, new_ptr}, tenant);
    FreeData(r->data);  // reclaim the old DataEntry as free space
  } else {
    const uint64_t bucket = BucketIndex(hash, num_buckets_);
    auto free_way = FindFreeWay(bucket);
    if (!free_way && config_.rpc_fallback_on_overflow) {
      // Associativity conflict (§4.2), served via RPC instead of RMA.
      slab_->Free(*offset, entry_bytes);
      InsertOverflow(key, hash, value, version, tenant);
      ++stats_.overflow_inserts;
      tombstones_.Clear(hash);
      ++stats_.sets_applied;
      co_return true;
    }
    if (r) {  // promoted out of the overflow table, keeping its writer
      if (tenant == kDefaultTenant) tenant = r->ov->second.tenant;
      RemoveResident(*r);
    }
    if (!free_way) {
      // Associativity conflict (§4.2).
      EvictOne({.kind = EvictScope::kBucket, .bucket = bucket});
      free_way = FindFreeWay(bucket);
    }
    InsertIndexed(bucket, *free_way, IndexEntry{hash, version, new_ptr},
                  tenant);
  }

  tombstones_.Clear(hash);
  ++stats_.sets_applied;
  MaybeScheduleIndexResize();
  co_return true;
}

sim::Task<StatusOr<bool>> Backend::ApplyErase(std::string_view key,
                                              const VersionNumber& version) {
  co_await AwaitMutationsAllowed();
  if (!serving_) co_return UnavailableError("backend stopped");

  const Hash128 hash = config_.hash_fn(key);
  const auto r = FindResident(hash, key);
  if (version <= (r ? r->version : tombstones_.Floor(hash))) co_return false;
  if (r) RemoveResident(*r);
  // Erasing an absent key still records the tombstone so late SETs cannot
  // restore an affirmatively-erased value (§5.2).
  tombstones_.Record(hash, version, key);
  ++stats_.erases_applied;
  co_return true;
}

// ---------------------------------------------------------------------------
// RPC handlers
// ---------------------------------------------------------------------------

namespace {

Bytes AppliedResponse(bool applied) {
  rpc::WireWriter w;
  w.PutU32(proto::kTagApplied, applied ? 1 : 0);
  return std::move(w).Take();
}

}  // namespace

// Mutations stamped with a cell generation are fenced against the live
// view: once the resharder bumps the generation (BeginTransition/Commit),
// in-flight writes addressed under the old topology bounce with
// kFailedPrecondition and the client re-routes after a config refresh.
// Draining shards likewise bounce writes while continuing to serve reads.
Status Backend::CheckMutationAdmissible(const rpc::WireReader& r) {
  if (draining_) {
    ++stats_.draining_rejects;
    return FailedPreconditionError("shard draining");
  }
  auto gen = r.GetU32(proto::kTagGeneration);
  if (gen && config_service_ != nullptr &&
      *gen != config_service_->view().generation) {
    ++stats_.stale_generation_rejects;
    return FailedPreconditionError("stale generation");
  }
  return OkStatus();
}

sim::Task<StatusOr<TenantId>> Backend::AdmitTenant(ByteSpan req,
                                                   AdmitGuard& admit) {
  if (!admission_) co_return kDefaultTenant;
  const TenantId tenant = rpc::WireReader(req)
                              .GetU32(proto::kTagTenant)
                              .value_or(kDefaultTenant);
  if (Status s = co_await admission_->Admit(tenant, req.size()); !s.ok()) {
    ++stats_.tenant_sheds;
    co_return s;
  }
  admit.q = admission_.get();
  co_return tenant;
}

sim::Task<StatusOr<Bytes>> Backend::HandleSet(ByteSpan req) {
  AdmitGuard admit;
  const auto tenant = co_await AdmitTenant(req, admit);
  if (!tenant.ok()) co_return tenant.status();
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto key = r.GetBytes(proto::kTagKey);
  auto value = r.GetBytes(proto::kTagValue);
  auto version = proto::GetVersion(r);
  if (!key || !value || !version) {
    co_return InvalidArgumentError("Set: missing fields");
  }
  if (Status s = CheckMutationAdmissible(r); !s.ok()) co_return s;
  auto applied = co_await ApplySet(ToString(*key), *value, *version,
                                   /*charge_write_time=*/true, *tenant);
  if (!applied.ok()) co_return applied.status();
  co_return AppliedResponse(*applied);
}

sim::Task<StatusOr<Bytes>> Backend::HandleErase(ByteSpan req) {
  AdmitGuard admit;
  if (auto tenant = co_await AdmitTenant(req, admit); !tenant.ok()) {
    co_return tenant.status();
  }
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto key = r.GetBytes(proto::kTagKey);
  auto version = proto::GetVersion(r);
  if (!key || !version) co_return InvalidArgumentError("Erase: missing fields");
  if (Status s = CheckMutationAdmissible(r); !s.ok()) co_return s;
  auto applied = co_await ApplyErase(ToString(*key), *version);
  if (!applied.ok()) co_return applied.status();
  co_return AppliedResponse(*applied);
}

sim::Task<StatusOr<Bytes>> Backend::HandleCas(ByteSpan req) {
  AdmitGuard admit;
  const auto tenant = co_await AdmitTenant(req, admit);
  if (!tenant.ok()) co_return tenant.status();
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto key = r.GetBytes(proto::kTagKey);
  auto value = r.GetBytes(proto::kTagValue);
  auto version = proto::GetVersion(r);
  auto expected = proto::GetVersion(r, proto::kTagExpectedTt);
  if (!key || !value || !version || !expected) {
    co_return InvalidArgumentError("Cas: missing fields");
  }
  if (Status s = CheckMutationAdmissible(r); !s.ok()) co_return s;
  // CAS installs only when the stored version (zero when absent) matches
  // `expected` (§5.2).
  const std::string k = ToString(*key);
  const auto res = FindResident(config_.hash_fn(k), k);
  if ((res ? res->version : VersionNumber{}) != *expected) {
    ++stats_.cas_failed;
    co_return AppliedResponse(false);
  }
  auto applied = co_await ApplySet(k, *value, *version, true, *tenant);
  if (!applied.ok()) co_return applied.status();
  if (*applied) {
    ++stats_.cas_applied;
  } else {
    ++stats_.cas_failed;
  }
  co_return AppliedResponse(*applied);
}

sim::Task<StatusOr<Bytes>> Backend::HandleGet(ByteSpan req) {
  // Unlike one-sided RMA GETs, this fallback read burns backend CPU, so it
  // goes through admission and per-tenant byte accounting like any RPC.
  AdmitGuard admit;
  const auto tenant = co_await AdmitTenant(req, admit);
  if (!tenant.ok()) co_return tenant.status();
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  ++stats_.rpc_gets;
  rpc::WireReader r(req);
  auto key = r.GetBytes(proto::kTagKey);
  if (!key) co_return InvalidArgumentError("Get: missing key");
  LocalLookup hit = LookupLocal(ToString(*key));
  if (!hit.status.ok()) co_return hit.status;
  if (admission_) {
    admission_->AccountReadBytes(*tenant, kIndexEntrySize, hit.value.size());
  }
  rpc::WireWriter w;
  proto::PutHit(w, hit.value, hit.version);
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> Backend::HandleDegradedGet(ByteSpan req) {
  // Quorum-loss last resort: one replica's local verdict, always OK-bodied
  // so an absence can carry this replica's exact tombstone version (the
  // client must distinguish "never stored" from "quorum-committed ERASE").
  // No admission: this path only runs while most of the cell is down — the
  // disaster is not the moment to shed the few reads that still work.
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  ++stats_.degraded_gets_served;
  rpc::WireReader r(req);
  auto key = r.GetBytes(proto::kTagKey);
  if (!key) co_return InvalidArgumentError("DegradedGet: missing key");
  const std::string k = ToString(*key);
  LocalLookup hit = LookupLocal(k);
  rpc::WireWriter w;
  w.PutU32(proto::kTagStatusCode, static_cast<uint32_t>(hit.status.code()));
  if (hit.status.ok()) {
    proto::PutHit(w, hit.value, hit.version);
  } else if (const VersionNumber* t = tombstones_.Find(config_.hash_fn(k))) {
    // Exact per-key tombstone only — the evicted-tombstone *summary* would
    // fence every degraded read in the cell, not just erased keys.
    proto::PutVersion(w, *t, proto::kTagTombstoneTt);
  }
  co_return std::move(w).Take();
}

Backend::LocalLookup Backend::LookupLocal(const std::string& key) {
  LocalLookup out;
  const auto r = FindResident(config_.hash_fn(key), key);
  if (!r) {
    out.status = NotFoundError("no such key");
    return out;
  }
  Bytes buf;
  auto view = ReadRecord(*r, buf);
  if (!view.ok() || view->key != key) {
    // Decode failure under RPC means we raced a local mutation; the client
    // treats this as retryable.
    out.status = AbortedError("entry mutated during RPC get");
    return out;
  }
  out.value.assign(view->value.begin(), view->value.end());
  out.version = view->version;
  return out;
}

sim::Task<StatusOr<Bytes>> Backend::HandleMultiGet(ByteSpan req) {
  // The batched fallback pays admission once for the whole vector — the
  // point of the batch is amortizing the dispatch, not dodging quota: the
  // admitted cost is the full request size, and read-byte accounting below
  // still covers every key served.
  AdmitGuard admit;
  const auto tenant = co_await AdmitTenant(req, admit);
  if (!tenant.ok()) co_return tenant.status();
  rpc::WireReader r(req);
  const size_t n = r.CountBytes(proto::kTagKey);
  if (n == 0) co_return InvalidArgumentError("MultiGet: no keys");
  // One thread wake for the batch; each key then costs a fraction of a
  // full dispatch (index probe + decode, no framing or scheduling).
  co_await fabric_.host(host_).cpu().Run(
      config_.handler_base_cpu +
      (config_.handler_base_cpu / 4) * static_cast<int64_t>(n - 1));
  ++stats_.rpc_multigets;
  stats_.rpc_multiget_keys += static_cast<int64_t>(n);

  rpc::WireWriter w;
  int64_t read_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    auto key = r.GetBytesAt(proto::kTagKey, i);
    rpc::WireWriter sub;
    if (!key) {
      sub.PutU32(proto::kTagStatusCode,
                 static_cast<uint32_t>(StatusCode::kInvalidArgument));
      w.PutBytes(proto::kTagResult, std::move(sub).Take());
      continue;
    }
    LocalLookup hit = LookupLocal(ToString(*key));
    sub.PutU32(proto::kTagStatusCode,
               static_cast<uint32_t>(hit.status.code()));
    if (hit.status.ok()) {
      read_bytes += static_cast<int64_t>(hit.value.size());
      proto::PutHit(sub, hit.value, hit.version);
    }
    w.PutBytes(proto::kTagResult, std::move(sub).Take());
  }
  if (admission_) {
    admission_->AccountReadBytes(
        *tenant, static_cast<int64_t>(n) * kIndexEntrySize, read_bytes);
  }
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> Backend::HandleTouch(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu / 2);
  rpc::WireReader r(req);
  auto blob = r.GetBytes(proto::kTagRecords);
  if (!blob) co_return InvalidArgumentError("Touch: missing records");
  for (const Hash128& h : proto::ParseTouchRecords(*blob)) {
    eviction_->OnTouch(h);
    ++stats_.touches_ingested;
  }
  co_return Bytes{};
}

sim::Task<StatusOr<Bytes>> Backend::HandleInfo(ByteSpan) {
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu / 2);
  if (fenced_) {
    // Lease lapsed: the RMA windows are revoked, so a handshake would only
    // hand out dead region ids. Clients treat this replica as unavailable
    // (skip + backoff) until the lease renews.
    co_return UnavailableError("lease fenced");
  }
  rpc::WireWriter w;
  w.PutU32(proto::kTagIndexRegion, index_region_);
  w.PutU64(proto::kTagNumBuckets, num_buckets_);
  w.PutU32(proto::kTagWays, static_cast<uint32_t>(config_.ways));
  w.PutU32(proto::kTagConfigId, config_id_);
  w.PutU64(proto::kTagIncarnation, incarnation_);
  for (auto region : data_regions_) {
    w.PutU32(proto::kTagDataRegion, region);
  }
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> Backend::HandlePing(ByteSpan) {
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu / 2);
  rpc::WireWriter w;
  w.PutU32(proto::kTagHeartbeatShard, shard_);
  w.PutU64(proto::kTagIncarnation, incarnation_);
  w.PutU32(proto::kTagFlags, fenced_ ? 1 : 0);
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> Backend::HandleRepairPull(ByteSpan req) {
  ++stats_.repair_pulls_served;
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto shard_filter = r.GetU32(proto::kTagFlags);
  auto num_shards = r.GetU32(proto::kTagRecordCount);
  if (!shard_filter || !num_shards) {
    co_return InvalidArgumentError("RepairPull: missing shard filter");
  }
  Bytes blob;
  for (const auto& rec : SnapshotRecords(*shard_filter, *num_shards)) {
    proto::AppendRepairRecord(blob, rec);
  }
  rpc::WireWriter w;
  w.PutBytes(proto::kTagRecords, blob);
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> Backend::HandleGetByHash(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto hi = r.GetU64(proto::kTagHashHi);
  auto lo = r.GetU64(proto::kTagHashLo);
  if (!hi || !lo) co_return InvalidArgumentError("GetByHash: missing hash");
  const auto res = FindResident(Hash128{*hi, *lo});
  if (!res) co_return NotFoundError("hash not resident");
  // The view aliases `raw`; keep it alive until the response is serialized.
  Bytes raw;
  auto view = ReadRecord(*res, raw);
  if (!view.ok()) co_return view.status();
  rpc::WireWriter w;
  w.PutString(proto::kTagKey, view->key);
  proto::PutHit(w, view->value, view->version);
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> Backend::HandleBumpVersion(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto hi = r.GetU64(proto::kTagHashHi);
  auto lo = r.GetU64(proto::kTagHashLo);
  auto old_version = proto::GetVersion(r, proto::kTagExpectedTt);
  auto new_version = proto::GetVersion(r);
  if (!hi || !lo || !old_version || !new_version) {
    co_return InvalidArgumentError("BumpVersion: missing fields");
  }
  const auto res = FindResident(Hash128{*hi, *lo});
  if (!res || res->version != *old_version) co_return AppliedResponse(false);
  if (Status s = BumpResident(*res, *new_version); !s.ok()) co_return s;
  co_return AppliedResponse(true);
}

sim::Task<StatusOr<Bytes>> Backend::HandleInstallBulk(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(config_.handler_base_cpu);
  rpc::WireReader r(req);
  auto blob = r.GetBytes(proto::kTagRecords);
  if (!blob) co_return InvalidArgumentError("InstallBulk: missing records");
  uint32_t accepted = 0;
  for (const auto& rec : proto::ParseBulkRecords(*blob)) {
    if (rec.erased) {
      if (rec.key.empty()) {
        // Summary-version transfer (tombstone cache is approximated by its
        // summary across migration).
        tombstones_.MergeSummary(rec.version);
        ++accepted;
        continue;
      }
      auto applied = co_await ApplyErase(rec.key, rec.version);
      if (applied.ok() && *applied) ++accepted;
      continue;
    }
    auto applied = co_await ApplySet(rec.key, rec.value, rec.version,
                                     /*charge_write_time=*/false);
    if (applied.ok() && *applied) ++accepted;
  }
  stats_.bulk_installed += accepted;
  rpc::WireWriter w;
  w.PutU32(proto::kTagApplied, accepted);
  co_return std::move(w).Take();
}

// ---------------------------------------------------------------------------
// SCAR executor (§6.3)
// ---------------------------------------------------------------------------

StatusOr<rma::ScarResult> Backend::ExecuteScar(uint64_t hash_hi,
                                               uint64_t hash_lo,
                                               rma::RegionId index_region,
                                               uint64_t bucket_offset,
                                               uint32_t bucket_len) {
  if (!serving_ || index_region != index_region_) {
    return PermissionDeniedError("scar against stale index window");
  }
  if (Status s = registry_.CheckAccess(index_region, bucket_offset, bucket_len);
      !s.ok()) {
    return s;
  }
  // The NIC scans the live bucket in place. The reply's bucket and
  // DataEntry are snapshots of this instant, copied only if a write to
  // them lands first; the client decodes them in place.
  const ByteSpan bucket = index_->cspan().subspan(bucket_offset, bucket_len);
  // The bucket is usually cold: ask for all its cache lines before the
  // way-by-way scan waits on the first.
  for (size_t at = 0; at < bucket.size(); at += 64) {
    __builtin_prefetch(bucket.data() + at);
  }
  rma::ScarResult result;
  result.bucket = index_->Defer(bucket_offset, bucket_len);
  // Only the ways the window holds in full are scanned.
  const int ways =
      bucket.size() < kBucketHeaderSize
          ? 0
          : static_cast<int>(std::min<size_t>(
                size_t(config_.ways),
                (bucket.size() - kBucketHeaderSize) / kIndexEntrySize));
  if (const int w = FindWay(bucket, ways, Hash128{hash_hi, hash_lo}); w >= 0) {
    // A torn pointer or mid-write entry surfaces to the client as a
    // checksum failure. The client reads the data of one replica of R.
    const IndexEntry e = DecodeIndexEntry(bucket.subspan(WayOffset(w)));
    result.data = data_->Defer(e.pointer.offset, e.pointer.size);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Repair (§5.4)
// ---------------------------------------------------------------------------

std::vector<proto::RepairRecord> Backend::SnapshotRecords(
    uint32_t shard_filter, uint32_t num_shards) const {
  std::vector<proto::RepairRecord> out;
  if (num_shards == 0) return out;
  // Overflow-resident keys are real, servable data (via RPC fallback) and
  // must be visible to cohort scans, or repairers would "restore" them
  // forever.
  ForEachRecord(
      [&](const Resident& r) {
        if (PrimaryShard(r.hash, num_shards) != shard_filter) return;
        out.push_back(proto::RepairRecord{r.hash, r.version, false});
      },
      [&](const Hash128& hash, const Tombstone& tomb) {
        if (PrimaryShard(hash, num_shards) != shard_filter) return;
        out.push_back(proto::RepairRecord{hash, tomb.version, true});
      });
  return out;
}

VersionNumber Backend::NewRepairVersion() {
  // Backends nominate versions like clients do, with a reserved id space.
  return VersionNumber{truetime_.NowMicros(host_),
                       0x80000000u | host_, ++repair_seq_};
}

sim::Task<void> Backend::RepairScanOnce(bool all_shards) {
  // A draining (retiring) backend must not push its state back into the
  // cell: its shard index may be stale or out of range under the new
  // topology, and repair Sets carry no generation fence.
  if (!serving_ || draining_ || config_service_ == nullptr) co_return;
  ++stats_.repair_scans;
  const CellView view = config_service_->view();
  const uint32_t n = view.num_shards();
  const int replicas = ReplicaCount(view.mode);
  if (replicas < 2 || n == 0) co_return;

  // This backend holds copies for shards s where some replica of s lands
  // here: s = shard_ - r (mod n) for r in [0, replicas). Periodic scans
  // (all_shards=false) repair only the shard this backend is primary for;
  // recovery scans repair everything resident here.
  const int scan_replicas = all_shards ? replicas : 1;
  for (int r = 0; r < scan_replicas; ++r) {
    const uint32_t s = (shard_ + n - static_cast<uint32_t>(r)) % n;
    std::vector<net::HostId> cohort;
    for (int i = 0; i < replicas; ++i) {
      const net::HostId h = view.shard_hosts[ReplicaShard(s, i, n)];
      if (h != host_) cohort.push_back(h);
    }
    if (!cohort.empty()) co_await RepairShardAgainstCohort(s, cohort);
    if (!serving_) co_return;
  }
}

sim::Task<void> Backend::RepairShardAgainstCohort(
    uint32_t shard, std::vector<net::HostId> cohort) {
  const CellView view = config_service_->view();
  const uint32_t n = view.num_shards();

  // hash -> per-holder observation; index 0 = self, 1.. = cohort. Rows
  // are repaired in ascending hash order.
  std::map<Hash128, std::vector<Observation_>> table;
  const size_t holders = 1 + cohort.size();
  auto observe = [&](size_t holder, const proto::RepairRecord& rec) {
    auto& row = table[rec.keyhash];
    if (row.empty()) row.resize(holders);
    row[holder] = Observation_{rec.version, rec.erased, true};
  };

  // A peer that doesn't answer the pull is *unreachable*, not *empty*:
  // it must neither count as missing data nor receive repairs — otherwise
  // every scan during an outage re-versions the healthy replicas (§5.4
  // repairs react to observed dirty quorums, not to downtime).
  std::vector<bool> responded(holders, false);
  responded[0] = true;
  for (const auto& rec : SnapshotRecords(shard, n)) observe(0, rec);
  for (size_t i = 0; i < cohort.size(); ++i) {
    rpc::WireWriter w;
    w.PutU32(proto::kTagFlags, shard);
    w.PutU32(proto::kTagRecordCount, n);
    rpc::RpcChannel ch(rpc_network_, host_, cohort[i]);
    ++stats_.repair_pulls_sent;
    auto resp = co_await ch.Call(proto::kMethodRepairPull,
                                 std::move(w).Take(), sim::Seconds(1));
    if (!resp.ok()) {
      ++stats_.repair_pull_failures;
      continue;  // peer unreachable
    }
    rpc::WireReader rr(*resp);
    auto blob = rr.GetBytes(proto::kTagRecords);
    if (!blob) continue;
    responded[i + 1] = true;
    for (const auto& rec : proto::ParseRepairRecords(*blob)) {
      observe(i + 1, rec);
    }
  }
  if (!serving_) co_return;

  for (auto& [hash, row] : table) {
    if (row.empty()) continue;
    row.resize(holders);
    // Mark unreachable holders so the repair step skips them too.
    for (size_t i = 0; i < holders; ++i) {
      if (!responded[i]) row[i].unreachable = true;
    }
    // Clean iff every *responding* holder has the same live version, or
    // they all agree on absence/erasure.
    bool all_same_live = true;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!responded[i]) continue;
      if (!row[i].present || row[i].erased || !row[0].present ||
          row[0].erased || row[i].version != row[0].version) {
        all_same_live = false;
        break;
      }
    }
    if (all_same_live) continue;

    // Authoritative state = the maximum version observed among responders.
    Observation_ best;
    size_t best_holder = 0;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!responded[i]) continue;
      if (row[i].present && row[i].version > best.version) {
        best = row[i];
        best_holder = i;
      }
    }
    if (!best.present) continue;

    bool anyone_dirty = false;
    for (size_t i = 0; i < row.size(); ++i) {
      if (!responded[i]) continue;
      const auto& o = row[i];
      if (o.present && !o.erased && o.version == best.version) continue;
      if (best.erased && (!o.present || o.erased)) continue;  // absence ok
      anyone_dirty = true;
    }
    if (!anyone_dirty) continue;

    co_await RepairKey(shard, hash, row, best, best_holder, cohort);
    if (!serving_) co_return;
  }
}

namespace {

// The keyhash that opens repair's GetByHash and BumpVersion requests.
rpc::WireWriter KeyhashRequest(const Hash128& hash) {
  rpc::WireWriter w;
  w.PutU64(proto::kTagHashHi, hash.hi);
  w.PutU64(proto::kTagHashLo, hash.lo);
  return w;
}

}  // namespace

sim::Task<std::optional<proto::BulkRecord>> Backend::FetchRecord(
    net::HostId holder, Hash128 hash) {
  if (holder == host_) {
    const auto r = FindResident(hash);
    if (!r) co_return std::nullopt;
    Bytes raw;
    auto view = ReadRecord(*r, raw);  // view aliases `raw`
    if (!view.ok()) co_return std::nullopt;
    co_return proto::BulkRecord{std::string(view->key),
                                Bytes(view->value.begin(), view->value.end()),
                                view->version};
  }
  rpc::RpcChannel ch(rpc_network_, host_, holder);
  auto got = co_await ch.Call(proto::kMethodGetByHash,
                              KeyhashRequest(hash).Take(), sim::Seconds(1));
  if (!got.ok()) co_return std::nullopt;
  rpc::WireReader rr(*got);
  auto k = rr.GetBytes(proto::kTagKey);
  auto hit = proto::GetHit(rr);
  if (!k || !hit) co_return std::nullopt;
  co_return proto::BulkRecord{
      ToString(*k), Bytes(hit->value.begin(), hit->value.end()), hit->version};
}

sim::Task<void> Backend::RepairKey(uint32_t shard, Hash128 hash,
                                   std::vector<Observation_> row,
                                   Observation_ best, size_t best_holder,
                                   std::vector<net::HostId> cohort) {
  (void)shard;
  ++stats_.repairs_issued;
  const VersionNumber fresh = NewRepairVersion();
  auto holder = [&](size_t i) { return i == 0 ? host_ : cohort[i - 1]; };

  if (best.erased) {
    // Propagate the erase to holders of stale live values.
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].unreachable) continue;
      if (!row[i].present || row[i].erased) continue;
      // Need the key string: fetch it from the stale holder.
      auto held = co_await FetchRecord(holder(i), hash);
      if (!held) continue;
      if (i == 0) {
        (void)co_await ApplyErase(held->key, fresh);
        continue;
      }
      rpc::WireWriter er;
      er.PutBytes(proto::kTagKey, AsByteSpan(held->key));
      proto::PutVersion(er, fresh);
      rpc::RpcChannel ch(rpc_network_, host_, holder(i));
      (void)co_await ch.Call(proto::kMethodErase, std::move(er).Take(),
                             sim::Seconds(1));
    }
    co_return;
  }

  // Distinguish two live cases:
  //  * pure-missing: every reachable holder either has best.version or is
  //    simply absent (a restarted/emptied replica). Install at the agreed
  //    version — no re-versioning, so concurrent GETs stay quorate. This
  //    is the restart-recovery path ("restarted backends request repairs
  //    from the other two healthy backends", §5.4).
  //  * genuine disagreement (stale live versions): the full fresh-version
  //    dance — install at new version N on dirty holders and bump clean
  //    holders so all replicas settle on N.
  bool pure_missing = true;
  for (const auto& o : row) {
    if (o.unreachable) continue;
    if (o.present && (o.erased || o.version != best.version)) {
      pure_missing = false;
      break;
    }
  }

  // Live repair: source the value from a max-version holder, then install
  // it on dirty holders and bump the version on clean ones so all three
  // settle on one version (§5.4).
  auto src = co_await FetchRecord(holder(best_holder), hash);
  if (!src) co_return;
  const VersionNumber install_at = pure_missing ? best.version : fresh;
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].unreachable) continue;
    const bool has_best =
        row[i].present && !row[i].erased && row[i].version == best.version;
    if (has_best && pure_missing) continue;  // already at the agreed version
    if (i == 0) {
      if (!has_best) {
        (void)co_await ApplySet(src->key, src->value, install_at, false);
      } else if (const auto r = FindResident(hash);
                 r && r->version == best.version) {
        (void)BumpResident(*r, fresh);
      }
      continue;
    }
    rpc::RpcChannel ch(rpc_network_, host_, holder(i));
    if (has_best) {
      rpc::WireWriter bump = KeyhashRequest(hash);
      proto::PutVersion(bump, best.version, proto::kTagExpectedTt);
      proto::PutVersion(bump, fresh);
      (void)co_await ch.Call(proto::kMethodBumpVersion, std::move(bump).Take(),
                             sim::Seconds(1));
    } else {
      rpc::WireWriter set;
      set.PutBytes(proto::kTagKey, AsByteSpan(src->key));
      set.PutBytes(proto::kTagValue, src->value);
      proto::PutVersion(set, install_at);
      (void)co_await ch.Call(proto::kMethodSet, std::move(set).Take(),
                             sim::Seconds(1));
    }
  }
}

void Backend::StartRepairLoop(sim::Duration interval) {
  repair_interval_ = interval;
  if (repair_loop_running_) return;
  repair_loop_running_ = true;
  // The loop survives Stop()/Start() cycles (maintenance restarts must not
  // silently retire a shard's designated repairer); it simply skips scans
  // while the backend is not serving.
  sim_.Spawn([](Backend* b, std::shared_ptr<bool> alive) -> sim::Task<void> {
    while (*alive && b->repair_loop_running_) {
      co_await b->sim_.Delay(b->repair_interval_);
      if (!*alive || !b->repair_loop_running_) co_return;
      if (!b->serving_) continue;
      co_await b->RepairScanOnce();
    }
  }(this, alive_));
}

void Backend::StopRepairLoop() { repair_loop_running_ = false; }

// ---------------------------------------------------------------------------
// Migration (§6.1)
// ---------------------------------------------------------------------------

sim::Task<Status> Backend::MigrateTo(net::HostId target_host) {
  if (!serving_) co_return FailedPreconditionError("backend not serving");
  rpc::RpcChannel ch(rpc_network_, host_, target_host);

  Bytes batch;
  // Sends the batch once it holds at least `min_bytes`.
  auto flush = [&](size_t min_bytes) -> sim::Task<Status> {
    if (batch.empty() || batch.size() < min_bytes) co_return OkStatus();
    rpc::WireWriter w;
    w.PutBytes(proto::kTagRecords, batch);
    batch.clear();
    auto resp = co_await ch.Call(proto::kMethodInstallBulk,
                                 std::move(w).Take(), kBulkInstallTimeout);
    co_return resp.status();
  };

  // List the residents first (the tables may mutate while we stream), but
  // read each record at stream time so values written meanwhile go out at
  // their latest version.
  struct Item {
    Hash128 hash;
    std::string key;  // overflow residents only
  };
  std::vector<Item> residents;
  residents.reserve(live_entries());
  ForEachRecord(
      [&](const Resident& r) {
        residents.push_back({r.hash, r.slot ? std::string() : r.ov->first});
      },
      [](const Hash128&, const Tombstone&) {});
  for (const Item& item : residents) {
    const auto r = FindResident(item.hash, item.key);
    if (!r) continue;
    Bytes raw;
    auto view = ReadRecord(*r, raw);  // view aliases `raw`
    if (!view.ok()) continue;
    proto::AppendBulkRecord(batch, view->key, view->value, view->version);
    if (Status s = co_await flush(kBulkBatchBytes); !s.ok()) co_return s;
  }
  // Exact keyed tombstones follow, listed only now so that an erase acked
  // while a resident batch was in flight still reaches the target: they can
  // evict a stale record already present there, which a summary cannot.
  std::vector<Hash128> erased;
  for (const auto& [hash, tomb] : tombstones_.entries()) {
    if (!tomb.key.empty()) erased.push_back(hash);
  }
  for (const Hash128& hash : erased) {
    const auto it = tombstones_.entries().find(hash);
    if (it == tombstones_.entries().end() || it->second.key.empty()) continue;
    proto::AppendBulkRecord(batch, it->second.key, {}, it->second.version,
                            true);
    if (Status s = co_await flush(kBulkBatchBytes); !s.ok()) co_return s;
  }
  // Tombstone summary (keyless tombstones; the summary bounds them).
  proto::AppendBulkRecord(batch, "", {}, tombstones_.WorstCaseSummary(), true);
  co_return co_await flush(0);
}

// ---------------------------------------------------------------------------
// Resharding support
// ---------------------------------------------------------------------------

std::vector<proto::BulkRecord> Backend::SnapshotBulk() const {
  std::vector<proto::BulkRecord> out;
  out.reserve(live_entries() + tombstones_.size());
  // Keyed tombstones travel as erased records so racing deletes cannot be
  // resurrected by a concurrent stream from another source. Keyless
  // tombstones are deliberately NOT summarized here: resharding streams are
  // placement-filtered, and a worst-case summary would fence unrelated keys.
  ForEachRecord(
      [&](const Resident& r) {
        Bytes raw;
        auto view = ReadRecord(r, raw);  // view aliases `raw`
        if (!view.ok()) return;
        out.push_back({std::string(view->key),
                       Bytes(view->value.begin(), view->value.end()),
                       view->version});
      },
      [&](const Hash128&, const Tombstone& tomb) {
        if (tomb.key.empty()) return;
        out.push_back({tomb.key, {}, tomb.version, /*erased=*/true});
      });
  return out;
}

size_t Backend::DropNonOwned(const CellView& view) {
  const uint32_t n = view.num_shards();
  if (n == 0) return 0;
  const int replicas = ReplicaCount(view.mode);
  auto owned = [&](const Hash128& hash) {
    const uint32_t primary = PrimaryShard(hash, n);
    for (int r = 0; r < replicas; ++r) {
      if (ReplicaShard(primary, r, n) == shard_) return true;
    }
    return false;
  };

  // Removing one resident leaves the others' handles valid.
  std::vector<Resident> victims;
  ForEachRecord(
      [&](const Resident& r) {
        if (!owned(r.hash)) victims.push_back(r);
      },
      [](const Hash128&, const Tombstone&) {});
  for (const Resident& r : victims) RemoveResident(r);
  stats_.entries_dropped += static_cast<int64_t>(victims.size());
  return victims.size();
}

uint64_t Backend::index_bytes() const { return index_ ? index_->size() : 0; }

ByteSpan Backend::IndexBytes() const {
  return index_ ? index_->cspan() : ByteSpan{};
}

std::optional<VersionNumber> Backend::LookupVersion(
    std::string_view key) const {
  const auto r = FindResident(config_.hash_fn(key), key);
  if (!r) return std::nullopt;
  return r->version;
}

}  // namespace cm::cliquemap
