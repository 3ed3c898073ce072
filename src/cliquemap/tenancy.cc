#include "cliquemap/tenancy.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "rpc/wire.h"

namespace cm::cliquemap {
namespace {

// Registry blob tag space (nested inside proto::kTagTenantRegistry).
constexpr uint16_t kRegVersion = 1;
constexpr uint16_t kRegTenant = 2;  // repeated; one record blob per tenant

// Per-tenant record tags.
constexpr uint16_t kRecId = 1;
constexpr uint16_t kRecName = 2;
constexpr uint16_t kRecPriority = 3;
constexpr uint16_t kRecWeight = 4;     // f64 bit pattern
constexpr uint16_t kRecRpcOps = 5;     // f64 bit pattern
constexpr uint16_t kRecRpcBytes = 6;   // f64 bit pattern
constexpr uint16_t kRecRmaReads = 7;   // f64 bit pattern
constexpr uint16_t kRecRmaBytes = 8;   // f64 bit pattern
constexpr uint16_t kRecMemory = 9;

uint64_t PackF64(double v) { return std::bit_cast<uint64_t>(v); }
double UnpackF64(uint64_t v) { return std::bit_cast<double>(v); }

}  // namespace

// ---------------------------------------------------------------------------
// TenantRegistry
// ---------------------------------------------------------------------------

void TenantRegistry::Upsert(TenantSpec spec) {
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), spec.id,
      [](const TenantSpec& s, TenantId id) { return s.id < id; });
  if (it != specs_.end() && it->id == spec.id) {
    *it = std::move(spec);
  } else {
    specs_.insert(it, std::move(spec));
  }
  ++version_;
}

const TenantSpec* TenantRegistry::Find(TenantId id) const {
  auto it = std::lower_bound(
      specs_.begin(), specs_.end(), id,
      [](const TenantSpec& s, TenantId want) { return s.id < want; });
  if (it == specs_.end() || it->id != id) return nullptr;
  return &*it;
}

Bytes EncodeTenantRegistry(const TenantRegistry& reg) {
  rpc::WireWriter w;
  w.PutU32(kRegVersion, reg.version());
  for (const TenantSpec& t : reg.specs()) {
    rpc::WireWriter rec;
    rec.PutU32(kRecId, t.id);
    rec.PutString(kRecName, t.name);
    rec.PutU32(kRecPriority, uint32_t(t.priority));
    rec.PutU64(kRecWeight, PackF64(t.wfq_weight));
    rec.PutU64(kRecRpcOps, PackF64(t.rpc_ops_per_sec));
    rec.PutU64(kRecRpcBytes, PackF64(t.rpc_bytes_per_sec));
    rec.PutU64(kRecRmaReads, PackF64(t.rma_reads_per_sec));
    rec.PutU64(kRecRmaBytes, PackF64(t.rma_bytes_per_sec));
    rec.PutU64(kRecMemory, t.memory_bytes);
    const Bytes encoded = std::move(rec).Take();
    w.PutBytes(kRegTenant, encoded);
  }
  return std::move(w).Take();
}

StatusOr<TenantRegistry> DecodeTenantRegistry(ByteSpan bytes) {
  rpc::WireReader r(bytes);
  auto version = r.GetU32(kRegVersion);
  if (!version) return InvalidArgumentError("tenant registry: no version");
  TenantRegistry reg;
  for (size_t i = 0;; ++i) {
    auto blob = r.GetBytesAt(kRegTenant, i);
    if (!blob) break;
    rpc::WireReader rec(*blob);
    auto id = rec.GetU32(kRecId);
    if (!id) return InvalidArgumentError("tenant record: no id");
    TenantSpec spec;
    spec.id = *id;
    spec.name = rec.GetString(kRecName).value_or("");
    spec.priority = PriorityClass(
        uint8_t(rec.GetU32(kRecPriority).value_or(
            uint32_t(PriorityClass::kStandard))));
    spec.wfq_weight = UnpackF64(rec.GetU64(kRecWeight).value_or(PackF64(1.0)));
    spec.rpc_ops_per_sec = UnpackF64(rec.GetU64(kRecRpcOps).value_or(0));
    spec.rpc_bytes_per_sec = UnpackF64(rec.GetU64(kRecRpcBytes).value_or(0));
    spec.rma_reads_per_sec = UnpackF64(rec.GetU64(kRecRmaReads).value_or(0));
    spec.rma_bytes_per_sec = UnpackF64(rec.GetU64(kRecRmaBytes).value_or(0));
    spec.memory_bytes = rec.GetU64(kRecMemory).value_or(0);
    reg.Upsert(std::move(spec));
  }
  reg.set_version(*version);
  return reg;
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_ns_(rate_per_sec / 1e9), burst_(burst), tokens_(burst) {}

void TokenBucket::Refill(sim::Time now) {
  if (now <= last_) return;
  tokens_ = std::min(burst_, tokens_ + rate_per_ns_ * double(now - last_));
  last_ = now;
}

bool TokenBucket::TryAcquire(sim::Time now, double cost) {
  if (unlimited()) return true;
  Refill(now);
  if (tokens_ + 1e-9 < cost) return false;
  tokens_ -= cost;
  return true;
}

void TokenBucket::Debit(sim::Time now, double cost) {
  if (unlimited()) return;
  Refill(now);
  tokens_ -= cost;
}

double TokenBucket::available(sim::Time now) {
  if (unlimited()) return 1e308;
  Refill(now);
  return tokens_;
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

AdmissionQueue::AdmissionQueue(sim::Simulator& sim,
                               metrics::Registry* registry,
                               metrics::Labels base_labels, Options opts)
    : sim_(sim),
      opts_(opts),
      base_labels_(std::move(base_labels)),
      exports_(registry) {}

AdmissionQueue::PerTenant& AdmissionQueue::Slot(TenantId id) {
  for (auto& t : tenants_) {
    if (t->spec.id == id) return *t;
  }
  // Unknown tenants (including the untenanted default) get an unlimited
  // standard-priority slot so accounting still works.
  auto slot = std::make_unique<PerTenant>();
  slot->spec.id = id;
  PerTenant& ref = *slot;
  auto at = std::lower_bound(
      tenants_.begin(), tenants_.end(), id,
      [](const std::unique_ptr<PerTenant>& t, TenantId want) {
        return t->spec.id < want;
      });
  tenants_.insert(at, std::move(slot));
  ExportTenant(ref);
  return ref;
}

const AdmissionQueue::PerTenant* AdmissionQueue::FindSlot(TenantId id) const {
  for (const auto& t : tenants_) {
    if (t->spec.id == id) return t.get();
  }
  return nullptr;
}

void AdmissionQueue::ExportTenant(PerTenant& t) {
  if (!exports_.registry()) return;
  metrics::Labels l = base_labels_;
  l.emplace_back("tenant", t.spec.name.empty() ? std::to_string(t.spec.id)
                                               : t.spec.name);
  metrics::ExportCounters(exports_, "cm.tenant.", l, t.stats);
}

void AdmissionQueue::Configure(const TenantRegistry& reg) {
  for (const TenantSpec& spec : reg.specs()) {
    PerTenant& t = Slot(spec.id);
    const bool renamed = t.spec.name != spec.name;
    t.spec = spec;
    // Burst: a quarter-second of quota (min 4 ops) absorbs open-loop
    // arrival clumping without letting sustained overage through.
    t.ops = spec.rpc_ops_per_sec > 0
                ? TokenBucket(spec.rpc_ops_per_sec,
                              std::max(4.0, spec.rpc_ops_per_sec * 0.25))
                : TokenBucket();
    t.bytes = spec.rpc_bytes_per_sec > 0
                  ? TokenBucket(spec.rpc_bytes_per_sec,
                                std::max(4096.0, spec.rpc_bytes_per_sec * 0.25))
                  : TokenBucket();
    if (renamed) ExportTenant(t);  // label value follows the display name
  }
}

sim::Task<Status> AdmissionQueue::Admit(TenantId id, uint64_t bytes) {
  PerTenant& t = Slot(id);
  const sim::Time now = sim_.now();
  // Quota shedding is unconditional — it applies even on an idle backend.
  if (!t.ops.TryAcquire(now, 1.0) ||
      !t.bytes.TryAcquire(now, double(bytes))) {
    ++t.stats.shed;
    ++total_shed_;
    co_return ResourceExhaustedError("tenant rpc quota exceeded");
  }
  t.stats.rpc_bytes += int64_t(bytes);
  const double cost = Cost(bytes) / std::max(t.spec.wfq_weight, 1e-9);
  const double start = std::max(vtime_, t.last_finish);
  const double vft = start + cost;

  if (in_flight_ < opts_.max_concurrency && queue_.empty()) {
    t.last_finish = vft;
    vtime_ = std::max(vtime_, vft);
    ++in_flight_;
    ++t.stats.admitted;
    ++total_admitted_;
    co_return OkStatus();
  }

  // Overload: all slots busy. Queue under WFQ; when the queue is full the
  // weakest waiter is pushed out — lower priority first, then (within the
  // arrival's own priority class) the largest virtual finish time. Pure
  // priority-only displacement would let a full queue erase the weight
  // differential: heavy and light arrivals would shed at equal rates and
  // dispatch shares would collapse toward 50/50 no matter the weights.
  // vft pushout keeps queue occupancy itself weighted-fair. If the arrival
  // is no stronger than the weakest waiter, the arrival sheds instead —
  // never silently.
  if (queue_.size() >= opts_.max_queue) {
    size_t weakest = queue_.size();
    for (size_t i = 0; i < queue_.size(); ++i) {
      if (weakest == queue_.size() ||
          queue_[i].priority < queue_[weakest].priority ||
          (queue_[i].priority == queue_[weakest].priority &&
           queue_[i].vft > queue_[weakest].vft)) {
        weakest = i;
      }
    }
    const bool displace =
        weakest < queue_.size() &&
        (queue_[weakest].priority < uint8_t(t.spec.priority) ||
         (queue_[weakest].priority == uint8_t(t.spec.priority) &&
          queue_[weakest].vft > vft));
    if (displace) {
      ShedWaiter(weakest);
    } else {
      ++t.stats.shed;
      ++total_shed_;
      co_return ResourceExhaustedError("admission queue full");
    }
  }

  t.last_finish = vft;
  ++t.stats.queued;
  ++total_queued_;
  Waiter w{seq_++, id, start, vft, uint8_t(t.spec.priority),
           sim::OneShot<Status>(sim_)};
  sim::OneShot<Status> signal = w.signal;  // shared state with the queue copy
  queue_.push_back(std::move(w));
  Status s = co_await signal.Wait();
  co_return s;
}

void AdmissionQueue::ShedWaiter(size_t idx) {
  Waiter w = std::move(queue_[idx]);
  queue_.erase(queue_.begin() + ptrdiff_t(idx));
  PerTenant& t = Slot(w.tenant);
  // Roll the tenant's virtual clock back to the shed waiter's start: work
  // that never dispatched must not advance the clock, or a tenant under
  // sustained pushout inflates its own vfts and starves below its share.
  t.last_finish = std::min(t.last_finish, w.vst);
  ++t.stats.shed;
  ++total_shed_;
  w.signal.Set(ResourceExhaustedError("shed under overload"));
}

void AdmissionQueue::Dispatch() {
  while (in_flight_ < opts_.max_concurrency && !queue_.empty()) {
    size_t best = 0;
    for (size_t i = 1; i < queue_.size(); ++i) {
      if (queue_[i].vft < queue_[best].vft ||
          (queue_[i].vft == queue_[best].vft &&
           queue_[i].seq < queue_[best].seq)) {
        best = i;
      }
    }
    Waiter w = std::move(queue_[best]);
    queue_.erase(queue_.begin() + ptrdiff_t(best));
    vtime_ = std::max(vtime_, w.vft);
    ++in_flight_;
    PerTenant& t = Slot(w.tenant);
    ++t.stats.admitted;
    ++total_admitted_;
    w.signal.Set(OkStatus());
  }
}

void AdmissionQueue::Release() {
  if (in_flight_ > 0) --in_flight_;
  Dispatch();
}

void AdmissionQueue::AccountReadBytes(TenantId id, uint64_t index_bytes,
                                      uint64_t data_bytes) {
  PerTenant& t = Slot(id);
  t.stats.read_index_bytes += int64_t(index_bytes);
  t.stats.read_data_bytes += int64_t(data_bytes);
}

int64_t AdmissionQueue::admitted(TenantId id) const {
  const PerTenant* t = FindSlot(id);
  return t ? t->stats.admitted : 0;
}

int64_t AdmissionQueue::shed(TenantId id) const {
  const PerTenant* t = FindSlot(id);
  return t ? t->stats.shed : 0;
}

const TenantSpec* AdmissionQueue::spec(TenantId id) const {
  const PerTenant* t = FindSlot(id);
  return t ? &t->spec : nullptr;
}

// ---------------------------------------------------------------------------
// TenantMemoryLedger
// ---------------------------------------------------------------------------

void TenantMemoryLedger::Configure(const TenantRegistry& reg) {
  for (const TenantSpec& spec : reg.specs()) {
    tenants_[spec.id].quota = spec.memory_bytes;
  }
}

void TenantMemoryLedger::Charge(TenantId tenant, const Hash128& key,
                                uint64_t bytes) {
  // Tenantless writers (repair/migration streams) keep the current owner.
  if (tenant == kDefaultTenant) tenant = OwnerOf(key);
  Release(key);
  TenantState& ts = tenants_[tenant];
  ts.used += bytes;
  keys_[key] = KeyState{tenant, bytes, ts.keys.size()};
  ts.keys.push_back(key);
}

void TenantMemoryLedger::Release(const Hash128& key) {
  auto it = keys_.find(key);
  if (it == keys_.end()) return;
  const KeyState ks = it->second;
  keys_.erase(it);
  TenantState& ts = tenants_[ks.tenant];
  ts.used -= ks.bytes;
  ts.keys[ks.at] = ts.keys.back();
  ts.keys.pop_back();
  if (ks.at < ts.keys.size()) keys_[ts.keys[ks.at]].at = ks.at;
}

bool TenantMemoryLedger::OverQuota(TenantId tenant,
                                   uint64_t incoming_bytes) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.quota == 0) return false;
  return it->second.used + incoming_bytes > it->second.quota &&
         !it->second.keys.empty();
}

std::span<const Hash128> TenantMemoryLedger::keys(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return {};
  return it->second.keys;
}

uint64_t TenantMemoryLedger::used(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.used;
}

uint64_t TenantMemoryLedger::ResidentBytes(const Hash128& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? 0 : it->second.bytes;
}

TenantId TenantMemoryLedger::OwnerOf(const Hash128& key) const {
  auto it = keys_.find(key);
  return it == keys_.end() ? kDefaultTenant : it->second.tenant;
}

void TenantMemoryLedger::Clear() {
  keys_.clear();
  for (auto& [id, ts] : tenants_) {
    ts.used = 0;
    ts.keys.clear();
  }
}

}  // namespace cm::cliquemap
