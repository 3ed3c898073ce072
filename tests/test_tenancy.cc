// Multi-tenant QoS (DESIGN.md §12): registry distribution, token buckets,
// weighted-fair admission, priority shedding, per-tenant memory containment,
// and determinism with tenancy enabled.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>

#include "cliquemap/cell.h"
#include "cliquemap/proto.h"
#include "cliquemap/tenancy.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

TenantSpec MakeSpec(TenantId id, const std::string& name) {
  TenantSpec s;
  s.id = id;
  s.name = name;
  return s;
}

// ---------------------------------------------------------------------------
// Registry + wire format
// ---------------------------------------------------------------------------

TEST(TenantRegistry, UpsertKeepsSortedAndFinds) {
  TenantRegistry reg;
  reg.Upsert(MakeSpec(7, "seven"));
  reg.Upsert(MakeSpec(3, "three"));
  reg.Upsert(MakeSpec(5, "five"));
  ASSERT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.specs()[0].id, 3u);
  EXPECT_EQ(reg.specs()[1].id, 5u);
  EXPECT_EQ(reg.specs()[2].id, 7u);
  ASSERT_NE(reg.Find(5), nullptr);
  EXPECT_EQ(reg.Find(5)->name, "five");
  EXPECT_EQ(reg.Find(4), nullptr);

  // Upsert of an existing id replaces, not duplicates.
  TenantSpec update = MakeSpec(5, "five-v2");
  update.wfq_weight = 9.0;
  reg.Upsert(update);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.Find(5)->wfq_weight, 9.0);
}

TEST(TenantRegistry, EncodeDecodeRoundTrips) {
  TenantRegistry reg;
  TenantSpec a = MakeSpec(1, "ads");
  a.priority = PriorityClass::kCritical;
  a.wfq_weight = 3.5;
  a.rpc_ops_per_sec = 1000;
  a.rpc_bytes_per_sec = 1 << 20;
  a.rma_reads_per_sec = 50000;
  a.rma_bytes_per_sec = 8 << 20;
  a.memory_bytes = 64 << 20;
  TenantSpec b = MakeSpec(2, "geo=eu,west");  // hostile display name
  b.priority = PriorityClass::kBestEffort;
  reg.Upsert(a);
  reg.Upsert(b);

  auto decoded = DecodeTenantRegistry(EncodeTenantRegistry(reg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->version(), reg.version());
  ASSERT_EQ(decoded->size(), 2u);
  const TenantSpec* da = decoded->Find(1);
  ASSERT_NE(da, nullptr);
  EXPECT_EQ(da->name, "ads");
  EXPECT_EQ(da->priority, PriorityClass::kCritical);
  EXPECT_EQ(da->wfq_weight, 3.5);
  EXPECT_EQ(da->rpc_ops_per_sec, 1000);
  EXPECT_EQ(da->rma_bytes_per_sec, double(8 << 20));
  EXPECT_EQ(da->memory_bytes, uint64_t{64} << 20);
  const TenantSpec* db = decoded->Find(2);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->name, "geo=eu,west");
  EXPECT_EQ(db->priority, PriorityClass::kBestEffort);

  EXPECT_FALSE(DecodeTenantRegistry(Bytes{}).ok());
}

// ---------------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------------

TEST(TokenBucket, EnforcesRateAndBurst) {
  TokenBucket b(/*rate_per_sec=*/10, /*burst=*/4);
  // The burst admits 4 ops back-to-back; the 5th is rejected.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(b.TryAcquire(0, 1.0));
  EXPECT_FALSE(b.TryAcquire(0, 1.0));
  // 100ms at 10/s refills exactly one token.
  EXPECT_TRUE(b.TryAcquire(sim::Milliseconds(100), 1.0));
  EXPECT_FALSE(b.TryAcquire(sim::Milliseconds(100), 1.0));
  // Refill caps at burst, not unbounded accumulation.
  EXPECT_NEAR(b.available(sim::Seconds(100)), 4.0, 1e-9);

  TokenBucket unlimited;
  EXPECT_TRUE(unlimited.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(unlimited.TryAcquire(0, 1e9));
}

TEST(TokenBucket, DebitGoesNegativeAndBlocksUntilRefilled) {
  TokenBucket b(/*rate_per_sec=*/1000, /*burst=*/1000);
  // Post-paid charge (read bytes known only after the read).
  b.Debit(0, 2000.0);
  EXPECT_LT(b.available(0), 0.0);
  EXPECT_FALSE(b.TryAcquire(0, 1.0));
  // One second later the debt is paid off and ops flow again.
  EXPECT_GT(b.available(sim::Seconds(2)), 0.0);
  EXPECT_TRUE(b.TryAcquire(sim::Seconds(2), 1.0));
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

TEST(AdmissionQueue, QuotaShedsEvenWhenIdle) {
  sim::Simulator sim;
  AdmissionQueue q(sim, nullptr, {}, {});
  TenantRegistry reg;
  TenantSpec s = MakeSpec(1, "capped");
  s.rpc_ops_per_sec = 4;  // burst = max(4, 1) = 4
  reg.Upsert(s);
  q.Configure(reg);

  int ok = 0, shed = 0;
  for (int i = 0; i < 6; ++i) {
    Status st = RunOp(sim, q.Admit(1, 0));
    if (st.ok()) {
      ++ok;
      q.Release();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(shed, 2);
  EXPECT_EQ(q.shed(1), 2);
  EXPECT_EQ(q.admitted(1), 4);

  // Unknown tenants (and the untenanted default) are never quota-shed.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(RunOp(sim, q.Admit(kDefaultTenant, 0)).ok());
    q.Release();
  }
}

// Floods the queue from two tenants and records the dispatch order.
TEST(AdmissionQueue, WfqSharesTrackWeights) {
  sim::Simulator sim;
  AdmissionQueue::Options opts;
  opts.max_concurrency = 1;
  opts.max_queue = 512;
  AdmissionQueue q(sim, nullptr, {}, opts);
  TenantRegistry reg;
  TenantSpec heavy = MakeSpec(1, "heavy");
  heavy.wfq_weight = 3.0;
  TenantSpec light = MakeSpec(2, "light");
  light.wfq_weight = 1.0;
  reg.Upsert(heavy);
  reg.Upsert(light);
  q.Configure(reg);

  auto order = std::make_shared<std::vector<TenantId>>();
  auto op = [](AdmissionQueue* q, sim::Simulator* sim, TenantId id,
               std::shared_ptr<std::vector<TenantId>> order)
      -> sim::Task<void> {
    Status s = co_await q->Admit(id, 0);
    if (s.ok()) {
      co_await sim->Delay(sim::Milliseconds(1));  // hold the dispatch slot
      order->push_back(id);
      q->Release();
    }
  };
  // Interleave arrivals so neither tenant wins ties by arrival order alone.
  for (int i = 0; i < 120; ++i) {
    sim.Spawn(op(&q, &sim, 1, order));
    sim.Spawn(op(&q, &sim, 2, order));
  }
  sim.Run();

  ASSERT_EQ(order->size(), 240u);
  // Within any window after the first dispatch, shares track weights 3:1.
  int heavy_first_80 = 0;
  for (size_t i = 0; i < 80; ++i) {
    if ((*order)[i] == 1) ++heavy_first_80;
  }
  EXPECT_NEAR(double(heavy_first_80) / 80.0, 0.75, 0.1);
  EXPECT_EQ(q.admitted(1), 120);
  EXPECT_EQ(q.admitted(2), 120);
  EXPECT_EQ(q.total_shed(), 0);
}

TEST(AdmissionQueue, PrioritySheddingOrderUnderOverload) {
  sim::Simulator sim;
  AdmissionQueue::Options opts;
  opts.max_concurrency = 1;
  opts.max_queue = 2;
  AdmissionQueue q(sim, nullptr, {}, opts);
  TenantRegistry reg;
  TenantSpec crit = MakeSpec(1, "crit");
  crit.priority = PriorityClass::kCritical;
  TenantSpec be = MakeSpec(2, "be");
  be.priority = PriorityClass::kBestEffort;
  reg.Upsert(crit);
  reg.Upsert(be);
  q.Configure(reg);

  struct Outcome {
    int ok = 0;
    int shed = 0;
  };
  auto crit_out = std::make_shared<Outcome>();
  auto be_out = std::make_shared<Outcome>();
  auto op = [](AdmissionQueue* q, sim::Simulator* sim, TenantId id,
               std::shared_ptr<Outcome> out) -> sim::Task<void> {
    Status s = co_await q->Admit(id, 0);
    if (s.ok()) {
      ++out->ok;
      co_await sim->Delay(sim::Milliseconds(1));
      q->Release();
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++out->shed;
    }
  };

  sim.Spawn([](AdmissionQueue* q, sim::Simulator* sim, decltype(op) op,
               std::shared_ptr<Outcome> crit_out,
               std::shared_ptr<Outcome> be_out) -> sim::Task<void> {
    // Occupy the single dispatch slot, then fill the queue with best-effort
    // waiters.
    sim->Spawn(op(q, sim, 1, crit_out));
    co_await sim->Delay(sim::Microseconds(1));
    sim->Spawn(op(q, sim, 2, be_out));
    sim->Spawn(op(q, sim, 2, be_out));
    co_await sim->Delay(sim::Microseconds(1));
    EXPECT_EQ(q->queue_depth(), 2u);
    // A critical arrival on a full queue evicts a queued best-effort waiter
    // rather than shedding itself.
    sim->Spawn(op(q, sim, 1, crit_out));
    co_await sim->Delay(sim::Microseconds(1));
    EXPECT_EQ(be_out->shed, 1);
    // A best-effort arrival cannot displace an equal-or-higher-priority
    // queue: the arrival itself sheds.
    sim->Spawn(op(q, sim, 2, be_out));
    co_await sim->Delay(sim::Microseconds(1));
    EXPECT_EQ(be_out->shed, 2);
  }(&q, &sim, op, crit_out, be_out));
  sim.Run();

  // Everything still queued eventually dispatched; no critical op shed.
  EXPECT_EQ(crit_out->shed, 0);
  EXPECT_EQ(crit_out->ok, 2);
  EXPECT_EQ(be_out->ok, 1);
  EXPECT_EQ(q.shed(1), 0);
  EXPECT_EQ(q.shed(2), 2);
}

// ---------------------------------------------------------------------------
// TenantMemoryLedger
// ---------------------------------------------------------------------------

TEST(TenantMemoryLedger, ChargesReleasesAndMovesOwnership) {
  TenantMemoryLedger ledger;
  TenantRegistry reg;
  TenantSpec s = MakeSpec(1, "small");
  s.memory_bytes = 1000;
  reg.Upsert(s);
  ledger.Configure(reg);

  Hash128 k1{1, 1}, k2{2, 2}, k3{3, 3};
  ledger.Charge(1, k1, 400);
  ledger.Charge(1, k2, 400);
  EXPECT_EQ(ledger.used(1), 800u);
  EXPECT_FALSE(ledger.OverQuota(1, 100));
  EXPECT_TRUE(ledger.OverQuota(1, 400));
  EXPECT_EQ(ledger.keys(1).size(), 2u);

  // Re-charge replaces the size (overwrite), never double-counts.
  ledger.Charge(1, k1, 100);
  EXPECT_EQ(ledger.used(1), 500u);
  EXPECT_EQ(ledger.ResidentBytes(k1), 100u);
  EXPECT_EQ(ledger.keys(1).size(), 2u);

  // A tenantless re-charge (repair stream) keeps the current owner.
  ledger.Charge(kDefaultTenant, k1, 150);
  EXPECT_EQ(ledger.OwnerOf(k1), 1u);
  EXPECT_EQ(ledger.used(1), 550u);

  // An explicit different tenant takes the key over, moving the bytes.
  ledger.Charge(2, k2, 300);
  EXPECT_EQ(ledger.OwnerOf(k2), 2u);
  EXPECT_EQ(ledger.used(1), 150u);
  EXPECT_EQ(ledger.used(2), 300u);
  ASSERT_EQ(ledger.keys(1).size(), 1u);
  EXPECT_EQ(ledger.keys(1)[0], k1);
  ASSERT_EQ(ledger.keys(2).size(), 1u);
  EXPECT_EQ(ledger.keys(2)[0], k2);

  ledger.Release(k1);
  EXPECT_EQ(ledger.used(1), 0u);
  EXPECT_TRUE(ledger.keys(1).empty());
  EXPECT_EQ(ledger.tracked(), 1u);
  // A tenant with nothing resident has nothing to evict: never over.
  EXPECT_FALSE(ledger.OverQuota(1, 1 << 20));
  // Unknown tenants have no quota: never over.
  ledger.Charge(3, k3, 1 << 30);
  EXPECT_FALSE(ledger.OverQuota(3, 1 << 30));
}

// ---------------------------------------------------------------------------
// End-to-end: cells with tenancy enabled
// ---------------------------------------------------------------------------

CellOptions TenantCell(uint32_t num_shards, ReplicationMode mode) {
  CellOptions o;
  o.num_shards = num_shards;
  o.mode = mode;
  o.backend.initial_buckets = 64;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  return o;
}

TEST(TenancyCell, RpcQuotaShedsSetsLoudly) {
  sim::Simulator sim;
  CellOptions o = TenantCell(1, ReplicationMode::kR1);
  TenantSpec capped = MakeSpec(1, "capped");
  capped.rpc_ops_per_sec = 8;  // burst 4
  o.tenants.Upsert(capped);
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.tenant = 1;
  cc.max_retries = 0;  // surface the shed instead of retrying past it
  Client* client = cell.AddClient(cc);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  int ok = 0, shed = 0;
  for (int i = 0; i < 20; ++i) {
    Status s = RunOp(sim, client->Set("k/" + std::to_string(i),
                                      ToBytes("value")));
    if (s.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
      ++shed;
    }
  }
  // The burst admits a few; the rest shed with RESOURCE_EXHAUSTED — never
  // silently dropped.
  EXPECT_GE(ok, 4);
  EXPECT_GE(shed, 10);
  EXPECT_GT(cell.AggregateBackendStats().tenant_sheds, 0);

  // The shed is visible per tenant display name in the metrics registry.
  auto snap = cell.metrics().TakeSnapshot();
  EXPECT_GT(snap.SumPrefix("cm.tenant.shed{"), 0);
  EXPECT_GT(snap.SumPrefix("cm.tenant.admitted{"), 0);
}

// Every admitted backend handler (Set, Erase, Cas, RPC Get, batched RPC
// MultiGet) sheds a tenant past its RPC quota with RESOURCE_EXHAUSTED,
// counts the shed, and releases every admitted slot once traffic drains.
TEST(TenancyCell, EveryAdmittedHandlerShedsOverQuotaAndReleases) {
  struct Case {
    const char* method;
    Bytes (*request)(int i);
  };
  static const Case kCases[] = {
      {proto::kMethodSet,
       [](int i) {
         rpc::WireWriter w;
         w.PutString(proto::kTagKey, "k");
         w.PutString(proto::kTagValue, "value");
         proto::PutVersion(w, VersionNumber{uint64_t(i) + 1, 1, 1});
         w.PutU32(proto::kTagTenant, 1);
         return std::move(w).Take();
       }},
      {proto::kMethodErase,
       [](int i) {
         rpc::WireWriter w;
         w.PutString(proto::kTagKey, "k");
         proto::PutVersion(w, VersionNumber{uint64_t(i) + 1, 1, 1});
         w.PutU32(proto::kTagTenant, 1);
         return std::move(w).Take();
       }},
      {proto::kMethodCas,
       [](int i) {
         rpc::WireWriter w;
         w.PutString(proto::kTagKey, "k");
         w.PutString(proto::kTagValue, "value");
         proto::PutVersion(w, VersionNumber{uint64_t(i) + 1, 1, 1});
         proto::PutVersion(w, VersionNumber{}, proto::kTagExpectedTt);
         w.PutU32(proto::kTagTenant, 1);
         return std::move(w).Take();
       }},
      {proto::kMethodGet, [](int) { return proto::GetRequest("k", 1); }},
      {proto::kMethodMultiGet,
       [](int) {
         const std::string_view keys[] = {"k", "other"};
         return proto::GetRequest(keys, 1);
       }},
  };
  constexpr int kCalls = 16;
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.method);
    sim::Simulator sim;
    CellOptions o = TenantCell(1, ReplicationMode::kR1);
    TenantSpec capped = MakeSpec(1, "capped");
    capped.rpc_ops_per_sec = 8;  // burst 4
    o.tenants.Upsert(capped);
    Cell cell(sim, std::move(o));
    cell.Start();
    Backend& backend = cell.backend(0);
    AdmissionQueue* q = backend.admission();
    ASSERT_NE(q, nullptr);

    // All calls in flight at once: the burst is admitted, the rest shed.
    const net::HostId from = cell.fabric().AddHost(cell.options().client_host);
    auto shed = std::make_shared<int>(0);
    auto served = std::make_shared<int>(0);
    for (int i = 0; i < kCalls; ++i) {
      sim.Spawn([](rpc::RpcNetwork* net, net::HostId from, net::HostId to,
                   const char* method, Bytes req, std::shared_ptr<int> shed,
                   std::shared_ptr<int> served) -> sim::Task<void> {
        rpc::RpcChannel ch(*net, from, to);
        auto resp = co_await ch.Call(method, std::move(req), sim::Seconds(1));
        if (resp.status().code() == StatusCode::kResourceExhausted) {
          EXPECT_EQ(resp.status().message(), "tenant rpc quota exceeded");
          ++*shed;
        } else {
          ++*served;
        }
      }(&cell.rpc_network(), from, backend.host(), c.method, c.request(i),
        shed, served));
    }
    sim.Run();

    EXPECT_EQ(*shed + *served, kCalls);
    EXPECT_EQ(*served, 4);
    EXPECT_EQ(q->admitted(1), *served);
    EXPECT_EQ(q->shed(1), *shed);
    EXPECT_EQ(backend.stats().tenant_sheds, *shed);
    EXPECT_EQ(q->in_flight(), 0);
    EXPECT_EQ(q->queue_depth(), 0u);
  }
}

// Sum of one per-tenant admission counter on one backend host.
int64_t TenantCounter(const metrics::Snapshot& snap, const std::string& name,
                      net::HostId host, const std::string& tenant) {
  int64_t sum = 0;
  for (const auto& [key, m] : snap.metrics) {
    if (key.starts_with(name + "{") &&
        key.find("host=" + std::to_string(host)) != std::string::npos &&
        key.find("tenant=" + tenant) != std::string::npos) {
      sum += m.value;
    }
  }
  return sum;
}

// Reads served by the previous owners inside a resharding window are
// attributed to the reader's tenant, like every other RPC read — not
// admitted and byte-accounted as the (never quota-shed) default tenant.
TEST(TenancyCell, PreviousOwnerReadsCarryTheTenant) {
  sim::Simulator sim;
  CellOptions o = TenantCell(2, ReplicationMode::kR1);
  o.tenants.Upsert(MakeSpec(1, "reader"));
  Cell cell(sim, std::move(o));
  cell.Start();
  ClientConfig cc;
  cc.tenant = 1;
  Client* client = cell.AddClient(cc);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  const std::string key = "moving-key";
  ASSERT_TRUE(RunOp(sim, client->Set(key, ToBytes("old-owner-value"))).ok());

  // The key's slot moves to an empty backend; the window keeps the old
  // owner as the previous topology.
  const uint32_t p = PrimaryShard(HashKey(key), cell.num_shards());
  Backend& old_owner = cell.backend(p);
  constexpr uint32_t kFreshConfigId = 77;
  Backend* fresh = cell.AddBackendForShard(p, kFreshConfigId);
  CellView next = cell.config_service().view();
  next.shard_hosts[p] = fresh->host();
  next.shard_config_ids[p] = kFreshConfigId;
  cell.config_service().BeginTransition(next);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(client->view().transition);

  AdmissionQueue* q = old_owner.admission();
  ASSERT_NE(q, nullptr);
  const int64_t admitted_tenant = q->admitted(1);
  const int64_t admitted_default = q->admitted(kDefaultTenant);
  const auto before = cell.metrics().TakeSnapshot();

  auto got = RunOp(sim, client->Get(key));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "old-owner-value");
  EXPECT_EQ(client->stats().prev_window_gets, 1);

  EXPECT_EQ(q->admitted(1), admitted_tenant + 1);
  EXPECT_EQ(q->admitted(kDefaultTenant), admitted_default);
  const auto after = cell.metrics().TakeSnapshot();
  const std::string bytes = "cm.tenant.read_data_bytes";
  EXPECT_EQ(TenantCounter(after, bytes, old_owner.host(), "reader") -
                TenantCounter(before, bytes, old_owner.host(), "reader"),
            int64_t(std::string("old-owner-value").size()));
  EXPECT_EQ(TenantCounter(after, bytes, old_owner.host(), "0"),
            TenantCounter(before, bytes, old_owner.host(), "0"));
}

TEST(TenancyCell, RmaReadQuotaShedsClientSide) {
  sim::Simulator sim;
  CellOptions o = TenantCell(1, ReplicationMode::kR1);
  TenantSpec capped = MakeSpec(1, "reader");
  capped.rma_reads_per_sec = 8;  // burst 4
  o.tenants.Upsert(capped);
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.tenant = 1;
  Client* client = cell.AddClient(cc);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("key", ToBytes("value"))).ok());

  int ok = 0, shed = 0;
  for (int i = 0; i < 20; ++i) {
    auto r = RunOp(sim, client->Get("key"));
    if (r.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  // One-sided reads never reach the backend CPU, so the client polices
  // them with buckets provisioned from the distributed registry.
  EXPECT_GE(ok, 4);
  EXPECT_GE(shed, 10);
  EXPECT_EQ(client->stats().tenant_shed, shed);
  EXPECT_GT(client->stats().tenant_rma_bytes, 0);

  // An untenanted client sharing the cell is never read-limited.
  Client* other = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, other->Connect()).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(RunOp(sim, other->Get("key")).ok());
  }
  EXPECT_EQ(other->stats().tenant_shed, 0);
}

TEST(TenancyCell, MemoryQuotaEvictsOwnKeysOnly) {
  sim::Simulator sim;
  CellOptions o = TenantCell(1, ReplicationMode::kR1);
  TenantSpec hog = MakeSpec(1, "hog");
  hog.memory_bytes = 8 * 1024;  // room for ~7 of hog's 1KB entries
  o.tenants.Upsert(hog);
  o.tenants.Upsert(MakeSpec(2, "neighbor"));  // unlimited
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig hog_cc;
  hog_cc.tenant = 1;
  Client* hog_client = cell.AddClient(hog_cc);
  ClientConfig nb_cc;
  nb_cc.tenant = 2;
  Client* nb_client = cell.AddClient(nb_cc);
  ASSERT_TRUE(RunOp(sim, hog_client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, nb_client->Connect()).ok());

  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(RunOp(sim, nb_client->Set("nb/" + std::to_string(i),
                                          Bytes(200, std::byte{0xBB})))
                    .ok());
  }
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(RunOp(sim, hog_client->Set("hog/" + std::to_string(i),
                                           Bytes(1024, std::byte{0xAA})))
                    .ok());
  }

  // The hog stayed within its quota by evicting its own LRU victims...
  TenantMemoryLedger* ledger = cell.backend(0).tenant_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_LE(ledger->used(1), hog.memory_bytes + 2048);  // one entry of slack
  EXPECT_GT(cell.AggregateBackendStats().evictions_tenant, 0);
  // ...keeping its newest keys resident and dropping the oldest.
  EXPECT_TRUE(RunOp(sim, hog_client->Get("hog/23")).ok());
  auto oldest = RunOp(sim, hog_client->Get("hog/0"));
  EXPECT_FALSE(oldest.ok());
  EXPECT_EQ(oldest.status().code(), StatusCode::kNotFound);

  // The neighbor's residency is untouched by the hog's pressure.
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(RunOp(sim, nb_client->Get("nb/" + std::to_string(i))).ok())
        << "neighbor key " << i << " lost to another tenant's quota";
  }
  // data + index-entry + key bytes per entry, all 12 still resident
  EXPECT_GE(ledger->used(2), 12u * (200 + 48));
  EXPECT_LE(ledger->used(2), 12u * (200 + 48 + 16));
}

// A tenant at its quota loses the victim the eviction policy picks among
// its own keys: a re-read (touch) saves the oldest key, so the next-oldest
// goes.
TEST(TenancyCell, QuotaVictimFollowsTouches) {
  sim::Simulator sim;
  CellOptions o = TenantCell(1, ReplicationMode::kR1);
  TenantSpec hog = MakeSpec(1, "hog");
  hog.memory_bytes = 8 * 1024;  // room for 7 of hog's 1KB entries
  o.tenants.Upsert(hog);
  Cell cell(sim, std::move(o));
  cell.Start();
  ClientConfig cc;
  cc.tenant = 1;
  Client* client = cell.AddClient(cc);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  auto set = [&](int i) {
    return RunOp(sim, client->Set("hog/" + std::to_string(i),
                                  Bytes(1024, std::byte{0xAA})));
  };

  for (int i = 0; i < 7; ++i) ASSERT_TRUE(set(i).ok()) << i;
  ASSERT_EQ(cell.AggregateBackendStats().evictions_tenant, 0);
  ASSERT_TRUE(RunOp(sim, client->Get("hog/0")).ok());
  RunOp(sim, client->FlushTouches());
  ASSERT_GT(cell.backend(0).stats().touches_ingested, 0);

  ASSERT_TRUE(set(7).ok());
  EXPECT_EQ(cell.AggregateBackendStats().evictions_tenant, 1);
  EXPECT_TRUE(RunOp(sim, client->Get("hog/0")).ok());
  EXPECT_EQ(RunOp(sim, client->Get("hog/1")).status().code(),
            StatusCode::kNotFound);
  for (int i = 2; i < 8; ++i) {
    EXPECT_TRUE(RunOp(sim, client->Get("hog/" + std::to_string(i))).ok()) << i;
  }
}

// Two identical runs of a tenanted cell must produce identical results:
// admission, WFQ, and the ledger introduce no nondeterminism.
TEST(TenancyCell, DeterministicWithTenancyOn) {
  auto run = [] {
    sim::Simulator sim;
    CellOptions o = TenantCell(2, ReplicationMode::kR32);
    TenantSpec a = MakeSpec(1, "a");
    a.rpc_ops_per_sec = 50;
    a.memory_bytes = 16 * 1024;
    TenantSpec b = MakeSpec(2, "b");
    b.wfq_weight = 2.0;
    o.tenants.Upsert(a);
    o.tenants.Upsert(b);
    Cell cell(sim, std::move(o));
    cell.Start();
    ClientConfig ca;
    ca.tenant = 1;
    ca.max_retries = 0;
    Client* cl_a = cell.AddClient(ca);
    ClientConfig cb;
    cb.tenant = 2;
    Client* cl_b = cell.AddClient(cb);
    EXPECT_TRUE(RunOp(sim, cl_a->Connect()).ok());
    EXPECT_TRUE(RunOp(sim, cl_b->Connect()).ok());
    for (int i = 0; i < 40; ++i) {
      const std::string key = "k/" + std::to_string(i % 16);
      (void)RunOp(sim, cl_a->Set(key, Bytes(256, std::byte{0xAA})));
      (void)RunOp(sim, cl_b->Set("b/" + key, Bytes(64, std::byte{0xBB})));
      (void)RunOp(sim, cl_b->Get("b/" + key));
    }
    auto snap = cell.metrics().TakeSnapshot();
    // bytes_copied is process-global (accumulates across runs in one test
    // binary); everything else must match bit-for-bit.
    snap.metrics.erase("cm.net.bytes_copied");
    return std::to_string(sim.now()) + "|" + snap.ToJson();
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace cm::cliquemap
