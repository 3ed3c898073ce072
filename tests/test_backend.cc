// Backend-focused tests: reshaping, eviction, tombstone semantics, data
// growth, overflow fallback — driven through real cells.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cliquemap/cell.h"
#include "common/rng.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

CellOptions TinyCell() {
  CellOptions o;
  o.num_shards = 1;
  o.mode = ReplicationMode::kR1;
  o.backend.initial_buckets = 8;  // tiny: easy to fill / resize
  o.backend.ways = 4;
  o.backend.data_initial_bytes = 128 * 1024;
  o.backend.data_max_bytes = 4 * 1024 * 1024;
  return o;
}

struct BackendFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cell> cell;
  Client* client = nullptr;

  void Init(CellOptions o, ClientConfig cc = {}) {
    cell = std::make_unique<Cell>(sim, std::move(o));
    cell->Start();
    client = cell->AddClient(std::move(cc));
    ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  }

  Status Set(const std::string& k, size_t bytes) {
    return RunOp(sim, client->Set(k, Bytes(bytes, std::byte{0x5A})));
  }
  StatusOr<GetResult> Get(const std::string& k) {
    return RunOp(sim, client->Get(k));
  }
  Status Put(const std::string& k, const std::string& value) {
    return RunOp(sim, client->Set(k, ToBytes(value)));
  }
  Status Erase(const std::string& k) { return RunOp(sim, client->Erase(k)); }
  // A raw RPC from the client's host to `b`.
  StatusOr<Bytes> Call(Backend& b, const char* method, rpc::WireWriter w) {
    rpc::RpcChannel ch(cell->rpc_network(), client->host(), b.host());
    return RunOp(sim, ch.Call(method, std::move(w).Take(),
                              sim::Milliseconds(10)));
  }
};

TEST_F(BackendFixture, IndexResizeTriggersAndKeysSurvive) {
  Init(TinyCell());
  Backend& b = cell->backend(0);
  const uint64_t buckets_before = b.num_buckets();
  // 8 buckets x 4 ways x 0.75 = 24 entries trigger a resize.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(Set("grow-" + std::to_string(i), 64).ok()) << i;
  }
  sim.Run();
  EXPECT_GT(b.num_buckets(), buckets_before);
  EXPECT_GE(b.stats().index_resizes, 1);
  // Conservation: every inserted key is either resident or was evicted by
  // an associativity conflict (tiny 4-way buckets overflow before the
  // resize catches up — the conflict upsizing exists to make rare, §4.2).
  EXPECT_EQ(static_cast<int64_t>(b.live_entries()) +
                b.stats().evictions_assoc + b.stats().evictions_capacity,
            64);
  // Every key still resident after re-placement must remain RMA-readable
  // (clients re-handshake transparently after the window revocation).
  int resident = 0;
  for (int i = 0; i < 64; ++i) {
    const std::string key = "grow-" + std::to_string(i);
    if (!b.LookupVersion(key).has_value()) continue;
    ++resident;
    auto got = Get(key);
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
  }
  EXPECT_EQ(resident, static_cast<int>(b.live_entries()));
  EXPECT_GT(resident, 40);  // most keys survive
}

TEST_F(BackendFixture, DataRegionGrowsOnDemand) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 256;  // no index pressure: isolate data growth
  Init(std::move(o));
  Backend& b = cell->backend(0);
  const uint64_t populated_before = b.data_populated();
  // Write well past the initial 128KB data region.
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(Set("big-" + std::to_string(i), 8 * 1024).ok()) << i;
  }
  sim.Run();
  EXPECT_GT(b.data_populated(), populated_before);
  EXPECT_GE(b.stats().data_grows, 1);
  // Old windows remain live: entries written before the growth still read.
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE(Get("big-" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(BackendFixture, CapacityEvictionWhenPoolMaxed) {
  CellOptions o = TinyCell();
  o.backend.data_initial_bytes = 128 * 1024;
  o.backend.data_max_bytes = 256 * 1024;  // hard cap: must evict
  o.backend.initial_buckets = 256;        // plenty of index space
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 120; ++i) {
    ASSERT_TRUE(Set("cap-" + std::to_string(i), 4 * 1024).ok()) << i;
  }
  EXPECT_GT(b.stats().evictions_capacity, 0);
  // Recent keys resident, oldest evicted (LRU default).
  EXPECT_TRUE(Get("cap-119").ok());
  EXPECT_EQ(Get("cap-0").status().code(), StatusCode::kNotFound);
}

TEST_F(BackendFixture, AssociativityEvictionOnFullBucket) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 1;  // everything collides into one bucket
  o.backend.ways = 4;
  o.backend.index_load_limit = 10.0;  // never resize: force the conflict
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(Set("assoc-" + std::to_string(i), 64).ok()) << i;
  }
  EXPECT_GT(b.stats().evictions_assoc, 0);
  EXPECT_LE(b.live_entries(), 4u);
}

TEST_F(BackendFixture, OverflowRpcFallbackServesHit) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 1;
  o.backend.ways = 2;
  o.backend.index_load_limit = 10.0;
  o.backend.rpc_fallback_on_overflow = true;  // §4.2 optional fallback
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Set("ovf-" + std::to_string(i), 64).ok()) << i;
  }
  EXPECT_GT(b.stats().overflow_inserts, 0);
  const int64_t rpc_gets_before = b.stats().rpc_gets;
  // Every key is still a hit: RMA for residents, RPC for overflowed.
  for (int i = 0; i < 6; ++i) {
    auto got = Get("ovf-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
  }
  EXPECT_GT(b.stats().rpc_gets, rpc_gets_before);
  EXPECT_GT(client->stats().rpc_fallback_gets, 0);
}

// ---------------------------------------------------------------------------
// Overflow keys are first-class state (§4.2): every mutation, CAS, repair
// and snapshot path must see the RPC-served overflow table.
// ---------------------------------------------------------------------------

// One bucket of two ways that never resizes, with the overflow fallback on:
// the third key set overflows.
CellOptions NarrowOverflowCell() {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 1;
  o.backend.ways = 2;
  o.backend.index_load_limit = 10.0;
  o.backend.rpc_fallback_on_overflow = true;
  return o;
}

TEST_F(BackendFixture, EraseAfterReSetOfOverflowKeyStaysErased) {
  Init(NarrowOverflowCell());
  Backend& b = cell->backend(0);
  ASSERT_TRUE(Put("a", "A").ok());
  ASSERT_TRUE(Put("b", "B").ok());
  ASSERT_TRUE(Put("c", "C-old").ok());
  ASSERT_EQ(b.stats().overflow_inserts, 1);  // c overflowed
  ASSERT_TRUE(Erase("a").ok());
  // The re-Set moves c into a's freed way; the old overflow copy must go.
  ASSERT_TRUE(Put("c", "C-new").ok());
  ASSERT_TRUE(Erase("c").ok());
  auto got = Get("c");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
      << (got.ok() ? ToString(got->value) : got.status().ToString());
  EXPECT_FALSE(b.LookupVersion("c").has_value());
}

TEST_F(BackendFixture, ReSetOverflowKeyIsCountedOnce) {
  Init(NarrowOverflowCell());
  Backend& b = cell->backend(0);
  ASSERT_TRUE(Put("a", "A").ok());
  ASSERT_TRUE(Put("b", "B").ok());
  ASSERT_TRUE(Put("c", "C1").ok());
  ASSERT_TRUE(Put("c", "C2").ok());  // still no free way: overwrites
  ASSERT_EQ(b.stats().overflow_inserts, 2);
  ASSERT_TRUE(Erase("c").ok());
  // The bucket holds no overflow key any more, so its overflow bit is
  // clear and a miss is settled by RMA alone.
  EXPECT_EQ(Get("absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(client->stats().rpc_fallback_gets, 0);
}

TEST_F(BackendFixture, CasComparesOverflowKeyVersion) {
  Init(NarrowOverflowCell());
  Backend& b = cell->backend(0);
  ASSERT_TRUE(Put("a", "A").ok());
  ASSERT_TRUE(Put("b", "B").ok());
  ASSERT_TRUE(Put("c", "C").ok());
  ASSERT_EQ(b.stats().overflow_inserts, 1);
  const auto v = b.LookupVersion("c");
  ASSERT_TRUE(v.has_value());

  auto swapped = RunOp(sim, client->Cas("c", ToBytes("C2"), *v));
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(*swapped);
  // Insert-if-absent must fail: c is present, in the overflow table.
  auto inserted = RunOp(sim, client->Cas("c", ToBytes("C3"), VersionNumber{}));
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_FALSE(*inserted);
  auto got = Get("c");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "C2");
}

// Every surface that enumerates or addresses stored keys sees each key
// exactly once, at its current version: an overflow-resident key (d), an
// overflow key re-Set after its erase (e), an index key that was re-Set
// after overflowing (c), a plain index key (b) and a keyed tombstone (a).
TEST_F(BackendFixture, EverySurfaceSeesOverflowKeysOnce) {
  CellOptions o = NarrowOverflowCell();
  o.num_spares = 1;
  Init(std::move(o));
  Backend& b = cell->backend(0);
  Backend& spare = cell->spare(0);
  const std::vector<std::string> keys = {"a", "b", "c", "d", "e"};
  for (const std::string& k : keys) ASSERT_TRUE(Put(k, k + "-1").ok());
  ASSERT_EQ(b.stats().overflow_inserts, 3);  // c, d and e
  const auto va = b.LookupVersion("a");
  ASSERT_TRUE(va.has_value());
  const VersionNumber erased_at{va->tt_micros + 1, va->client_id, va->seq};
  {
    rpc::WireWriter w;
    w.PutString(proto::kTagKey, "a");
    proto::PutVersion(w, erased_at);
    ASSERT_TRUE(Call(b, proto::kMethodErase, std::move(w)).ok());
  }
  ASSERT_TRUE(Put("c", "c-2").ok());  // into a's freed way
  ASSERT_TRUE(Erase("e").ok());
  ASSERT_TRUE(Put("e", "e-2").ok());  // overflows again
  ASSERT_EQ(b.stats().overflow_inserts, 4);

  // key -> every (version, erased) sighting on one surface.
  using Sightings =
      std::map<std::string, std::vector<std::pair<VersionNumber, bool>>>;
  Sightings residents;
  for (const std::string k : {"b", "c", "d", "e"}) {
    const auto v = b.LookupVersion(k);
    ASSERT_TRUE(v.has_value()) << k;
    residents[k] = {{*v, false}};
  }
  Sightings everything = residents;
  everything["a"] = {{erased_at, true}};
  auto name = [&](const Hash128& hash) {
    for (const std::string& k : keys) {
      if (HashKey(k) == hash) return k;
    }
    return std::string("?");
  };
  auto hash_request = [](const std::string& k) {
    rpc::WireWriter w;
    w.PutU64(proto::kTagHashHi, HashKey(k).hi);
    w.PutU64(proto::kTagHashLo, HashKey(k).lo);
    return w;
  };

  struct Surface {
    const char* name;
    const Sightings* expected;
    std::function<Sightings()> observe;
  };
  const std::vector<Surface> surfaces = {
      {"RepairPull", &everything,
       [&] {
         rpc::WireWriter w;
         w.PutU32(proto::kTagFlags, 0);        // shard filter
         w.PutU32(proto::kTagRecordCount, 1);  // num shards
         auto resp = Call(b, proto::kMethodRepairPull, std::move(w));
         EXPECT_TRUE(resp.ok());
         Sightings seen;
         if (!resp.ok()) return seen;
         auto blob = rpc::WireReader(*resp).GetBytes(proto::kTagRecords);
         for (const auto& rec : proto::ParseRepairRecords(blob.value())) {
           seen[name(rec.keyhash)].push_back({rec.version, rec.erased});
         }
         return seen;
       }},
      {"GetByHash", &residents,
       [&] {
         Sightings seen;
         for (const std::string& k : keys) {
           auto resp = Call(b, proto::kMethodGetByHash, hash_request(k));
           if (!resp.ok()) continue;
           rpc::WireReader r(*resp);
           auto key = r.GetBytes(proto::kTagKey);
           auto hit = proto::GetHit(r);
           if (!key || !hit) continue;
           seen[ToString(*key)].push_back({hit->version, false});
         }
         return seen;
       }},
      {"SnapshotBulk", &everything,
       [&] {
         Sightings seen;
         for (const auto& rec : b.SnapshotBulk()) {
           seen[rec.key].push_back({rec.version, rec.erased});
         }
         return seen;
       }},
      {"MigrateTo", &residents,
       [&] {
         EXPECT_TRUE(RunOp(sim, b.MigrateTo(spare.host())).ok());
         Sightings seen;
         for (const std::string& k : keys) {
           if (auto v = spare.LookupVersion(k)) seen[k].push_back({*v, false});
         }
         return seen;
       }},
      {"BumpVersion", &residents,
       [&] {
         // Bumps each key from its current version; reports the version
         // the bump was accepted from.
         Sightings seen;
         for (const std::string& k : keys) {
           const auto from = b.LookupVersion(k);
           if (!from) continue;
           rpc::WireWriter w = hash_request(k);
           proto::PutVersion(w, *from, proto::kTagExpectedTt);
           proto::PutVersion(w, VersionNumber{from->tt_micros + 1, 0, 0});
           auto resp = Call(b, proto::kMethodBumpVersion, std::move(w));
           if (!resp.ok()) continue;
           rpc::WireReader r(*resp);
           if (r.GetU32(proto::kTagApplied) != 1u) continue;
           if (b.LookupVersion(k) == VersionNumber{from->tt_micros + 1, 0, 0}) {
             seen[k].push_back({*from, false});
           }
         }
         return seen;
       }},
  };
  for (const Surface& s : surfaces) {
    EXPECT_EQ(s.observe(), *s.expected) << s.name;
  }

  // A backend reassigned out of the one-shard view owns none of its keys:
  // each resident is dropped once and nothing stays servable.
  b.SetShard(1);
  EXPECT_EQ(b.DropNonOwned(cell->config_service().view()), residents.size());
  EXPECT_EQ(b.live_entries(), 0u);
  for (const std::string& k : keys) EXPECT_FALSE(b.LookupVersion(k)) << k;
}

// An erase the source acks while a migration batch is in flight must reach
// the target, even when the key's record already streamed in an earlier
// batch: the tombstone summary alone cannot evict a record already there.
TEST_F(BackendFixture, EraseDuringMigrationReachesSpare) {
  CellOptions o = TinyCell();
  o.num_spares = 1;
  o.backend.initial_buckets = 64;
  Init(std::move(o));
  Backend& b = cell->backend(0);
  Backend& spare = cell->spare(0);
  std::vector<std::string> keys;
  for (int i = 0; i < 128; ++i) {
    keys.push_back("m" + std::to_string(i));
    ASSERT_TRUE(Set(keys.back(), 4096).ok());  // 512 KB: several batches
  }

  auto migrated = std::make_shared<std::optional<Status>>();
  sim.Spawn([](Backend& from, net::HostId to,
               std::shared_ptr<std::optional<Status>> out) -> sim::Task<void> {
    *out = co_await from.MigrateTo(to);
  }(b, spare.host(), migrated));
  // Once the first batch has landed, erase one of its keys at the source.
  struct Erased {
    std::string key;
    std::optional<Status> status;
    bool mid_migration = false;
  };
  auto erased = std::make_shared<Erased>();
  sim.Spawn([](sim::Simulator& sim, Backend& spare, Client& client,
               std::vector<std::string> keys,
               std::shared_ptr<std::optional<Status>> migrated,
               std::shared_ptr<Erased> out) -> sim::Task<void> {
    while (out->key.empty() && !migrated->has_value()) {
      for (const std::string& k : keys) {
        if (spare.LookupVersion(k)) {
          out->key = k;
          break;
        }
      }
      if (out->key.empty()) co_await sim.Delay(sim::Microseconds(1));
    }
    if (out->key.empty()) co_return;
    out->status = co_await client.Erase(out->key);
    out->mid_migration = !migrated->has_value();
  }(sim, spare, *client, keys, migrated, erased));
  sim.Run();

  ASSERT_TRUE(migrated->has_value());
  EXPECT_TRUE((*migrated)->ok());
  ASSERT_FALSE(erased->key.empty());
  ASSERT_TRUE(erased->status.has_value());
  EXPECT_TRUE(erased->status->ok());
  ASSERT_TRUE(erased->mid_migration);
  EXPECT_FALSE(b.LookupVersion(erased->key).has_value());
  EXPECT_FALSE(spare.LookupVersion(erased->key).has_value());
  EXPECT_GT(spare.live_entries(), keys.size() / 2);
}

TEST_F(BackendFixture, StaleVersionSetRejected) {
  Init(TinyCell());
  // Two clients; the second's clock/sequence yields higher versions over
  // time. Simulate staleness by applying a direct InstallBulk with an old
  // version.
  ASSERT_TRUE(Set("vkey", 64).ok());
  auto v1 = cell->backend(0).LookupVersion("vkey");
  ASSERT_TRUE(v1.has_value());

  // A direct RPC SET with version below the stored one must be rejected.
  rpc::WireWriter w;
  w.PutString(proto::kTagKey, "vkey");
  w.PutBytes(proto::kTagValue, ToBytes("stale"));
  proto::PutVersion(w, VersionNumber{v1->tt_micros - 1, 0, 0});
  rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                     cell->backend(0).host());
  auto resp = RunOp(sim, ch.Call(proto::kMethodSet, std::move(w).Take(),
                                 sim::Milliseconds(10)));
  ASSERT_TRUE(resp.ok());
  rpc::WireReader r(*resp);
  EXPECT_EQ(r.GetU32(proto::kTagApplied), 0u);  // not applied
  EXPECT_EQ(cell->backend(0).LookupVersion("vkey"), v1);  // unchanged
}

TEST_F(BackendFixture, TombstoneBlocksLateSet) {
  Init(TinyCell());
  ASSERT_TRUE(Set("late", 64).ok());
  auto v = cell->backend(0).LookupVersion("late");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(RunOp(sim, client->Erase("late")).ok());

  // Late-arriving SET below the erase version: must not resurrect (§5.2).
  rpc::WireWriter w;
  w.PutString(proto::kTagKey, "late");
  w.PutBytes(proto::kTagValue, ToBytes("zombie"));
  proto::PutVersion(w, *v);  // the old (pre-erase) version
  rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                     cell->backend(0).host());
  auto resp = RunOp(sim, ch.Call(proto::kMethodSet, std::move(w).Take(),
                                 sim::Milliseconds(10)));
  ASSERT_TRUE(resp.ok());
  rpc::WireReader r(*resp);
  EXPECT_EQ(r.GetU32(proto::kTagApplied), 0u);
  EXPECT_EQ(Get("late").status().code(), StatusCode::kNotFound);
}

// A SET suspends while it writes its DataEntry; an ERASE with a higher
// version that lands meanwhile must win, or the acked erase is undone.
TEST_F(BackendFixture, EraseLandingDuringSetWriteWins) {
  CellOptions o = TinyCell();
  o.backend.write_bytes_per_ns = 0.01;  // a 4 KB write takes ~400 us
  Init(std::move(o));
  Backend& b = cell->backend(0);
  using Reply = std::shared_ptr<std::optional<StatusOr<Bytes>>>;
  auto send = [&](std::string method, rpc::WireWriter w,
                  sim::Duration after) {
    Reply out = std::make_shared<std::optional<StatusOr<Bytes>>>();
    sim.Spawn([](sim::Simulator& sim, rpc::RpcNetwork& network,
                 net::HostId from, net::HostId to, std::string method,
                 Bytes req, sim::Duration after, Reply out) -> sim::Task<void> {
      co_await sim.Delay(after);
      rpc::RpcChannel ch(network, from, to);
      *out = co_await ch.Call(std::move(method), std::move(req),
                              sim::Seconds(1));
    }(sim, cell->rpc_network(), client->host(), b.host(), std::move(method),
               std::move(w).Take(), after, out));
    return out;
  };
  auto applied = [](const Reply& reply) -> std::optional<uint32_t> {
    if (!reply->has_value() || !(*reply)->ok()) return std::nullopt;
    return rpc::WireReader(***reply).GetU32(proto::kTagApplied);
  };

  rpc::WireWriter set;
  set.PutString(proto::kTagKey, "race");
  set.PutBytes(proto::kTagValue, Bytes(4096, std::byte{0x5A}));
  proto::PutVersion(set, VersionNumber{100, 1, 1});
  rpc::WireWriter erase;
  erase.PutString(proto::kTagKey, "race");
  proto::PutVersion(erase, VersionNumber{200, 1, 1});
  const Reply set_reply = send(proto::kMethodSet, std::move(set), 0);
  const Reply erase_reply =
      send(proto::kMethodErase, std::move(erase), sim::Microseconds(200));
  sim.Run();

  EXPECT_EQ(applied(erase_reply), 1u);
  EXPECT_EQ(applied(set_reply), 0u);
  EXPECT_FALSE(b.LookupVersion("race").has_value());
  EXPECT_EQ(Get("race").status().code(), StatusCode::kNotFound);
}

TEST_F(BackendFixture, TouchRpcFeedsEvictionPolicy) {
  CellOptions o = TinyCell();
  o.backend.data_initial_bytes = 128 * 1024;
  o.backend.data_max_bytes = 256 * 1024;
  o.backend.initial_buckets = 256;
  Init(std::move(o));
  Backend& b = cell->backend(0);
  // Fill to ~half of the pool's chunk capacity; then keep touching key 0
  // so it survives later evictions.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(Set("touch-" + std::to_string(i), 2 * 1024).ok());
  }
  for (int round = 0; round < 5; ++round) {
    ASSERT_TRUE(Get("touch-0").ok());
    RunOp(sim, client->FlushTouches());
  }
  EXPECT_GT(b.stats().touches_ingested, 0);
  // Now force some evictions (fewer than the pool holds): the repeatedly
  // touched key must survive while untouched contemporaries are the LRU
  // victims.
  const int64_t evictions_before = b.stats().evictions_capacity;
  for (int i = 100; i < 180; ++i) {
    ASSERT_TRUE(Set("touch-" + std::to_string(i), 2 * 1024).ok());
  }
  ASSERT_GT(b.stats().evictions_capacity, evictions_before);
  EXPECT_TRUE(Get("touch-0").ok());
}

// ---------------------------------------------------------------------------
// Residency bookkeeping (DESIGN §6.4): the eviction policy and the tenant
// ledger track exactly the index residents. Overflow keys hold neither a
// slot nor slab bytes, so neither structure may hold them.
// ---------------------------------------------------------------------------

// One shard of 2x2 ways with the overflow fallback on, so keys overflow,
// get promoted by index resizes and are evicted alongside index keys;
// tenant 1 writes everything.
CellOptions TenantOverflowCell() {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 2;
  o.backend.ways = 2;
  o.backend.rpc_fallback_on_overflow = true;
  TenantSpec t;
  t.id = 1;
  t.name = "t1";
  o.tenants.Upsert(t);
  return o;
}

ClientConfig TenantOne() {
  ClientConfig cc;
  cc.tenant = 1;
  return cc;
}

// The keyhashes of an index's non-empty ways in ascending (bucket, way)
// order, read from the raw region. Fails the test if a key sits outside
// its own BucketIndex bucket.
std::vector<Hash128> IndexWalk(const Backend& b) {
  const ByteSpan index = b.IndexBytes();
  const int ways = b.config().ways;
  std::vector<Hash128> out;
  for (uint64_t bucket = 0; bucket < b.num_buckets(); ++bucket) {
    const ByteSpan span =
        index.subspan(bucket * BucketBytes(ways), BucketBytes(ways));
    for (int w = 0; w < ways; ++w) {
      const IndexEntry e = DecodeIndexEntry(
          span.subspan(kBucketHeaderSize + size_t(w) * kIndexEntrySize));
      if (e.empty()) continue;
      EXPECT_EQ(BucketIndex(e.keyhash, b.num_buckets()), bucket)
          << "way " << w;
      out.push_back(e.keyhash);
    }
  }
  return out;
}

TEST_F(BackendFixture, BookkeepingMirrorsResidency) {
  CellOptions o = TenantOverflowCell();
  o.backend.data_initial_bytes = 64 * 1024;
  o.backend.data_max_bytes = 64 * 1024;  // one slab: capacity evictions
  TenantSpec t = *o.tenants.Find(1);
  t.memory_bytes = 24 * 1024;  // tenant 1 also evicts its own keys
  o.tenants.Upsert(t);
  t.id = 2;
  t.name = "t2";
  t.memory_bytes = 0;
  o.tenants.Upsert(t);
  Init(std::move(o), TenantOne());
  ClientConfig cc;
  cc.tenant = 2;
  Client* writers[] = {client, cell->AddClient(cc)};
  ASSERT_TRUE(RunOp(sim, writers[1]->Connect()).ok());
  Backend& b = cell->backend(0);
  const TenantMemoryLedger* ledger = b.tenant_ledger();
  ASSERT_NE(ledger, nullptr);

  Rng rng(7);
  for (int op = 0; op < 600; ++op) {
    Client* c = writers[rng.NextBounded(2)];
    const std::string key = "k" + std::to_string(rng.NextBounded(160));
    const uint64_t dice = rng.NextBounded(100);
    if (dice < 60) {
      // 744..943-byte entries: one slab class, 59 entries to the slab.
      const Bytes value(700 + rng.NextBounded(200), std::byte{0x5A});
      ASSERT_TRUE(RunOp(sim, c->Set(key, value)).ok()) << op;
    } else if (dice < 75) {
      ASSERT_TRUE(RunOp(sim, c->Erase(key)).ok()) << op;
    } else {
      (void)RunOp(sim, c->Get(key));
    }
    if (op % 16 == 15) {
      RunOp(sim, c->FlushTouches());
    }
    ASSERT_EQ(b.eviction_policy().tracked(), b.live_entries()) << "op " << op;
    ASSERT_EQ(ledger->tracked(), b.live_entries()) << "op " << op;
    ASSERT_EQ(IndexWalk(b).size(), b.live_entries()) << "op " << op;
    ASSERT_FALSE(HasFailure()) << "op " << op;
  }
  // The sequence reached every path that moves a key in or out.
  EXPECT_GT(b.stats().overflow_inserts, 0);
  EXPECT_GT(b.stats().index_resizes, 0);
  EXPECT_GT(b.stats().evictions_capacity, 0);
  EXPECT_GT(b.stats().evictions_tenant, 0);
  EXPECT_GT(b.stats().erases_applied, 0);
  EXPECT_GT(b.stats().touches_ingested, 0);
}

// Every record walk (SnapshotBulk here; repair pulls, MigrateTo and
// DropNonOwned share it) lists the index residents in ascending (bucket,
// way) order, then the overflow residents, then the tombstones.
TEST_F(BackendFixture, RecordWalkFollowsIndexOrder) {
  CellOptions o = TinyCell();
  o.backend.initial_buckets = 16;
  o.backend.ways = 2;
  o.backend.index_load_limit = 2.0;  // never reshape: overflow stays put
  o.backend.rpc_fallback_on_overflow = true;
  Init(std::move(o));
  Backend& b = cell->backend(0);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Set("w" + std::to_string(i), 32).ok()) << i;
  }
  for (int i = 0; i < 60; i += 7) {
    ASSERT_TRUE(Erase("w" + std::to_string(i)).ok()) << i;
  }
  ASSERT_EQ(b.stats().index_resizes, 0);

  const std::vector<Hash128> index = IndexWalk(b);
  ASSERT_EQ(index.size(), b.live_entries());
  const std::vector<proto::BulkRecord> snapshot = b.SnapshotBulk();
  ASSERT_GE(snapshot.size(), index.size());
  size_t at = 0;
  for (; at < index.size(); ++at) {
    EXPECT_FALSE(snapshot[at].erased) << at;
    EXPECT_EQ(HashKey(snapshot[at].key), index[at]) << at;
  }
  size_t overflow = 0;
  for (; at < snapshot.size() && !snapshot[at].erased; ++at, ++overflow) {
    EXPECT_EQ(std::find(index.begin(), index.end(), HashKey(snapshot[at].key)),
              index.end())
        << snapshot[at].key << " is in the index too";
  }
  size_t tombstones = 0;
  for (; at < snapshot.size(); ++at, ++tombstones) {
    EXPECT_TRUE(snapshot[at].erased) << at;
  }
  EXPECT_GT(overflow, 0u);
  EXPECT_EQ(tombstones, 9u);  // w0, w7, ..., w56
  EXPECT_EQ(index.size() + overflow + tombstones, 60u);
}

// A key that overflowed and was later promoted into a grown index is
// charged to the tenant that wrote it.
TEST_F(BackendFixture, PromotedKeyIsChargedToItsWriter) {
  Init(TenantOverflowCell(), TenantOne());
  Backend& b = cell->backend(0);
  constexpr size_t kValueBytes = 100;
  for (int i = 0; i < 40; ++i) {
    char key[8];
    std::snprintf(key, sizeof(key), "t1/k%02d", i);
    ASSERT_TRUE(Set(key, kValueBytes).ok()) << i;
  }
  ASSERT_GT(b.stats().overflow_inserts, 0);
  ASSERT_GT(b.stats().index_resizes, 0);
  const TenantMemoryLedger* ledger = b.tenant_ledger();
  ASSERT_NE(ledger, nullptr);
  EXPECT_EQ(ledger->tracked(), b.live_entries());
  // Every key has the same size, so the charge is one entry per resident.
  EXPECT_EQ(ledger->used(1), b.live_entries() * DataEntryBytes(6, kValueBytes));
}

TEST_F(BackendFixture, ScarDataShowsTheScanInstant) {
  // A SCAR reply's DataEntry is copied out of the data pool only when the
  // client reads it. A SET that overwrites those bytes first must not
  // change what the reply shows: the pool copies it just before the write.
  Init(TinyCell());
  Backend& b = cell->backend(0);
  const std::string key = "scanned";
  const std::string old_value(200, 'a');
  ASSERT_TRUE(Put(key, old_value).ok());
  const auto old_version = b.LookupVersion(key);
  ASSERT_TRUE(old_version.has_value());

  const Hash128 hash = HashKey(key);
  const auto len = static_cast<uint32_t>(BucketBytes(b.config().ways));
  rma::RmaHostState* host = cell->rma_network().Find(b.host());
  ASSERT_NE(host, nullptr);
  auto scar = host->scar(hash.hi, hash.lo, b.index_region(),
                         BucketIndex(hash, b.num_buckets()) * len, len);
  ASSERT_TRUE(scar.ok()) << scar.status().ToString();
  ASSERT_FALSE(scar->data.empty());

  // Same-size SETs: the second reuses the first entry's freed slab slot
  // and overwrites the scanned bytes in place.
  ASSERT_TRUE(Put(key, std::string(200, 'b')).ok());
  ASSERT_TRUE(Put(key, std::string(200, 'c')).ok());
  const int64_t before = BufferStats::bytes_copied();
  const BufferView& bytes = scar->data.view();
  EXPECT_EQ(BufferStats::bytes_copied(), before);  // copied before the write
  auto entry = DecodeDataEntry(bytes);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_EQ(entry->key, key);
  EXPECT_EQ(ToString(entry->value), old_value);
  EXPECT_EQ(entry->version, *old_version);
}

// The entry for `hash` in an encoded bucket, if any.
std::optional<IndexEntry> FindInBucket(ByteSpan bucket, const Hash128& hash,
                                       int ways) {
  for (int w = 0; w < ways; ++w) {
    const size_t at = kBucketHeaderSize + size_t(w) * kIndexEntrySize;
    if (at + kIndexEntrySize > bucket.size()) break;
    IndexEntry e = DecodeIndexEntry(bucket.subspan(at));
    if (e.keyhash == hash && !e.pointer.is_null()) return e;
  }
  return std::nullopt;
}

TEST_F(BackendFixture, ScarBucketShowsTheScanInstant) {
  // A SCAR reply's bucket is a snapshot of the live index at the scan. An
  // index write to that bucket (a SET's new version, an ERASE) must not
  // change what the reply shows: the index copies it just before the write.
  Init(TinyCell());
  Backend& b = cell->backend(0);
  const int ways = b.config().ways;
  const auto len = static_cast<uint32_t>(BucketBytes(ways));
  rma::RmaHostState* host = cell->rma_network().Find(b.host());
  ASSERT_NE(host, nullptr);
  auto scan = [&](const std::string& key) {
    const Hash128 hash = HashKey(key);
    return host->scar(hash.hi, hash.lo, b.index_region(),
                      BucketIndex(hash, b.num_buckets()) * len, len);
  };

  const std::string key = "indexed";
  ASSERT_TRUE(Put(key, "v1").ok());
  const auto v1 = b.LookupVersion(key);
  ASSERT_TRUE(v1.has_value());
  const Hash128 hash = HashKey(key);

  for (bool erase : {false, true}) {
    SCOPED_TRACE(erase ? "erase" : "set");
    auto scar = scan(key);
    ASSERT_TRUE(scar.ok()) << scar.status().ToString();
    ASSERT_EQ(scar->bucket.size(), len);
    const auto before_write = scar->bucket.Borrow([&](ByteSpan bucket) {
      return FindInBucket(bucket, hash, ways);
    });
    ASSERT_TRUE(before_write.has_value());
    const VersionNumber scanned = before_write->version;

    ASSERT_TRUE((erase ? Erase(key) : Put(key, "v2")).ok());
    if (erase) {
      EXPECT_FALSE(b.LookupVersion(key).has_value());
    } else {
      EXPECT_NE(*b.LookupVersion(key), scanned);
    }
    const int64_t before = BufferStats::bytes_copied();
    const auto shown = scar->bucket.Borrow([&](ByteSpan bucket) {
      return FindInBucket(bucket, hash, ways);
    });
    EXPECT_EQ(BufferStats::bytes_copied(), before);  // copied before the write
    ASSERT_TRUE(shown.has_value());
    EXPECT_EQ(shown->version, scanned);
    EXPECT_EQ(shown->pointer.offset, before_write->pointer.offset);
  }
}

TEST_F(BackendFixture, ScarBucketOutlivesItsIndex) {
  // A restart, like a resize, replaces the index buffer wholesale. A SCAR
  // bucket still pending on the old buffer is copied out before that
  // buffer is freed, so it still shows the scan instant.
  Init(TinyCell());
  Backend& b = cell->backend(0);
  const int ways = b.config().ways;
  const auto len = static_cast<uint32_t>(BucketBytes(ways));
  const std::string key = "first";
  ASSERT_TRUE(Put(key, "v").ok());
  const auto version = b.LookupVersion(key);
  ASSERT_TRUE(version.has_value());
  const Hash128 hash = HashKey(key);
  rma::RmaHostState* host = cell->rma_network().Find(b.host());
  ASSERT_NE(host, nullptr);
  auto scar = host->scar(hash.hi, hash.lo, b.index_region(),
                         BucketIndex(hash, b.num_buckets()) * len, len);
  ASSERT_TRUE(scar.ok()) << scar.status().ToString();
  b.Stop();
  b.Start(b.config_id());
  EXPECT_FALSE(b.LookupVersion(key).has_value());  // a fresh, empty index
  const auto shown = scar->bucket.Borrow([&](ByteSpan bucket) {
    return FindInBucket(bucket, hash, ways);
  });
  ASSERT_TRUE(shown.has_value());
  EXPECT_EQ(shown->version, *version);
}

TEST_F(BackendFixture, InfoReportsLayout) {
  Init(TinyCell());
  rpc::RpcChannel ch(cell->rpc_network(), client->host(),
                     cell->backend(0).host());
  auto resp = RunOp(sim, ch.Call(proto::kMethodInfo, {}, sim::Milliseconds(10)));
  ASSERT_TRUE(resp.ok());
  rpc::WireReader r(*resp);
  EXPECT_EQ(r.GetU64(proto::kTagNumBuckets), cell->backend(0).num_buckets());
  EXPECT_EQ(r.GetU32(proto::kTagWays), 4u);
  EXPECT_EQ(r.GetU32(proto::kTagConfigId), cell->backend(0).config_id());
  EXPECT_TRUE(r.GetU32(proto::kTagIndexRegion).has_value());
}

TEST_F(BackendFixture, StoppedBackendRevokesWindows) {
  Init(TinyCell());
  ASSERT_TRUE(Set("k", 64).ok());
  ASSERT_TRUE(Get("k").ok());
  cell->backend(0).Stop();
  auto got = Get("k");
  EXPECT_FALSE(got.ok());
  EXPECT_NE(got.status().code(), StatusCode::kNotFound);
}

TEST_F(BackendFixture, MemoryFootprintTracksLoad) {
  Init(TinyCell());
  const uint64_t empty = cell->backend(0).memory_footprint();
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(Set("mem-" + std::to_string(i), 8 * 1024).ok());
  }
  sim.Run();
  EXPECT_GT(cell->backend(0).memory_footprint(), empty);
}

}  // namespace
}  // namespace cm::cliquemap
