// Live resharding & elastic scaling tests.
//
// The timeline test drives a cell through the full elastic lifecycle —
// grow 3->5, up-replicate R=1 -> R=3.2, replace a backend, down-replicate
// back to R=1, shrink 5->3 — with client traffic riding through every
// transition, and checks the productionization invariants:
//
//   E1. Zero wrong-value GETs: every returned value was actually written
//       to that key (no cross-shard leakage, no resurrected erases, no
//       fabricated bytes) at a sequence number that had been issued.
//   E2. Zero lost acknowledged SETs: after the timeline quiesces, every
//       key reads back at a sequence >= the last acked write.
//   E3. Convergence each generation: after every committed transition the
//       replicas of the *current* view agree on every key's version.
//
// A chaos variant layers PR 1's FaultPlan (drops, delays, a healing
// partition, a GC pause) under the same timeline and upholds E1-E3.
// Directed companions pin the erase-vs-migration race and the
// TombstoneCache::FoldIn semantics it relies on.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cliquemap/cell.h"
#include "cliquemap/resharder.h"

namespace cm::cliquemap {
namespace {

constexpr int kKeys = 28;
constexpr int kClients = 2;
constexpr size_t kValueBytes = 48;

std::string KeyName(int k) { return "rk-" + std::to_string(k); }

// Values self-describe: [0] = key index, [1..2] = per-key write sequence
// (little endian), rest = a deterministic fill. Single writer per key makes
// the sequence totally ordered, so "lost acked write" is decidable.
Bytes MakeValue(int k, uint32_t seq) {
  Bytes v(kValueBytes, std::byte(uint8_t(seq * 31 + uint32_t(k))));
  v[0] = std::byte(uint8_t(k));
  v[1] = std::byte(uint8_t(seq & 0xff));
  v[2] = std::byte(uint8_t((seq >> 8) & 0xff));
  return v;
}

// Runs a task to completion while background tasks (config watchers) keep
// the event queue non-empty.
template <typename T>
T Await(sim::Simulator& sim, sim::Task<T> task) {
  auto out = std::make_shared<std::optional<T>>();
  sim.Spawn([](sim::Task<T> t,
               std::shared_ptr<std::optional<T>> out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), out));
  while (!out->has_value() && !sim.empty()) sim.RunSteps(256);
  EXPECT_TRUE(out->has_value()) << "op did not complete";
  return **out;
}

struct KeyLog {
  uint32_t attempts = 0;   // sequences issued (acked or not)
  int64_t last_acked = -1;  // highest sequence the client saw acked
};

struct TimelineOutcome {
  std::vector<std::string> phase_errors;
  int wrong_values = 0;
  int lost_writes = 0;
  int64_t gets = 0;
  int64_t get_failures = 0;
  std::vector<std::string> failure_detail;
  std::shared_ptr<std::string> current_phase =
      std::make_shared<std::string>("preload");
  std::vector<std::string> divergent;
  ResharderStats reshard;
  int64_t prev_window_gets = 0;
  int64_t stale_gen_rejects = 0;
  int64_t fault_messages = 0;
  BackendStats backends;
};

sim::Task<void> Traffic(sim::Simulator& sim, Client* client, int c,
                        uint64_t seed,
                        std::shared_ptr<std::vector<KeyLog>> logs,
                        std::shared_ptr<bool> trans_done,
                        std::shared_ptr<int> done,
                        std::shared_ptr<TimelineOutcome> out) {
  Rng rng(seed);
  while (!*trans_done) {
    co_await sim.Delay(sim::Microseconds(int64_t(100 + rng.NextBounded(400))));
    const int k = int(rng.NextBounded(kKeys));
    if (rng.NextBool(0.6)) {
      ++out->gets;
      auto got = co_await client->Get(KeyName(k));
      if (!got.ok()) {
        ++out->get_failures;
        out->failure_detail.push_back(
            "t=" + std::to_string(sim.now() / 1000000) + "ms key=" +
            std::to_string(k) + " phase=" + *out->current_phase +
            " view_gen=" + std::to_string(client->view().generation) +
            " trans=" + std::to_string(client->view().transition) +
            " n=" + std::to_string(client->view().num_shards()) + " " +
            got.status().ToString());
        continue;
      }
      const auto& v = got->value;
      bool valid = v.size() == kValueBytes &&
                   uint8_t(v[0]) == uint8_t(k);
      if (valid) {
        const uint32_t seq =
            uint32_t(uint8_t(v[1])) | (uint32_t(uint8_t(v[2])) << 8);
        valid = seq < (*logs)[size_t(k)].attempts;
      }
      if (!valid) ++out->wrong_values;  // E1
    } else if (k % kClients == c) {  // single writer per key
      const uint32_t seq = (*logs)[size_t(k)].attempts++;
      Status s = co_await client->Set(KeyName(k), MakeValue(k, seq));
      if (s.ok() && int64_t(seq) > (*logs)[size_t(k)].last_acked) {
        (*logs)[size_t(k)].last_acked = int64_t(seq);
      }
    }
  }
  ++*done;
}

TimelineOutcome RunTimeline(uint64_t seed, bool with_faults) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR1;
  o.seed = seed;
  o.backend.initial_buckets = 64;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  Cell cell(sim, std::move(o));
  cell.Start();

  ResharderOptions ro;
  ro.batch_bytes = 4 * 1024;  // several batches per stream
  ro.release_linger = sim::Milliseconds(30);
  Resharder resharder(cell, ro);

  std::shared_ptr<net::FaultPlan> plan;
  if (with_faults) {
    Rng prng(seed * 0x9E3779B97F4A7C15ull + 0x5E5A);
    plan = std::make_shared<net::FaultPlan>(seed);
    net::LinkFaultRates rates;
    rates.drop = 0.001 + prng.NextDouble() * 0.004;
    rates.delay = prng.NextDouble() * 0.05;
    rates.delay_mean = sim::Microseconds(int64_t(20 + prng.NextBounded(80)));
    plan->SetDefaultRates(rates);
    plan->SetActiveWindow(sim::Milliseconds(5), sim::Milliseconds(250));
    // A healing backend->backend partition early in the timeline.
    const auto a = net::HostId(1 + prng.NextBounded(3));
    auto b = net::HostId(1 + prng.NextBounded(3));
    if (b == a) b = 1 + (a % 3);
    plan->AddPartition(a, b, sim::Milliseconds(10), sim::Milliseconds(60));
    // A GC-like pause mid-timeline.
    plan->AddHostPause(net::HostId(1 + prng.NextBounded(3)),
                       sim::Milliseconds(80),
                       sim::Milliseconds(int64_t(1 + prng.NextBounded(3))));
    cell.fabric().InstallFaults(plan);
  }

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    cc.config_watch_interval = sim::Milliseconds(10);
    clients.push_back(cell.AddClient(cc));
  }

  auto out = std::make_shared<TimelineOutcome>();
  auto logs = std::make_shared<std::vector<KeyLog>>(kKeys);

  // Preload every key (seq 0) before any transition, with acks required.
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(Await(sim, clients[size_t(c)]->Connect()).ok());
  }
  for (int k = 0; k < kKeys; ++k) {
    const uint32_t seq = (*logs)[size_t(k)].attempts++;
    Status s = Await(
        sim, clients[size_t(k % kClients)]->Set(KeyName(k), MakeValue(k, seq)));
    EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    if (s.ok()) (*logs)[size_t(k)].last_acked = int64_t(seq);
  }
  for (Client* c : clients) c->StartConfigWatcher();

  // Runs one transition with concurrent traffic from every client.
  auto run_phase = [&](const std::string& name,
                       std::function<sim::Task<Status>()> op) {
    *out->current_phase = name;
    auto trans_done = std::make_shared<bool>(false);
    auto trans_status = std::make_shared<Status>(OkStatus());
    auto traffic_done = std::make_shared<int>(0);
    for (int c = 0; c < kClients; ++c) {
      sim.Spawn(Traffic(sim, clients[size_t(c)], c,
                        seed * 977 + uint64_t(c) * 131 + 7, logs, trans_done,
                        traffic_done, out));
    }
    sim.Spawn([](std::function<sim::Task<Status>()> op,
                 std::shared_ptr<Status> st,
                 std::shared_ptr<bool> done) -> sim::Task<void> {
      *st = co_await op();
      *done = true;
    }(std::move(op), trans_status, trans_done));
    while ((!*trans_done || *traffic_done < kClients) && !sim.empty()) {
      sim.RunSteps(256);
    }
    if (!trans_status->ok()) {
      out->phase_errors.push_back(name + ": " + trans_status->ToString());
    }
  };

  // E3: all replicas of the *current* view agree on every key. Under
  // faults, converge with explicit repair rounds first (the periodic
  // repair loop is not running in this test).
  auto check_converged = [&](const std::string& phase) {
    if (with_faults) {
      for (int round = 0; round < 2; ++round) {
        for (uint32_t s = 0; s < cell.num_shards(); ++s) {
          auto done = std::make_shared<bool>(false);
          sim.Spawn([](Backend* b,
                       std::shared_ptr<bool> done) -> sim::Task<void> {
            co_await b->RecoverFromCohort();
            *done = true;
          }(&cell.backend(s), done));
          while (!*done && !sim.empty()) sim.RunSteps(256);
        }
      }
    }
    const CellView& v = cell.config_service().view();
    const uint32_t n = v.num_shards();
    const int reps = ReplicaCount(v.mode);
    for (int k = 0; k < kKeys; ++k) {
      const std::string key = KeyName(k);
      const uint32_t p = PrimaryShard(HashKey(key), n);
      std::optional<VersionNumber> first;
      bool diverged = false;
      int present = 0;
      for (int r = 0; r < reps; ++r) {
        auto vv =
            cell.backend(ReplicaShard(p, uint32_t(r), n)).LookupVersion(key);
        if (vv) {
          ++present;
          if (!first) {
            first = vv;
          } else if (!(*first == *vv)) {
            diverged = true;
          }
        }
      }
      if (present != reps || diverged) {
        out->divergent.push_back(phase + "/" + key +
                                 " present=" + std::to_string(present) +
                                 (diverged ? " diverged" : ""));
      }
    }
  };

  run_phase("grow", [&] { return resharder.Resize(5); });
  check_converged("grow");
  run_phase("up-replicate",
            [&] { return resharder.SetReplication(ReplicationMode::kR32); });
  check_converged("up-replicate");
  run_phase("replace", [&] { return resharder.ReplaceBackend(1); });
  check_converged("replace");
  run_phase("down-replicate",
            [&] { return resharder.SetReplication(ReplicationMode::kR1); });
  check_converged("down-replicate");
  run_phase("shrink", [&] { return resharder.Resize(3); });
  check_converged("shrink");

  // Quiesce: stop the watchers, drain the queue.
  for (Client* c : clients) c->StopConfigWatcher();
  sim.Run();

  // E2: every key must read back at a sequence >= its last acked write.
  for (int k = 0; k < kKeys; ++k) {
    auto got = Await(sim, clients[0]->Get(KeyName(k)));
    if (!got.ok()) {
      ++out->lost_writes;
      continue;
    }
    const auto& v = got->value;
    if (v.size() != kValueBytes || uint8_t(v[0]) != uint8_t(k)) {
      ++out->wrong_values;
      continue;
    }
    const int64_t seq =
        int64_t(uint8_t(v[1])) | (int64_t(uint8_t(v[2])) << 8);
    if (seq < (*logs)[size_t(k)].last_acked) ++out->lost_writes;
  }

  TimelineOutcome result = *out;
  result.reshard = resharder.stats();
  for (const Client* c : clients) {
    result.prev_window_gets += c->stats().prev_window_gets;
    result.stale_gen_rejects += c->stats().stale_generation_rejects;
  }
  if (plan) result.fault_messages = plan->stats().messages;
  result.backends = cell.AggregateBackendStats();
  return result;
}

std::string Describe(const TimelineOutcome& o) {
  std::string s = "gets=" + std::to_string(o.gets) +
                  " failures=" + std::to_string(o.get_failures) +
                  " prev_window=" + std::to_string(o.prev_window_gets) +
                  " stale_gen=" + std::to_string(o.stale_gen_rejects) +
                  " streamed=" + std::to_string(o.reshard.records_streamed) +
                  " dropped=" + std::to_string(o.reshard.entries_dropped) +
                  "\n";
  for (const auto& e : o.phase_errors) s += "phase error: " + e + "\n";
  for (const auto& f : o.failure_detail) s += "get failure: " + f + "\n";
  for (const auto& d : o.divergent) s += "divergent: " + d + "\n";
  return s;
}

class ReshardingTimelineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReshardingTimelineTest, FullLifecycleUpholdsInvariants) {
  const uint64_t seed = GetParam();
  TimelineOutcome o = RunTimeline(seed, /*with_faults=*/false);

  EXPECT_TRUE(o.phase_errors.empty()) << "seed " << seed << "\n" << Describe(o);
  EXPECT_EQ(o.wrong_values, 0) << "seed " << seed << "\n" << Describe(o);
  EXPECT_EQ(o.lost_writes, 0) << "seed " << seed << "\n" << Describe(o);
  EXPECT_TRUE(o.divergent.empty()) << "seed " << seed << "\n" << Describe(o);
  // Clean fabric: the cell must be fully available throughout.
  EXPECT_EQ(o.get_failures, 0) << "seed " << seed << "\n" << Describe(o);
  EXPECT_GT(o.gets, 0);

  // The timeline really exercised the machinery.
  EXPECT_EQ(o.reshard.transitions_committed, 5) << Describe(o);
  EXPECT_EQ(o.reshard.backends_added, 3);    // 2 (grow) + 1 (replace)
  EXPECT_EQ(o.reshard.backends_retired, 3);  // 1 (replace) + 2 (shrink)
  EXPECT_GT(o.reshard.records_streamed, 0);
  EXPECT_GT(o.reshard.entries_dropped, 0);  // grow/shrink GC moved keys out
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReshardingTimelineTest,
                         ::testing::Range(uint64_t{1}, uint64_t{11}));

class ReshardingChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReshardingChaosTest, LifecycleUnderFaultsUpholdsInvariants) {
  const uint64_t seed = GetParam();
  TimelineOutcome o = RunTimeline(seed, /*with_faults=*/true);

  EXPECT_GT(o.fault_messages, 0) << "fault plan saw no traffic";
  EXPECT_TRUE(o.phase_errors.empty()) << "seed " << seed << "\n" << Describe(o);
  EXPECT_EQ(o.wrong_values, 0) << "seed " << seed << "\n" << Describe(o);
  EXPECT_EQ(o.lost_writes, 0) << "seed " << seed << "\n" << Describe(o);
  EXPECT_TRUE(o.divergent.empty()) << "seed " << seed << "\n" << Describe(o);
  // Availability may dip under faults (counted, not asserted), but traffic
  // must have flowed.
  EXPECT_GT(o.gets, 0);
  EXPECT_EQ(o.reshard.transitions_committed, 5) << Describe(o);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReshardingChaosTest,
                         ::testing::Range(uint64_t{1}, uint64_t{6}));

// ---------------------------------------------------------------------------
// Directed: the erase-vs-migration race
// ---------------------------------------------------------------------------

// A delete that lands at the new owner after the records shipped must not be
// resurrected by a late (duplicate) stream batch: the keyed tombstone wins
// over the older live record.
TEST(ReshardingDirected, LateStreamBatchCannotResurrectErase) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR1;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(Await(sim, client->Connect()).ok());

  const std::string key = "victim";
  ASSERT_TRUE(Await(sim, client->Set(key, ToBytes("old-value"))).ok());
  const uint32_t p = PrimaryShard(HashKey(key), cell.num_shards());
  Backend& old_owner = cell.backend(p);

  // The stream the resharder would ship (contains key @ v1).
  const std::vector<proto::BulkRecord> snapshot = old_owner.SnapshotBulk();
  ASSERT_FALSE(snapshot.empty());

  // A fresh backend takes over the slot (old owner moves to the graveyard).
  Backend* fresh = cell.AddBackendForShard(p, /*config_id=*/1);
  const uint32_t nid = cell.config_service().UpdateShard(p, fresh->host());
  fresh->SetConfigId(nid);

  // The delete races ahead of the stream: it lands at the new owner first.
  ASSERT_TRUE(Await(sim, client->Erase(key)).ok());
  EXPECT_EQ(Await(sim, client->Get(key)).status().code(),
            StatusCode::kNotFound);

  // Now the (late) stream batch arrives carrying the old live record.
  Bytes batch;
  for (const auto& rec : snapshot) {
    proto::AppendBulkRecord(batch, rec.key, rec.value, rec.version,
                            rec.erased);
  }
  rpc::WireWriter w;
  w.PutBytes(proto::kTagRecords, batch);
  const net::HostId from = cell.fabric().AddHost(cell.options().client_host);
  rpc::RpcChannel ch(cell.rpc_network(), from, fresh->host());
  auto resp = Await(
      sim, ch.Call(proto::kMethodInstallBulk, std::move(w).Take(),
                   sim::Seconds(1)));
  EXPECT_TRUE(resp.ok()) << resp.status().ToString();

  // Must not resurrect: the tombstone at the new owner outversions v1.
  EXPECT_FALSE(fresh->LookupVersion(key).has_value());
  EXPECT_EQ(Await(sim, client->Get(key)).status().code(),
            StatusCode::kNotFound);
}

// A miss inside the dual-version window consults the previous owners once:
// one RPC per previous replica, not one per retry-loop exit.
TEST(ReshardingDirected, WindowMissProbesEachPreviousOwnerOnce) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 4;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(Await(sim, client->Connect()).ok());

  // Open a topology-preserving window; the client learns of it on refresh.
  cell.config_service().BeginTransition(cell.config_service().view());
  ASSERT_TRUE(Await(sim, client->Connect()).ok());
  ASSERT_TRUE(client->view().transition);

  const int64_t rpc_gets_before = cell.AggregateBackendStats().rpc_gets;
  EXPECT_EQ(Await(sim, client->Get("never-written")).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(cell.AggregateBackendStats().rpc_gets - rpc_gets_before,
            ReplicaCount(ReplicationMode::kR32));
  EXPECT_EQ(client->stats().prev_window_gets, 0);
}

// A delete that lands on the *old* owner after it started draining bounces
// with kFailedPrecondition instead of being silently dropped from the
// migration stream (the client retries against the new topology).
TEST(ReshardingDirected, DrainingShardBouncesMutationsButServesReads) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR1;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(Await(sim, client->Connect()).ok());

  const std::string key = "drained";
  ASSERT_TRUE(Await(sim, client->Set(key, ToBytes("v1"))).ok());
  const uint32_t p = PrimaryShard(HashKey(key), cell.num_shards());
  cell.backend(p).SetDraining(true);

  // Reads keep being served.
  auto got = Await(sim, client->Get(key));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "v1");

  // Mutations bounce (and are counted) until the drain lifts.
  EXPECT_FALSE(Await(sim, client->Set(key, ToBytes("v2"))).ok());
  EXPECT_FALSE(Await(sim, client->Erase(key)).ok());
  EXPECT_GE(cell.AggregateBackendStats().draining_rejects, 2);

  cell.backend(p).SetDraining(false);
  EXPECT_TRUE(Await(sim, client->Set(key, ToBytes("v3"))).ok());
  got = Await(sim, client->Get(key));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(got->value), "v3");
}

// ---------------------------------------------------------------------------
// TombstoneCache::FoldIn
// ---------------------------------------------------------------------------

TEST(TombstoneFoldIn, KeepsMaxVersionAndBackfillsKeys) {
  TombstoneCache a(16), b(16);
  const Hash128 h1 = HashKey("k1");
  const Hash128 h2 = HashKey("k2");
  const Hash128 h3 = HashKey("k3");

  a.Record(h1, VersionNumber{10, 1, 1}, "k1");
  a.Record(h2, VersionNumber{50, 1, 1});  // key unknown locally
  b.Record(h1, VersionNumber{30, 2, 1}, "k1");  // newer
  b.Record(h2, VersionNumber{20, 2, 2}, "k2");  // older, but knows the key
  b.Record(h3, VersionNumber{40, 2, 3}, "k3");

  a.FoldIn(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.Find(h1)->tt_micros, 30u);  // max wins
  EXPECT_EQ(a.Find(h2)->tt_micros, 50u);  // local max kept
  EXPECT_EQ(a.entries().at(h2).key, "k2");  // key backfilled from other side
  EXPECT_EQ(a.Find(h3)->tt_micros, 40u);
}

TEST(TombstoneFoldIn, CarriesSummaryAndStaysBounded) {
  TombstoneCache a(16);
  TombstoneCache b(2);  // tiny: forces evictions into the summary
  b.Record(HashKey("e1"), VersionNumber{100, 1, 1}, "e1");
  b.Record(HashKey("e2"), VersionNumber{90, 1, 2}, "e2");
  b.Record(HashKey("e3"), VersionNumber{80, 1, 3}, "e3");  // evicts e1
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.summary().tt_micros, 100u);

  a.FoldIn(b);
  // The folded cache bounds everything the source ever saw: exact entries
  // stay exact, evicted ones via the summary.
  EXPECT_EQ(a.summary().tt_micros, 100u);
  EXPECT_EQ(a.WorstCaseSummary().tt_micros, 100u);
  EXPECT_NE(a.Find(HashKey("e2")), nullptr);
  EXPECT_NE(a.Find(HashKey("e3")), nullptr);
  EXPECT_EQ(a.Find(HashKey("e1")), nullptr);  // evicted -> summary only
  // Monotonicity floor still blocks a stale set of the evicted key.
  EXPECT_EQ(a.Floor(HashKey("e1")).tt_micros, 100u);
}

TEST(TombstoneFoldIn, IdempotentAndSelfFoldSafe) {
  TombstoneCache a(8), b(8);
  b.Record(HashKey("x"), VersionNumber{7, 1, 1}, "x");
  a.FoldIn(b);
  a.FoldIn(b);  // duplicate delivery (retried stream batch)
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(a.Find(HashKey("x"))->tt_micros, 7u);
}

}  // namespace
}  // namespace cm::cliquemap
