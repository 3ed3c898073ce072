// Scheduler/buffer A/B determinism pin.
//
// The hot-path overhaul (calendar-queue scheduler + zero-copy BufferViews)
// promises ZERO behavioral diff: the (t, seq) event total order and every
// RNG draw sequence must be bit-identical to the seed implementation. This
// suite pins that promise to constants: one chaos seed and one resharding
// seed were run under the PRE-overhaul scheduler (binary heap of
// std::function, commit 2e72a17) and their fault-trace FNV-1a fingerprints,
// span fingerprints, event counts, and final Stats() snapshots recorded
// below. The same scenarios must reproduce them exactly, forever.
//
// If this test fails after a scheduler or buffer change, the change
// reordered events or moved an RNG draw — that is a correctness bug even if
// every other test passes.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cliquemap/cell.h"
#include "cliquemap/resharder.h"

namespace cm::cliquemap {
namespace {

constexpr int kKeys = 16;
constexpr int kClients = 2;
constexpr int kOpsPerClient = 120;
constexpr size_t kValueBytes = 256;

std::string KeyName(int k) { return "det-" + std::to_string(k); }

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

// Everything the scenario pins. All fields are pure functions of the seed
// under a correct scheduler.
struct Capture {
  uint64_t fault_fingerprint = 0;
  int64_t fault_trace_events = 0;
  uint64_t span_fingerprint = 0;
  int64_t spans_completed = 0;
  uint64_t sim_events = 0;
  int64_t final_now = 0;
  int64_t gets = 0;
  int64_t hits = 0;
  int64_t sets = 0;
  int64_t retries = 0;
  int64_t torn_reads = 0;
  int64_t rma_reads = 0;
  int64_t rma_scars = 0;
  int64_t sets_applied = 0;
  int64_t repairs_issued = 0;

  void Print(const char* label) const {
    std::printf(
        "%s: fault_fp=0x%llxull events=%lld span_fp=0x%llxull spans=%lld\n"
        "  sim_events=%llu final_now=%lld gets=%lld hits=%lld sets=%lld\n"
        "  retries=%lld torn=%lld rma_reads=%lld scars=%lld applied=%lld "
        "repairs=%lld\n",
        label, (unsigned long long)fault_fingerprint,
        (long long)fault_trace_events, (unsigned long long)span_fingerprint,
        (long long)spans_completed, (unsigned long long)sim_events,
        (long long)final_now, (long long)gets, (long long)hits,
        (long long)sets, (long long)retries, (long long)torn_reads,
        (long long)rma_reads, (long long)rma_scars, (long long)sets_applied,
        (long long)repairs_issued);
  }
};

void ExpectEqual(const Capture& got, const Capture& want) {
  EXPECT_EQ(got.fault_fingerprint, want.fault_fingerprint);
  EXPECT_EQ(got.fault_trace_events, want.fault_trace_events);
  EXPECT_EQ(got.span_fingerprint, want.span_fingerprint);
  EXPECT_EQ(got.spans_completed, want.spans_completed);
  EXPECT_EQ(got.sim_events, want.sim_events);
  EXPECT_EQ(got.final_now, want.final_now);
  EXPECT_EQ(got.gets, want.gets);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.sets, want.sets);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.torn_reads, want.torn_reads);
  EXPECT_EQ(got.rma_reads, want.rma_reads);
  EXPECT_EQ(got.rma_scars, want.rma_scars);
  EXPECT_EQ(got.sets_applied, want.sets_applied);
  EXPECT_EQ(got.repairs_issued, want.repairs_issued);
}

// Deterministic mixed GET/SET traffic (no invariant checking here — the
// chaos/resharding suites own that; this scenario only has to be a fixed
// function of the seed).
sim::Task<void> Traffic(sim::Simulator& sim, Client* client, uint64_t seed,
                        std::shared_ptr<sim::Notification> loaded,
                        std::shared_ptr<int> done) {
  (void)co_await client->Connect();
  co_await loaded->Wait();
  Rng rng(seed);
  for (int op = 0; op < kOpsPerClient; ++op) {
    co_await sim.Delay(sim::Microseconds(int64_t(50 + rng.NextBounded(900))));
    const int k = int(rng.NextBounded(kKeys));
    if (rng.NextBool(0.6)) {
      (void)co_await client->Get(KeyName(k));
    } else {
      const auto fill = std::byte(uint8_t(1 + rng.NextBounded(250)));
      (void)co_await client->Set(KeyName(k), Bytes(kValueBytes, fill));
    }
  }
  ++*done;
}

void FillFrom(Capture& cap, sim::Simulator& sim, Cell& cell,
              const std::vector<Client*>& clients) {
  cap.fault_fingerprint = cell.fabric().faults()->trace_fingerprint();
  cap.fault_trace_events = cell.fabric().faults()->trace_events();
  cap.span_fingerprint = cell.tracer().fingerprint();
  cap.spans_completed = cell.tracer().spans_completed();
  cap.sim_events = sim.events_processed();
  cap.final_now = sim.now();
  for (const Client* c : clients) {
    cap.gets += c->stats().gets;
    cap.hits += c->stats().hits;
    cap.sets += c->stats().sets;
    cap.retries += c->stats().retries;
    cap.torn_reads += c->stats().torn_reads;
  }
  cap.rma_reads = cell.transport()->stats().reads;
  cap.rma_scars = cell.transport()->stats().scars;
  BackendStats b = cell.AggregateBackendStats();
  cap.sets_applied = b.sets_applied;
  cap.repairs_issued = b.repairs_issued;
}

Capture RunChaosScenario(uint64_t seed) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.seed = seed;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();
  cell.tracer().Enable(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.01;
  rates.corrupt = 0.005;
  rates.duplicate = 0.005;
  rates.delay = 0.03;
  rates.delay_mean = sim::Microseconds(60);
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(10), sim::Milliseconds(120));
  plan->AddPartition(1, 2, sim::Milliseconds(30), sim::Milliseconds(80));
  plan->AddHostPause(3, sim::Milliseconds(50), sim::Milliseconds(2));
  plan->ScheduleCrash(1, sim::Milliseconds(60), sim::Milliseconds(20));
  cell.fabric().InstallFaults(plan);

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    clients.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* client,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set(KeyName(k),
                                      Bytes(kValueBytes, std::byte{0x11}));
      EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    }
    loaded->Notify();
  }(clients[0], loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn(Traffic(sim, clients[c], seed + uint64_t(c) * 7919, loaded,
                      done));
  }
  while (*done < kClients && !sim.empty()) sim.RunSteps(1024);
  EXPECT_EQ(*done, kClients);
  // Fixed quiesce horizon: lets repair scans drain so backend counters and
  // the span fingerprint cover the post-fault convergence phase too.
  sim.RunUntil(sim::Milliseconds(400));

  Capture cap;
  FillFrom(cap, sim, cell, clients);
  return cap;
}

Capture RunReshardScenario(uint64_t seed) {
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
  cell.tracer().Enable(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.004;
  rates.delay = 0.02;
  rates.delay_mean = sim::Microseconds(40);
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(5), sim::Milliseconds(300));
  cell.fabric().InstallFaults(plan);

  ResharderOptions ro;
  ro.batch_bytes = 4 * 1024;
  ro.release_linger = sim::Milliseconds(10);
  Resharder resharder(cell, ro);

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    clients.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* client,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set(KeyName(k),
                                      Bytes(kValueBytes, std::byte{0x22}));
      EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    }
    loaded->Notify();
  }(clients[0], loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn(Traffic(sim, clients[c], seed + uint64_t(c) * 104729, loaded,
                      done));
  }

  // The elastic timeline rides under the traffic: grow, up-replicate,
  // replace a backend.
  auto timeline_done = std::make_shared<int>(0);
  sim.Spawn([](Resharder& r, std::shared_ptr<sim::Notification> loaded,
               std::shared_ptr<int> done) -> sim::Task<void> {
    co_await loaded->Wait();
    Status s = co_await r.Resize(4);
    EXPECT_TRUE(s.ok()) << "resize: " << s.ToString();
    s = co_await r.SetReplication(ReplicationMode::kR32);
    EXPECT_TRUE(s.ok()) << "set-replication: " << s.ToString();
    s = co_await r.ReplaceBackend(1);
    EXPECT_TRUE(s.ok()) << "replace: " << s.ToString();
    ++*done;
  }(resharder, loaded, timeline_done));

  while ((*done < kClients || *timeline_done < 1) && !sim.empty()) {
    sim.RunSteps(1024);
  }
  EXPECT_EQ(*done, kClients);
  EXPECT_EQ(*timeline_done, 1);
  sim.RunUntil(sim::Milliseconds(500));

  Capture cap;
  FillFrom(cap, sim, cell, clients);
  cap.repairs_issued += resharder.stats().records_streamed;  // fold in
  return cap;
}

// --- Recorded under the pre-overhaul scheduler (commit 2e72a17). ---------
// To re-record after an *intentional* behavior change (never for a
// scheduler/buffer refactor!), run with --gtest_also_run_disabled_tests
// and copy the printed capture lines.

TEST(DeterminismAB, ChaosSeedMatchesSeedScheduler) {
  Capture got = RunChaosScenario(0xC11Eu);
  got.Print("chaos");
  Capture want;
  want.fault_fingerprint = 0xc6acc4980426d5ffull;
  want.fault_trace_events = 52;
  want.span_fingerprint = 0xebab1043817f54ffull;
  want.spans_completed = 5012;
  want.sim_events = 9786;
  want.final_now = 400000000;
  want.gets = 134;
  want.hits = 134;
  want.sets = 122;
  want.retries = 0;
  want.torn_reads = 0;
  want.rma_reads = 0;
  want.rma_scars = 402;
  want.sets_applied = 362;
  want.repairs_issued = 0;
  ExpectEqual(got, want);
}

TEST(DeterminismAB, ReshardSeedMatchesSeedScheduler) {
  Capture got = RunReshardScenario(0x5EEDu);
  got.Print("reshard");
  Capture want;
  want.fault_fingerprint = 0xf13cadf5e4e7ad08ull;
  want.fault_trace_events = 28;
  want.span_fingerprint = 0x2b69b8a2f7db6365ull;
  want.spans_completed = 4983;
  want.sim_events = 10231;
  want.final_now = 1016507542;
  want.gets = 147;
  want.hits = 147;
  want.sets = 109;
  want.retries = 3;
  want.torn_reads = 0;
  want.rma_reads = 0;
  want.rma_scars = 439;
  want.sets_applied = 354;
  want.repairs_issued = 47;
  ExpectEqual(got, want);
}

// --- Batched MultiGet pin ------------------------------------------------
// The coalesced MultiGet pipeline (speculative peel, vectored index and
// data phases, batched overflow RPC, slowpath bounce) shares its quorum,
// replica-plan and vector-issue code with the single-key GET. This scenario
// drives it through chaos on both index strategies — SCAR on SoftNIC, 2xR
// on 1RMA — and pins everything it observes, so a refactor of the shared
// read pipeline must reproduce the batched schedule exactly.

struct BatchedCapture {
  uint64_t fault_fingerprint = 0;
  int64_t fault_trace_events = 0;
  uint64_t span_fingerprint = 0;
  int64_t spans_completed = 0;
  uint64_t sim_events = 0;
  int64_t final_now = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t batch_keys = 0;
  int64_t batch_vector_ops = 0;
  int64_t batch_vector_entries = 0;
  int64_t batch_rpc_fallbacks = 0;
  int64_t batch_slowpath_keys = 0;
  int64_t batch_inflight_waits = 0;
  int64_t spec_reads = 0;
  int64_t spec_failures = 0;
  uint64_t value_fp = 0;  // FNV-1a over every MultiGet slot's outcome

  friend bool operator==(const BatchedCapture&,
                         const BatchedCapture&) = default;

  void Print(const char* label) const {
    std::printf(
        "%s: fault_fp=0x%llxull events=%lld span_fp=0x%llxull spans=%lld\n"
        "  sim_events=%llu final_now=%lld hits=%lld misses=%lld\n"
        "  batch keys=%lld vector_ops=%lld vector_entries=%lld "
        "rpc_fallbacks=%lld slowpath=%lld inflight_waits=%lld\n"
        "  spec_reads=%lld spec_failures=%lld value_fp=0x%llxull\n",
        label, (unsigned long long)fault_fingerprint,
        (long long)fault_trace_events, (unsigned long long)span_fingerprint,
        (long long)spans_completed, (unsigned long long)sim_events,
        (long long)final_now, (long long)hits, (long long)misses,
        (long long)batch_keys, (long long)batch_vector_ops,
        (long long)batch_vector_entries, (long long)batch_rpc_fallbacks,
        (long long)batch_slowpath_keys, (long long)batch_inflight_waits,
        (long long)spec_reads, (long long)spec_failures,
        (unsigned long long)value_fp);
  }
};

constexpr int kBatchKeys = 40;     // written keys; b40..b47 stay absent
constexpr int kBatchHotKeys = 6;   // hot set: repeat reads hit the loccache

BatchedCapture RunBatchedScenario(TransportKind transport, uint64_t seed) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.transport = transport;
  o.seed = seed;
  // Narrow buckets with the overflow RPC fallback on, so some absence
  // quorums carry the overflow bit and take the batched RPC.
  o.backend.ways = 2;
  o.backend.initial_buckets = 8;
  o.backend.rpc_fallback_on_overflow = true;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  Cell cell(sim, std::move(o));
  cell.Start();
  cell.tracer().Enable(true);

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.01;
  rates.corrupt = 0.01;
  rates.duplicate = 0.005;
  rates.delay = 0.03;
  rates.delay_mean = sim::Microseconds(60);
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(10), sim::Milliseconds(150));
  plan->AddPartition(1, 2, sim::Milliseconds(30), sim::Milliseconds(70));
  plan->AddHostPause(3, sim::Milliseconds(50), sim::Milliseconds(2));
  cell.fabric().InstallFaults(plan);

  Client* writer = cell.AddClient();
  ClientConfig rc;
  rc.client_id = 2;
  rc.loccache_ttl = sim::Milliseconds(2);
  Client* reader = cell.AddClient(rc);

  auto loaded = std::make_shared<sim::Notification>(sim);
  auto done = std::make_shared<int>(0);
  sim.Spawn([](sim::Simulator& sim, Client* w, uint64_t seed,
               std::shared_ptr<sim::Notification> loaded,
               std::shared_ptr<int> done) -> sim::Task<void> {
    (void)co_await w->Connect();
    for (int k = 0; k < kBatchKeys; ++k) {
      (void)co_await w->Set("b" + std::to_string(k),
                            Bytes(96, std::byte{0x33}));
    }
    loaded->Notify();
    Rng rng(seed ^ 0x3A17E);
    for (int i = 0; i < 80; ++i) {
      co_await sim.Delay(
          sim::Microseconds(int64_t(400 + rng.NextBounded(1200))));
      const int k = rng.NextBool(0.5) ? int(rng.NextBounded(kBatchHotKeys))
                                      : int(rng.NextBounded(kBatchKeys));
      (void)co_await w->Set("b" + std::to_string(k),
                            Bytes(96, std::byte(uint8_t(1 + (i % 250)))));
    }
    ++*done;
  }(sim, writer, seed, loaded, done));

  // A backend crash mid-run: its replicas back off, get probed off the
  // serving path, and come back under a new config id.
  sim.Spawn([](sim::Simulator& sim, Cell& cell,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    co_await loaded->Wait();
    co_await sim.Delay(sim::Milliseconds(40));
    (void)co_await cell.CrashAndRestart(4, sim::Milliseconds(20));
  }(sim, cell, loaded));

  // Three concurrent MultiGet lanes on one reader, so vectors toward the
  // same backend overlap and queue at the incast gate.
  auto fp = std::make_shared<uint64_t>(0xcbf29ce484222325ull);
  for (uint64_t lane = 0; lane < 3; ++lane) {
    sim.Spawn([](sim::Simulator& sim, Client* r, uint64_t seed,
                 std::shared_ptr<sim::Notification> loaded,
                 std::shared_ptr<uint64_t> fp,
                 std::shared_ptr<int> done) -> sim::Task<void> {
      auto mix = [&fp](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
          *fp = (*fp ^ ((v >> (8 * b)) & 0xFF)) * 0x100000001b3ull;
        }
      };
      (void)co_await r->Connect();
      co_await loaded->Wait();
      Rng rng(seed ^ 0xB47C4);
      for (int round = 0; round < 70; ++round) {
        co_await sim.Delay(
            sim::Microseconds(int64_t(300 + rng.NextBounded(2500))));
        std::vector<std::string> keys;
        const int n = 6 + int(rng.NextBounded(12));
        for (int i = 0; i < n; ++i) {
          const int k = rng.NextBool(0.6)
                            ? int(rng.NextBounded(kBatchHotKeys))
                            : int(rng.NextBounded(kBatchKeys + 8));
          keys.push_back("b" + std::to_string(k));
        }
        auto batch = co_await r->MultiGet(std::move(keys));
        for (const auto& res : batch.results) {
          if (res.ok()) {
            mix(uint64_t(res->value.size()));
            mix(uint64_t(uint8_t(res->value[0])));
            mix((uint64_t(res->version.client_id) << 32) | res->version.seq);
            mix(res->version.tt_micros);
          } else {
            mix(uint64_t(res.status().code()) + 0x1000);
          }
        }
      }
      ++*done;
    }(sim, reader, seed + lane * 7919, loaded, fp, done));
  }

  while (*done < 4 && !sim.empty()) sim.RunSteps(1024);
  EXPECT_EQ(*done, 4);
  sim.RunUntil(sim::Milliseconds(400));

  BatchedCapture cap;
  cap.fault_fingerprint = cell.fabric().faults()->trace_fingerprint();
  cap.fault_trace_events = cell.fabric().faults()->trace_events();
  cap.span_fingerprint = cell.tracer().fingerprint();
  cap.spans_completed = cell.tracer().spans_completed();
  cap.sim_events = sim.events_processed();
  cap.final_now = sim.now();
  const ClientStats& s = reader->stats();
  cap.hits = s.hits;
  cap.misses = s.misses;
  cap.batch_keys = s.batch_keys;
  cap.batch_vector_ops = s.batch_vector_ops;
  cap.batch_vector_entries = s.batch_vector_entries;
  cap.batch_rpc_fallbacks = s.batch_rpc_fallbacks;
  cap.batch_slowpath_keys = s.batch_slowpath_keys;
  cap.batch_inflight_waits = s.batch_inflight_waits;
  cap.spec_reads = s.loccache_speculative_reads;
  cap.spec_failures = s.loccache_speculative_failures;
  cap.value_fp = *fp;
  // The crashed backend's cohort recovery may still be in flight at the
  // cutoff (a dropped repair RPC waits out its 1 s timeout). The simulator
  // never destroys a suspended frame, so drain the queue to let every
  // task finish and free its frame; the capture is already taken.
  sim.Run();
  return cap;
}

// Recorded before the single-key and batched GET paths were folded onto one
// read pipeline; the fold must not move any of these. Re-recorded when the
// backend's record walks and index re-placement took the index's own
// (bucket, way) order and cohort repair took ascending keyhash order: the
// CrashAndRestart below recovers through both.
TEST(DeterminismAB, BatchedMultiGetMatchesParent) {
  // SoftNIC: SCAR index phase (data piggybacked on the index read).
  const BatchedCapture scar =
      RunBatchedScenario(TransportKind::kSoftNic, 0xBA7Cu);
  scar.Print("batched-scar");
  BatchedCapture want_scar;
  want_scar.fault_fingerprint = 0x874569f7bff1f062ull;
  want_scar.fault_trace_events = 217;
  want_scar.span_fingerprint = 0x99c46824564d6b76ull;
  want_scar.spans_completed = 11491;
  want_scar.sim_events = 25600;
  want_scar.final_now = 1063508647;
  want_scar.hits = 1543;
  want_scar.misses = 155;
  want_scar.batch_keys = 1698;
  want_scar.batch_vector_ops = 1479;
  want_scar.batch_vector_entries = 3794;
  want_scar.batch_rpc_fallbacks = 166;
  want_scar.batch_slowpath_keys = 58;
  want_scar.batch_inflight_waits = 3;
  want_scar.spec_reads = 539;
  want_scar.spec_failures = 19;
  want_scar.value_fp = 0xc6414b861464a77full;
  EXPECT_EQ(scar, want_scar);

  // 1RMA: 2xR index phase plus a vectored data phase.
  const BatchedCapture two_r =
      RunBatchedScenario(TransportKind::kOneRma, 0xBA7Cu);
  two_r.Print("batched-2xr");
  BatchedCapture want_two_r;
  want_two_r.fault_fingerprint = 0xf7506e56b6507957ull;
  want_two_r.fault_trace_events = 276;
  want_two_r.span_fingerprint = 0x87c56ddde1bf4acaull;
  want_two_r.spans_completed = 15141;
  want_two_r.sim_events = 29490;
  want_two_r.final_now = 400000000;
  want_two_r.hits = 1539;
  want_two_r.misses = 155;
  want_two_r.batch_keys = 1698;
  want_two_r.batch_vector_ops = 1921;
  want_two_r.batch_vector_entries = 4585;
  want_two_r.batch_rpc_fallbacks = 165;
  want_two_r.batch_slowpath_keys = 100;
  want_two_r.batch_inflight_waits = 8;
  want_two_r.spec_reads = 533;
  want_two_r.spec_failures = 14;
  want_two_r.value_fp = 0xf9b88b146c9dd1e3ull;
  EXPECT_EQ(two_r, want_two_r);
}

// Same-process replay stability: the scenario is a pure function of its
// seed regardless of allocator / pool state left over from prior runs.
TEST(DeterminismAB, ChaosScenarioReplaysIdentically) {
  Capture a = RunChaosScenario(0xAB1Eu);
  Capture b = RunChaosScenario(0xAB1Eu);
  ExpectEqual(a, b);
}

}  // namespace
}  // namespace cm::cliquemap
