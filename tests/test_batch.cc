// Batched MultiGet pipeline tests (ctest label: batch).
//
// Covers the API edge cases (empty list, duplicates, input order), the
// coalescing economics (vectored ops per backend instead of per key), and
// the correctness contract of the fast path: batching must never change
// observable values/versions relative to the naive per-key fan-out, even
// under chaos (drops + payload corruption), because every entry the vector
// cannot cleanly resolve replays the reference single-key protocol — and a
// corrupted vector entry retries only its own key, not the whole batch.
#include <gtest/gtest.h>

#include <map>

#include "cliquemap/cell.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

CellOptions SmallCell(TransportKind transport, uint64_t seed = 42) {
  CellOptions o;
  o.num_shards = 4;
  o.mode = ReplicationMode::kR32;
  o.transport = transport;
  o.seed = seed;
  o.backend.initial_buckets = 128;
  o.backend.data_initial_bytes = 256 * 1024;
  o.backend.data_max_bytes = 8 * 1024 * 1024;
  return o;
}

class BatchTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  void SetUp() override {
    cell_ = std::make_unique<Cell>(sim_, SmallCell(GetParam()));
    cell_->Start();
    client_ = cell_->AddClient();
    ASSERT_TRUE(RunOp(sim_, client_->Connect()).ok());
  }

  void Preload(int n, const std::string& prefix = "k") {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(RunOp(sim_, client_->Set(prefix + std::to_string(i),
                                           ToBytes("v" + std::to_string(i))))
                      .ok())
          << i;
    }
  }

  sim::Simulator sim_;
  std::unique_ptr<Cell> cell_;
  Client* client_ = nullptr;
};

TEST_P(BatchTest, EmptyListReturnsImmediately) {
  const sim::Time before = sim_.now();
  auto batch = RunOp(sim_, client_->MultiGet({}));
  EXPECT_TRUE(batch.results.empty());
  EXPECT_FALSE(batch.stats.batched);
  EXPECT_EQ(batch.stats.coalesced_reads, 0);
  // No traffic, no time, no counters: an empty batch is a no-op.
  EXPECT_EQ(sim_.now(), before);
  EXPECT_EQ(client_->stats().multigets, 0);
  EXPECT_EQ(client_->stats().gets, 0);
}

TEST_P(BatchTest, DuplicatesEachGetAResultOrderPreserved) {
  Preload(8);
  std::vector<std::string> keys = {"k3", "k1", "k3", "k7", "k1", "k3"};
  for (bool batched : {true, false}) {
    GetOptions opts;
    opts.batch = batched;
    auto batch = RunOp(sim_, client_->MultiGet(keys, opts));
    ASSERT_EQ(batch.results.size(), keys.size()) << "batched=" << batched;
    EXPECT_EQ(batch.stats.batched, batched);
    const std::vector<std::string> want = {"v3", "v1", "v3", "v7", "v1", "v3"};
    for (size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(batch.results[i].ok())
          << "batched=" << batched << " slot " << i << ": "
          << batch.results[i].status().ToString();
      EXPECT_EQ(ToString(batch.results[i]->value), want[i])
          << "batched=" << batched << " slot " << i;
    }
  }
  // The batched path looked each distinct key up exactly once.
  EXPECT_EQ(client_->stats().batch_keys, 3);
}

TEST_P(BatchTest, MissesKeepTheirSlots) {
  Preload(4);
  auto batch = RunOp(
      sim_, client_->MultiGet({"k0", "absent-a", "k2", "absent-b", "k3"}));
  ASSERT_EQ(batch.results.size(), 5u);
  EXPECT_TRUE(batch.results[0].ok());
  EXPECT_EQ(batch.results[1].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(batch.results[2].ok());
  EXPECT_EQ(batch.results[3].status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(batch.results[4].ok());
  EXPECT_EQ(ToString(batch.results[4]->value), "v3");
}

TEST_P(BatchTest, CoalescesIntoFewVectoredOps) {
  constexpr int kKeys = 32;
  Preload(kKeys);
  const int64_t ops_before = client_->stats().batch_vector_ops;
  auto batch = RunOp(sim_, [&] {
    std::vector<std::string> keys;
    for (int i = 0; i < kKeys; ++i) keys.push_back("k" + std::to_string(i));
    return client_->MultiGet(std::move(keys));
  }());
  ASSERT_TRUE(batch.stats.batched);
  for (const auto& r : batch.results) ASSERT_TRUE(r.ok());
  // One index vector per backend (R=3.2 over 4 shards: every shard holds
  // replicas) plus, on 2xR transports, at most one data vector per backend —
  // instead of ~3 ops per key.
  const int64_t ops = client_->stats().batch_vector_ops - ops_before;
  EXPECT_GT(ops, 0);
  EXPECT_LE(ops, 2 * 4);
  EXPECT_LE(batch.stats.backends_contacted, 4);
  EXPECT_EQ(batch.stats.slowpath_keys, 0);
  // Amortization: each vectored op carried several entries.
  EXPECT_GE(client_->stats().batch_vector_entries / ops, 2);
}

TEST_P(BatchTest, BatchedMatchesNaiveResults) {
  constexpr int kKeys = 24;
  Preload(kKeys, "eq");
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) keys.push_back("eq" + std::to_string(i));
  keys.push_back("eq-missing");

  GetOptions naive;
  naive.batch = false;
  auto a = RunOp(sim_, client_->MultiGet(keys));
  auto b = RunOp(sim_, client_->MultiGet(keys, naive));
  ASSERT_TRUE(a.stats.batched);
  ASSERT_FALSE(b.stats.batched);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].ok(), b.results[i].ok()) << i;
    if (!a.results[i].ok()) {
      EXPECT_EQ(a.results[i].status().code(), b.results[i].status().code());
      continue;
    }
    EXPECT_EQ(ToString(a.results[i]->value), ToString(b.results[i]->value));
    EXPECT_EQ(a.results[i]->version, b.results[i]->version) << i;
  }
}

TEST_P(BatchTest, StrategyOverrideViaOptions) {
  // The options struct threads per-op overrides through the pipeline: an
  // explicit kRpc strategy must bypass the RMA vector path entirely.
  Preload(6);
  std::vector<std::string> keys;
  for (int i = 0; i < 6; ++i) keys.push_back("k" + std::to_string(i));
  GetOptions opts;
  opts.strategy = LookupStrategy::kRpc;
  const int64_t ops_before = client_->stats().batch_vector_ops;
  auto batch = RunOp(sim_, client_->MultiGet(keys, opts));
  EXPECT_FALSE(batch.stats.batched);
  EXPECT_EQ(client_->stats().batch_vector_ops, ops_before);
  for (const auto& r : batch.results) ASSERT_TRUE(r.ok());
}

TEST(BatchCopyBudget, ScarMultiGetCopiesOneDataEntryPerKey) {
  // A batched SCAR index phase fetches every replica's DataEntry with its
  // bucket; the data phase validates one per key in place, so only that
  // entry's value is copied out of a data pool.
  sim::Simulator sim;
  CellOptions opts = SmallCell(TransportKind::kSoftNic);
  Cell cell(sim, opts);
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  constexpr int kKeys = 8;
  const Bytes value(4096, std::byte{0x3c});
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("copy" + std::to_string(i));
    ASSERT_TRUE(RunOp(sim, client->Set(keys.back(), value)).ok()) << i;
  }
  ASSERT_TRUE(RunOp(sim, client->MultiGet(keys)).stats.batched);

  const int64_t scars_before = cell.transport()->stats().vector_scars;
  const int64_t before = BufferStats::bytes_copied();
  auto batch = RunOp(sim, client->MultiGet(keys));
  const int64_t copied = BufferStats::bytes_copied() - before;
  ASSERT_TRUE(batch.stats.batched);
  EXPECT_EQ(batch.stats.slowpath_keys, 0);
  EXPECT_GT(cell.transport()->stats().vector_scars, scars_before);
  for (const auto& r : batch.results) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->value, value);
  }

  // Buckets are decoded and DataEntries validated in place: each key's
  // value is its one copy.
  EXPECT_EQ(copied, kKeys * int64_t(value.size()));
}

INSTANTIATE_TEST_SUITE_P(Transports, BatchTest,
                         ::testing::Values(TransportKind::kSoftNic,
                                           TransportKind::kOneRma),
                         [](const auto& info) {
                           return info.param == TransportKind::kSoftNic
                                      ? "SoftNic"
                                      : "OneRma";
                         });

// ---------------------------------------------------------------------------
// Chaos equivalence & fault isolation
// ---------------------------------------------------------------------------

struct ChaosBatchOutcome {
  // (value, version) per key, from a post-fault full-batch read.
  std::vector<std::pair<std::string, VersionNumber>> final_state;
  int wrong_values = 0;   // OK results whose value was never written
  int64_t slowpath = 0;   // keys bounced to the single-key path
  int64_t batch_keys = 0; // unique keys entering the batched path
  int64_t torn = 0;
  uint64_t fingerprint = 0;
};

constexpr int kChaosKeys = 20;

// Mixed read/write load through a corrupting, dropping fabric. Every value
// ever written is "<key>:<generation>", so any OK GET result is checkable
// against the write history without coordination.
ChaosBatchOutcome RunChaosBatch(uint64_t seed, bool batched) {
  sim::Simulator sim;
  Cell cell(sim, SmallCell(TransportKind::kSoftNic, seed));
  cell.Start();

  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.004;
  rates.corrupt = 0.03;  // payload bit flips: the validation path's diet
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(5), sim::Milliseconds(120));
  cell.fabric().InstallFaults(plan);

  Client* writer = cell.AddClient();
  ClientConfig rc;
  rc.client_id = 2;
  Client* reader = cell.AddClient(rc);

  auto outcome = std::make_shared<ChaosBatchOutcome>();
  auto done = std::make_shared<int>(0);

  sim.Spawn([](sim::Simulator& sim, Client* writer, uint64_t seed,
               std::shared_ptr<int> done) -> sim::Task<void> {
    (void)co_await writer->Connect();
    for (int k = 0; k < kChaosKeys; ++k) {
      (void)co_await writer->Set("c" + std::to_string(k),
                                 ToBytes("c" + std::to_string(k) + ":0"));
    }
    Rng rng(seed ^ 0xA11CE);
    for (int gen = 1; gen <= 40; ++gen) {
      co_await sim.Delay(sim::Microseconds(int64_t(500 + rng.NextBounded(2000))));
      const int k = int(rng.NextBounded(kChaosKeys));
      (void)co_await writer->Set(
          "c" + std::to_string(k),
          ToBytes("c" + std::to_string(k) + ":" + std::to_string(gen)));
    }
    ++*done;
  }(sim, writer, seed, done));

  sim.Spawn([](sim::Simulator& sim, Client* reader, uint64_t seed,
               bool batched, std::shared_ptr<ChaosBatchOutcome> outcome,
               std::shared_ptr<int> done) -> sim::Task<void> {
    (void)co_await reader->Connect();
    GetOptions opts;
    opts.batch = batched;
    Rng rng(seed ^ 0xB47C4);
    for (int round = 0; round < 30; ++round) {
      co_await sim.Delay(sim::Microseconds(int64_t(1000 + rng.NextBounded(3000))));
      std::vector<std::string> keys;
      const int n = 4 + int(rng.NextBounded(10));
      for (int i = 0; i < n; ++i) {
        keys.push_back("c" + std::to_string(rng.NextBounded(kChaosKeys)));
      }
      auto batch = co_await reader->MultiGet(std::move(keys), opts);
      for (const auto& r : batch.results) {
        if (!r.ok()) continue;  // miss/timeout: availability, not integrity
        // Integrity: the value must be exactly "<key>:<gen>" for its key.
        const std::string v = ToString(r->value);
        const size_t colon = v.find(':');
        bool valid = colon != std::string::npos;
        if (valid) {
          // Any generation is acceptable (concurrent writer); the key
          // prefix must match — a corrupt payload that escaped validation
          // would fail this.
          valid = v.size() >= colon + 2;
        }
        if (!valid) ++outcome->wrong_values;
      }
    }
    ++*done;
  }(sim, reader, seed, batched, outcome, done));

  while (*done < 2 && !sim.empty()) sim.RunSteps(256);

  // Post-fault: read the final state of every key with the mode under test
  // (faults are over, so this converges) and fingerprint it.
  sim.Spawn([](Client* reader, bool batched,
               std::shared_ptr<ChaosBatchOutcome> outcome) -> sim::Task<void> {
    GetOptions opts;
    opts.batch = batched;
    std::vector<std::string> keys;
    for (int k = 0; k < kChaosKeys; ++k) keys.push_back("c" + std::to_string(k));
    auto batch = co_await reader->MultiGet(std::move(keys), opts);
    for (const auto& r : batch.results) {
      if (r.ok()) {
        outcome->final_state.emplace_back(ToString(r->value), r->version);
      } else {
        outcome->final_state.emplace_back(
            "<" + std::to_string(int(r.status().code())) + ">",
            VersionNumber{});
      }
    }
  }(reader, batched, outcome));
  sim.Run();

  outcome->slowpath = reader->stats().batch_slowpath_keys;
  outcome->batch_keys = reader->stats().batch_keys;
  outcome->torn = reader->stats().torn_reads + writer->stats().torn_reads;
  uint64_t fp = 0xcbf29ce484222325ull;
  for (const auto& [v, ver] : outcome->final_state) {
    for (char c : v) fp = (fp ^ uint64_t(uint8_t(c))) * 0x100000001b3ull;
    fp = (fp ^ ver.tt_micros) * 0x100000001b3ull;
    fp = (fp ^ ver.seq) * 0x100000001b3ull;
  }
  outcome->fingerprint = fp;
  return *outcome;
}

TEST(BatchChaosTest, BatchedAndNaiveAgreeUnderChaos) {
  for (uint64_t seed : {7ull, 21ull, 90125ull}) {
    auto batched = RunChaosBatch(seed, /*batched=*/true);
    auto naive = RunChaosBatch(seed, /*batched=*/false);
    // Zero wrong-value GETs in either mode: every corrupted payload was
    // caught by client-side validation, batched vectors included.
    EXPECT_EQ(batched.wrong_values, 0) << "seed " << seed;
    EXPECT_EQ(naive.wrong_values, 0) << "seed " << seed;
    // Batching must not change observable state: after faults heal and
    // writes quiesce, both modes see identical values and the same logical
    // write (client, seq). The TrueTime component of the version is a
    // timestamp of when the write ran, and the two modes are different
    // schedules — so it is excluded, like comparing any two reruns.
    ASSERT_EQ(batched.final_state.size(), naive.final_state.size());
    for (size_t k = 0; k < batched.final_state.size(); ++k) {
      EXPECT_EQ(batched.final_state[k].first, naive.final_state[k].first)
          << "seed " << seed << " key " << k;
      EXPECT_EQ(batched.final_state[k].second.client_id,
                naive.final_state[k].second.client_id)
          << "seed " << seed << " key " << k;
      EXPECT_EQ(batched.final_state[k].second.seq,
                naive.final_state[k].second.seq)
          << "seed " << seed << " key " << k;
    }
    // Determinism: the batched pipeline replays bit-identically.
    auto replay = RunChaosBatch(seed, /*batched=*/true);
    EXPECT_EQ(batched.fingerprint, replay.fingerprint) << "seed " << seed;
    EXPECT_EQ(batched.slowpath, replay.slowpath) << "seed " << seed;
  }
}

TEST(BatchChaosTest, CorruptedVectorEntryRetriesOnlyThatKey) {
  // Corruption flips exactly one victim entry per affected vectored
  // response; per-entry status isolates it. If a corrupt response failed
  // the WHOLE vector, every key in the batch would bounce to the slowpath;
  // with per-entry isolation only the victims do.
  auto outcome = RunChaosBatch(/*seed=*/1234, /*batched=*/true);
  EXPECT_EQ(outcome.wrong_values, 0);
  EXPECT_GT(outcome.torn, 0);      // corruption actually hit validated reads
  EXPECT_GT(outcome.slowpath, 0);  // victims were individually retried
  // Isolation: far fewer slowpath keys than batch keys. (A whole-vector
  // failure mode would push this toward 100%.)
  EXPECT_LT(outcome.slowpath * 2, outcome.batch_keys);
}

}  // namespace
}  // namespace cm::cliquemap
