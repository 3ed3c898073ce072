// R=2/Immutable mode (§6.4): an immutable corpus loaded from an external
// system of record; one replica consulted per GET, the second serving only
// on failure — R=1-like network behaviour with single-failure tolerance.
#include <gtest/gtest.h>

#include "cliquemap/cell.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

struct ImmutableFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cell> cell;
  Client* client = nullptr;

  void SetUp() override {
    CellOptions o;
    o.num_shards = 4;
    o.mode = ReplicationMode::kR2Immutable;
    o.backend.initial_buckets = 128;
    cell = std::make_unique<Cell>(sim, std::move(o));
    cell->Start();
    client = cell->AddClient();
    ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  }

  void Load(int keys) {
    std::vector<std::pair<std::string, Bytes>> corpus;
    for (int i = 0; i < keys; ++i) {
      corpus.emplace_back("imm-" + std::to_string(i),
                          ToBytes("value-" + std::to_string(i)));
    }
    ASSERT_TRUE(RunOp(sim, cell->LoadImmutable(std::move(corpus))).ok());
  }
};

TEST_F(ImmutableFixture, LoadedCorpusIsReadable) {
  Load(100);
  for (int i = 0; i < 100; ++i) {
    auto got = RunOp(sim, client->Get("imm-" + std::to_string(i)));
    ASSERT_TRUE(got.ok()) << i << " " << got.status().ToString();
    EXPECT_EQ(ToString(got->value), "value-" + std::to_string(i));
  }
}

TEST_F(ImmutableFixture, BothReplicasHoldTheCorpus) {
  Load(60);
  size_t total_entries = 0;
  for (uint32_t s = 0; s < cell->num_shards(); ++s) {
    total_entries += cell->backend(s).live_entries();
  }
  EXPECT_EQ(total_entries, 2u * 60u);  // two replicas per key
}

TEST_F(ImmutableFixture, GetConsultsOnlyOneReplica) {
  Load(50);
  // Warm connections first.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Get("imm-" + std::to_string(i))).ok());
  }
  const auto& stats = cell->softnic()->stats();
  const int64_t before = stats.reads + stats.scars;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Get("imm-" + std::to_string(i))).ok());
  }
  // One SCAR per GET (not two or three): only one replica is consulted.
  EXPECT_EQ(stats.reads + stats.scars - before, 50);
}

TEST_F(ImmutableFixture, SurvivesSingleBackendFailure) {
  Load(100);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Get("imm-" + std::to_string(i))).ok());
  }
  cell->CrashShard(1);
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    auto got = RunOp(sim, client->Get("imm-" + std::to_string(i)));
    if (got.ok()) ++hits;
  }
  // Every key remains servable from the surviving replica (the client
  // fails over after marking the dead replica).
  EXPECT_EQ(hits, 100);
}

TEST_F(ImmutableFixture, TwoFailuresLoseTheOverlap) {
  Load(100);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Get("imm-" + std::to_string(i))).ok());
  }
  cell->CrashShard(0);
  cell->CrashShard(1);
  // Keys whose two replicas were exactly {0,1} are now unavailable; keys
  // with at least one live replica still serve.
  int hits = 0, losses = 0;
  for (int i = 0; i < 100; ++i) {
    auto got = RunOp(sim, client->Get("imm-" + std::to_string(i)));
    (got.ok() ? hits : losses)++;
  }
  EXPECT_GT(hits, 0);
  EXPECT_GT(losses, 0);  // primaries on shard 0 lost both replicas
}

}  // namespace
}  // namespace cm::cliquemap
