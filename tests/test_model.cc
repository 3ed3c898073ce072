// Model-based consistency testing: random operation sequences applied to a
// real cell are checked key-by-key against an in-memory reference model.
// Catches protocol-level divergence (lost updates, resurrection after
// erase, wrong-value reads) across modes, transports, and geometry.
#include <gtest/gtest.h>

#include <map>

#include "cliquemap/cell.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

struct ModelParams {
  ReplicationMode mode;
  TransportKind transport;
  uint64_t seed;
};

class ModelTest : public ::testing::TestWithParam<ModelParams> {};

TEST_P(ModelTest, RandomOpsMatchReferenceModel) {
  const ModelParams params = GetParam();
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 4;
  o.mode = params.mode;
  o.transport = params.transport;
  o.backend.initial_buckets = 32;  // small: exercises resizes mid-sequence
  o.backend.ways = 8;
  o.backend.data_initial_bytes = 512 * 1024;
  o.backend.data_max_bytes = 16 << 20;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  Rng rng(params.seed);
  std::map<std::string, std::string> model;
  constexpr int kKeySpace = 120;
  constexpr int kOps = 1500;

  for (int op = 0; op < kOps; ++op) {
    const std::string key = "m" + std::to_string(rng.NextBounded(kKeySpace));
    const double dice = rng.NextDouble();
    if (dice < 0.45) {  // GET
      auto got = RunOp(sim, client->Get(key));
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << "op " << op << " key " << key << ": expected miss, got "
            << (got.ok() ? "hit" : got.status().ToString());
      } else {
        ASSERT_TRUE(got.ok()) << "op " << op << " key " << key << ": "
                              << got.status().ToString();
        EXPECT_EQ(ToString(got->value), it->second) << "op " << op;
      }
    } else if (dice < 0.80) {  // SET
      const std::string value =
          "v" + std::to_string(op) + "-" + rng.NextString(rng.NextBounded(64));
      ASSERT_TRUE(RunOp(sim, client->Set(key, ToBytes(value))).ok())
          << "op " << op;
      model[key] = value;
    } else if (dice < 0.95) {  // ERASE
      ASSERT_TRUE(RunOp(sim, client->Erase(key)).ok()) << "op " << op;
      model.erase(key);
    } else {  // CAS against the memoized (current) version
      auto got = RunOp(sim, client->Get(key));
      if (got.ok()) {
        const std::string value = "cas" + std::to_string(op);
        auto applied = RunOp(sim, client->Cas(key, ToBytes(value),
                                              got->version));
        ASSERT_TRUE(applied.ok()) << "op " << op;
        if (*applied) model[key] = value;
      }
    }
  }

  // Final audit: the entire keyspace matches the model.
  for (int k = 0; k < kKeySpace; ++k) {
    const std::string key = "m" + std::to_string(k);
    auto got = RunOp(sim, client->Get(key));
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(ToString(got->value), it->second) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelTest,
    ::testing::Values(
        ModelParams{ReplicationMode::kR32, TransportKind::kSoftNic, 1},
        ModelParams{ReplicationMode::kR32, TransportKind::kSoftNic, 2},
        ModelParams{ReplicationMode::kR32, TransportKind::kOneRma, 3},
        ModelParams{ReplicationMode::kR1, TransportKind::kSoftNic, 4},
        ModelParams{ReplicationMode::kR1, TransportKind::kClassicRdma, 5}),
    [](const auto& info) {
      std::string name =
          info.param.mode == ReplicationMode::kR1 ? "R1" : "R32";
      switch (info.param.transport) {
        case TransportKind::kSoftNic: name += "SoftNic"; break;
        case TransportKind::kOneRma: name += "OneRma"; break;
        case TransportKind::kClassicRdma: name += "Rdma"; break;
      }
      return name + "Seed" + std::to_string(info.param.seed);
    });

// The same audit but with a mid-sequence crash + recovery: the surviving
// quorum must preserve the model's state.
TEST(ModelCrashTest, StateSurvivesCrashRecovery) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 4;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  Rng rng(99);
  std::map<std::string, std::string> model;
  auto mutate = [&](int rounds) {
    for (int op = 0; op < rounds; ++op) {
      const std::string key = "c" + std::to_string(rng.NextBounded(60));
      if (rng.NextBool(0.8)) {
        const std::string value = "v" + std::to_string(op) + rng.NextString(8);
        ASSERT_TRUE(RunOp(sim, client->Set(key, ToBytes(value))).ok());
        model[key] = value;
      } else {
        ASSERT_TRUE(RunOp(sim, client->Erase(key)).ok());
        model.erase(key);
      }
    }
  };
  mutate(300);
  cell.CrashShard(2);
  mutate(300);  // mutations proceed on the 2/3 quorum
  ASSERT_TRUE(RunOp(sim, cell.CrashAndRestart(2, sim::Seconds(1))).ok());
  mutate(300);

  for (const auto& [key, value] : model) {
    auto got = RunOp(sim, client->Get(key));
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(ToString(got->value), value) << key;
  }
  // All three replicas agree on every key's version after recovery+repair.
  RunOp(sim, cell.backend(0).RepairScanOnce());
  for (const auto& [key, value] : model) {
    const uint32_t primary = PrimaryShard(HashKey(key), 4);
    auto v0 = cell.backend(ReplicaShard(primary, 0, 4)).LookupVersion(key);
    auto v1 = cell.backend(ReplicaShard(primary, 1, 4)).LookupVersion(key);
    ASSERT_TRUE(v0.has_value()) << key;
    ASSERT_TRUE(v1.has_value()) << key;
  }
}

}  // namespace
}  // namespace cm::cliquemap
