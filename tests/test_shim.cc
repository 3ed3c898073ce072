// Language shims (§6.2) and the MemcacheG baseline.
#include <gtest/gtest.h>

#include "baseline/memcacheg.h"
#include "cliquemap/cell.h"
#include "cliquemap/shim.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

struct ShimFixture : ::testing::Test {
  sim::Simulator sim;
  std::unique_ptr<Cell> cell;
  Client* client = nullptr;

  void SetUp() override {
    CellOptions o;
    o.num_shards = 3;
    o.mode = ReplicationMode::kR32;
    cell = std::make_unique<Cell>(sim, std::move(o));
    cell->Start();
    client = cell->AddClient();
    ASSERT_TRUE(RunOp(sim, client->Connect()).ok());
  }

  void TearDown() override {
    // ~LanguageShim wakes its serve loop through the event queue; drain it
    // so the loop retires before the simulator dies (leak-free under
    // -DCM_SANITIZE=ON).
    sim.Run();
  }
};

class ShimLangTest : public ShimFixture,
                     public ::testing::WithParamInterface<ShimLanguage> {};

TEST_P(ShimLangTest, RoundTripThroughShim) {
  LanguageShim shim(client, GetParam());
  ASSERT_TRUE(RunOp(sim, shim.Set("shim-key", ToBytes("shim-value"))).ok());
  auto got = RunOp(sim, shim.Get("shim-key"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "shim-value");
  ASSERT_TRUE(RunOp(sim, shim.Erase("shim-key")).ok());
  EXPECT_EQ(RunOp(sim, shim.Get("shim-key")).status().code(),
            StatusCode::kNotFound);
}

TEST_P(ShimLangTest, MissPropagatesThroughPipe) {
  LanguageShim shim(client, GetParam());
  EXPECT_EQ(RunOp(sim, shim.Get("absent")).status().code(),
            StatusCode::kNotFound);
}

TEST_P(ShimLangTest, MultiGetBatchesThroughOneFrame) {
  LanguageShim shim(client, GetParam());
  ASSERT_TRUE(RunOp(sim, shim.Set("mg-a", ToBytes("va"))).ok());
  ASSERT_TRUE(RunOp(sim, shim.Set("mg-c", ToBytes("vc"))).ok());
  const int64_t before = shim.messages();
  auto results = RunOp(sim, shim.MultiGet({"mg-a", "mg-absent", "mg-c"}));
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  EXPECT_EQ(ToString(results[0]->value), "va");
  EXPECT_EQ(results[1].status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(results[2].ok()) << results[2].status().ToString();
  EXPECT_EQ(ToString(results[2]->value), "vc");
  if (GetParam() != ShimLanguage::kCpp) {
    // The whole batch crossed the pipe as one frame.
    EXPECT_EQ(shim.messages() - before, 1);
  }
}

TEST_P(ShimLangTest, CasAppliesOnlyOnVersionMatch) {
  LanguageShim shim(client, GetParam());
  ASSERT_TRUE(RunOp(sim, shim.Set("cas-key", ToBytes("v1"))).ok());
  auto got = RunOp(sim, shim.Get("cas-key"));
  ASSERT_TRUE(got.ok());

  auto swapped = RunOp(sim, shim.Cas("cas-key", ToBytes("v2"), got->version));
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_TRUE(*swapped);
  auto after = RunOp(sim, shim.Get("cas-key"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(ToString(after->value), "v2");

  // Stale expected version: the swap must not take.
  auto stale = RunOp(sim, shim.Cas("cas-key", ToBytes("v3"), got->version));
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_FALSE(*stale);
  auto final_get = RunOp(sim, shim.Get("cas-key"));
  ASSERT_TRUE(final_get.ok());
  EXPECT_EQ(ToString(final_get->value), "v2");
}

INSTANTIATE_TEST_SUITE_P(Languages, ShimLangTest,
                         ::testing::Values(ShimLanguage::kCpp,
                                           ShimLanguage::kJava,
                                           ShimLanguage::kGo,
                                           ShimLanguage::kPython),
                         [](const auto& info) {
                           return std::string(ShimLanguageName(info.param));
                         });

TEST_F(ShimFixture, NonNativeLanguagesAreSlowerThanCpp) {
  ASSERT_TRUE(RunOp(sim, client->Set("lat", ToBytes("v"))).ok());
  ASSERT_TRUE(RunOp(sim, client->Get("lat")).ok());  // warm connections

  auto median_latency = [&](ShimLanguage lang) {
    LanguageShim shim(client, lang);
    Histogram h;
    for (int i = 0; i < 50; ++i) {
      sim::Time start = sim.now();
      EXPECT_TRUE(RunOp(sim, shim.Get("lat")).ok());
      h.Record(sim.now() - start);
    }
    return h.Percentile(0.5);
  };
  const int64_t cpp = median_latency(ShimLanguage::kCpp);
  const int64_t java = median_latency(ShimLanguage::kJava);
  const int64_t go = median_latency(ShimLanguage::kGo);
  const int64_t py = median_latency(ShimLanguage::kPython);
  // Fig 6c ordering: cpp < java < go < py.
  EXPECT_LT(cpp, java);
  EXPECT_LT(java, go);
  EXPECT_LT(go, py);
}

TEST_F(ShimFixture, ConcurrentShimOpsInterleave) {
  LanguageShim shim(client, ShimLanguage::kJava);
  int done = 0;
  for (int i = 0; i < 20; ++i) {
    sim.Spawn([](LanguageShim* s, int i, int& done) -> sim::Task<void> {
      (void)co_await s->Set("conc-" + std::to_string(i), ToBytes("v"));
      ++done;
    }(&shim, i, done));
  }
  sim.Run();
  EXPECT_EQ(done, 20);
  EXPECT_EQ(shim.messages(), 20);
}

// ---------------------------------------------------------------------------
// MemcacheG baseline
// ---------------------------------------------------------------------------

struct MemcachegFixture : ::testing::Test {
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  rpc::RpcNetwork network{fabric};
  std::vector<std::unique_ptr<baseline::MemcachegServer>> servers;
  std::unique_ptr<baseline::MemcachegClient> client;

  void SetUp() override {
    std::vector<net::HostId> hosts;
    for (int i = 0; i < 3; ++i) {
      hosts.push_back(fabric.AddHost(net::HostConfig{}));
      servers.push_back(
          std::make_unique<baseline::MemcachegServer>(network, hosts.back()));
    }
    client = std::make_unique<baseline::MemcachegClient>(
        network, fabric.AddHost(net::HostConfig{}), hosts);
  }
};

TEST_F(MemcachegFixture, SetGetDelete) {
  ASSERT_TRUE(RunOp(sim, client->Set("k", cm::ToBytes("v"))).ok());
  auto got = RunOp(sim, client->Get("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(cm::ToString(*got), "v");
  ASSERT_TRUE(RunOp(sim, client->Delete("k")).ok());
  EXPECT_EQ(RunOp(sim, client->Get("k")).status().code(),
            StatusCode::kNotFound);
}

TEST_F(MemcachegFixture, ShardsAcrossServers) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        RunOp(sim, client->Set("k" + std::to_string(i), cm::ToBytes("v"))).ok());
  }
  int populated = 0;
  for (const auto& s : servers) {
    if (s->entries() > 0) ++populated;
  }
  EXPECT_EQ(populated, 3);
}

TEST_F(MemcachegFixture, LruEvictionUnderCapacity) {
  baseline::MemcachegConfig small;
  small.capacity_bytes = 16 * 1024;
  auto host = fabric.AddHost(net::HostConfig{});
  baseline::MemcachegServer server(network, host, small);
  baseline::MemcachegClient c(network, fabric.AddHost(net::HostConfig{}),
                              {host});
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        RunOp(sim, c.Set("e" + std::to_string(i), Bytes(1024, std::byte{1})))
            .ok());
  }
  EXPECT_GT(server.evictions(), 0);
  EXPECT_LE(server.used_bytes(), small.capacity_bytes);
  EXPECT_TRUE(RunOp(sim, c.Get("e39")).ok());                      // recent
  EXPECT_FALSE(RunOp(sim, c.Get("e0")).ok());                      // evicted
}

TEST_F(MemcachegFixture, EveryGetBurnsFrameworkCpu) {
  ASSERT_TRUE(RunOp(sim, client->Set("cpu", cm::ToBytes("v"))).ok());
  int64_t before = 0;
  for (auto& s : servers) before += fabric.host(s->host()).cpu().total_busy_ns();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(RunOp(sim, client->Get("cpu")).ok());
  int64_t after = 0;
  for (auto& s : servers) after += fabric.host(s->host()).cpu().total_busy_ns();
  // Unlike CliqueMap's one-sided GETs, every MemcacheG GET costs server
  // CPU — the motivating contrast of §2.1.
  EXPECT_GT(after - before, 10 * sim::Microseconds(20));
}

}  // namespace
}  // namespace cm::cliquemap
