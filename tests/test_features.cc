// Post-deployment evolution features (§6.5, §9): value compression,
// customizable hash functions, and WAN-style RPC-only lookup clients.
#include <gtest/gtest.h>

#include "cliquemap/cell.h"
#include "cliquemap/compress.h"
#include "test_util.h"

namespace cm::cliquemap {
namespace {

// ---------------------------------------------------------------------------
// Compression codec
// ---------------------------------------------------------------------------

TEST(Compress, RoundTripCompressible) {
  Bytes value(10000, std::byte{0x55});  // all-same: RLE shines
  Bytes stored = CompressValue(value);
  EXPECT_LT(stored.size(), value.size() / 10);
  EXPECT_EQ(stored[0], kValueMarkerRle);
  auto back = DecompressValue(stored);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, value);
}

TEST(Compress, IncompressibleFallsBackToRaw) {
  Rng rng(5);
  Bytes value(512);
  for (auto& b : value) b = static_cast<std::byte>(rng.NextBounded(256));
  Bytes stored = CompressValue(value);
  EXPECT_EQ(stored[0], kValueMarkerRaw);
  EXPECT_EQ(stored.size(), value.size() + 1);
  auto back = DecompressValue(stored);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, value);
}

TEST(Compress, EmptyValue) {
  Bytes stored = CompressValue({});
  auto back = DecompressValue(stored);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(Compress, LongRunsSplitAt255) {
  Bytes value(1000, std::byte{7});
  auto back = DecompressValue(CompressValue(value));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 1000u);
}

TEST(Compress, MalformedRejected) {
  EXPECT_FALSE(DecompressValue({}).ok());
  Bytes bad = {std::byte{0x42}};  // unknown marker
  EXPECT_FALSE(DecompressValue(bad).ok());
  Bytes truncated = {kValueMarkerRle, std::byte{3}};  // odd RLE stream
  EXPECT_FALSE(DecompressValue(truncated).ok());
  Bytes zero_run = {kValueMarkerRle, std::byte{0}, std::byte{1}};
  EXPECT_FALSE(DecompressValue(zero_run).ok());
}

// ---------------------------------------------------------------------------
// Compression end to end
// ---------------------------------------------------------------------------

TEST(CompressEndToEnd, TransparentRoundTripAndDramSavings) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR32;
  Cell cell(sim, std::move(o));
  cell.Start();
  ClientConfig cc;
  cc.compress_values = true;
  Client* client = cell.AddClient(cc);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  Bytes padded(8192, std::byte{0});  // zero-padded record: very compressible
  for (int i = 0; i < 64; ++i) padded[size_t(i)] = std::byte(i);
  ASSERT_TRUE(RunOp(sim, client->Set("padded", padded)).ok());

  auto got = RunOp(sim, client->Get("padded"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, padded);  // decompression is transparent

  // The backend stores the compressed form.
  EXPECT_LT(cell.backend(0).data_used() + cell.backend(1).data_used() +
                cell.backend(2).data_used(),
            3 * padded.size() / 2);
  EXPECT_GT(client->stats().compress_bytes_in,
            client->stats().compress_bytes_out);
}

TEST(CompressEndToEnd, CasPreservesCompression) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR32;
  Cell cell(sim, std::move(o));
  cell.Start();
  ClientConfig cc;
  cc.compress_values = true;
  Client* client = cell.AddClient(cc);
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  ASSERT_TRUE(RunOp(sim, client->Set("k", Bytes(4096, std::byte{1}))).ok());
  auto got = RunOp(sim, client->Get("k"));
  ASSERT_TRUE(got.ok());
  auto applied = RunOp(sim, client->Cas("k", Bytes(4096, std::byte{2}),
                                        got->version));
  ASSERT_TRUE(applied.ok());
  EXPECT_TRUE(*applied);
  got = RunOp(sim, client->Get("k"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, Bytes(4096, std::byte{2}));
}

// ---------------------------------------------------------------------------
// Customizable hash functions (§6.5)
// ---------------------------------------------------------------------------

Hash128 ShiftedHash(std::string_view key) {
  Hash128 h = HashKey(key);
  return Hash128{h.lo, h.hi ^ 0x1234};  // a different but valid hash
}

TEST(CustomHash, CellWorksWithCustomHashEndToEnd) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 4;
  o.mode = ReplicationMode::kR32;
  o.hash_fn = &ShiftedHash;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, client->Connect()).ok());

  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(RunOp(sim, client->Set("h" + std::to_string(i),
                                       ToBytes("v" + std::to_string(i))))
                    .ok());
  }
  for (int i = 0; i < 100; ++i) {
    auto got = RunOp(sim, client->Get("h" + std::to_string(i)));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(ToString(got->value), "v" + std::to_string(i));
  }
  // Placement genuinely differs from the default hash for some key.
  bool differs = false;
  for (int i = 0; i < 100 && !differs; ++i) {
    const std::string key = "h" + std::to_string(i);
    differs = PrimaryShard(ShiftedHash(key), 4) !=
              PrimaryShard(HashKey(key), 4);
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// WAN access via RPC (Table 1 challenge 5)
// ---------------------------------------------------------------------------

TEST(WanAccess, RpcOnlyClientServesLookups) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR32;
  Cell cell(sim, std::move(o));
  cell.Start();
  Client* rma_client = cell.AddClient();
  ASSERT_TRUE(RunOp(sim, rma_client->Connect()).ok());
  ASSERT_TRUE(RunOp(sim, rma_client->Set("wan", ToBytes("payload"))).ok());

  // A WAN client cannot use RMA protocols (§3 item 5): pure RPC lookups.
  ClientConfig wan;
  wan.strategy = LookupStrategy::kRpc;
  wan.op_deadline = sim::Milliseconds(200);  // WAN-scale budget
  Client* wan_client = cell.AddClient(wan);
  ASSERT_TRUE(RunOp(sim, wan_client->Connect()).ok());
  auto got = RunOp(sim, wan_client->Get("wan"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(ToString(got->value), "payload");
  EXPECT_GT(wan_client->stats().rpc_fallback_gets, 0);
  // And no RMA ops were issued by this client: the counter belongs to the
  // shared transport, so instead verify misses also resolve via RPC.
  EXPECT_EQ(RunOp(sim, wan_client->Get("absent")).status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace cm::cliquemap
