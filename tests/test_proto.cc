// Protocol codec tests: packed record formats, the GET-reply codec and the
// cell-view codec, including forward/backward-compat properties.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "cliquemap/cell.h"
#include "cliquemap/config_service.h"
#include "cliquemap/proto.h"

namespace cm::cliquemap::proto {
namespace {

TEST(RepairRecords, RoundTrip) {
  Bytes blob;
  std::vector<RepairRecord> in;
  for (int i = 0; i < 10; ++i) {
    RepairRecord r;
    r.keyhash = HashKey("k" + std::to_string(i));
    r.version = VersionNumber{uint64_t(100 + i), uint32_t(i), uint32_t(i * 2)};
    r.erased = (i % 3) == 0;
    in.push_back(r);
    AppendRepairRecord(blob, r);
  }
  EXPECT_EQ(blob.size(), 10 * kRepairRecordBytes);
  auto out = ParseRepairRecords(blob);
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].keyhash, in[i].keyhash);
    EXPECT_EQ(out[i].version, in[i].version);
    EXPECT_EQ(out[i].erased, in[i].erased);
  }
}

TEST(RepairRecords, TruncatedTailIgnored) {
  Bytes blob;
  AppendRepairRecord(blob, RepairRecord{HashKey("a"), {1, 1, 1}, false});
  blob.resize(blob.size() + 7);  // garbage partial record
  EXPECT_EQ(ParseRepairRecords(blob).size(), 1u);
}

TEST(TouchRecords, RoundTrip) {
  Bytes blob;
  std::vector<Hash128> in;
  for (int i = 0; i < 64; ++i) {
    in.push_back(HashKey("t" + std::to_string(i)));
    AppendTouchRecord(blob, in.back());
  }
  auto out = ParseTouchRecords(blob);
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], in[i]);
}

TEST(BulkRecords, RoundTripMixed) {
  Bytes blob;
  AppendBulkRecord(blob, "live-key", AsByteSpan("payload"),
                   VersionNumber{5, 6, 7});
  AppendBulkRecord(blob, "erased-key", {}, VersionNumber{9, 9, 9}, true);
  AppendBulkRecord(blob, "", {}, VersionNumber{100, 0, 0}, true);  // summary
  auto out = ParseBulkRecords(blob);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, "live-key");
  EXPECT_EQ(ToString(out[0].value), "payload");
  EXPECT_FALSE(out[0].erased);
  EXPECT_TRUE(out[1].erased);
  EXPECT_TRUE(out[2].key.empty());
  EXPECT_EQ(out[2].version.tt_micros, 100u);
}

TEST(BulkRecords, EmptyAndHugeValues) {
  Bytes blob;
  Bytes big(100000, std::byte{0x77});
  AppendBulkRecord(blob, "big", big, VersionNumber{1, 1, 1});
  auto out = ParseBulkRecords(blob);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].value.size(), big.size());
}

TEST(VersionCodec, PutGetRoundTrip) {
  rpc::WireWriter w;
  PutVersion(w, VersionNumber{0xDEADBEEF12345678ull, 42, 7});
  PutVersion(w, VersionNumber{1, 2, 3}, kTagExpectedTt);
  rpc::WireReader r(w.bytes());
  auto v = GetVersion(r);
  auto e = GetVersion(r, kTagExpectedTt);
  ASSERT_TRUE(v && e);
  EXPECT_EQ(v->tt_micros, 0xDEADBEEF12345678ull);
  EXPECT_EQ(e->seq, 3u);
}

TEST(VersionCodec, MissingFieldsAreNullopt) {
  rpc::WireWriter w;
  w.PutU64(kTagVersionTt, 1);  // client/seq absent
  rpc::WireReader r(w.bytes());
  EXPECT_FALSE(GetVersion(r).has_value());
}

// ---------------------------------------------------------------------------
// GET-reply codec (PutHit / GetHit) and the GET request builder
// ---------------------------------------------------------------------------

std::string Hex(ByteSpan b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::byte x : b) {
    out.push_back(kDigits[static_cast<uint8_t>(x) >> 4]);
    out.push_back(kDigits[static_cast<uint8_t>(x) & 0xf]);
  }
  return out;
}

// Golden reply frames for key "golden-key" = "golden-value" stored at
// version {0x0102030405060708, 0x11, 0x22} (erased at {…0709, 0x11, 0x23}),
// as the backend's Get, DegradedGet, MultiGet and GetByHash handlers put
// them on the wire. Deployed clients parse these bytes, so both the codec
// and the live handlers must produce them exactly.
const std::string kGetFrame =
    "0200020c000000676f6c64656e2d76616c7565"  // kTagValue "golden-value"
    "0300010807060504030201"                  // kTagVersionTt
    "04000011000000"                          // kTagVersionClient
    "05000022000000";                         // kTagVersionSeq
const std::string kDegradedHitFrame = "47000000000000" + kGetFrame;
const std::string kMultiGetFrame = "46000233000000" "47000000000000" +
                                   kGetFrame +
                                   "46000207000000" "47000001000000";
const std::string kGetByHashFrame =
    "0100020a000000676f6c64656e2d6b6579" + kGetFrame;
const std::string kDegradedTombstoneFrame =
    "47000001000000" "4800010907060504030201" "490000110000004a000023000000";

constexpr VersionNumber kGoldenVersion{0x0102030405060708ull, 0x11, 0x22};
constexpr VersionNumber kGoldenTombstone{0x0102030405060709ull, 0x11, 0x23};

TEST(GetReplyCodec, EncoderMatchesGoldenFrames) {
  const Bytes value = ToBytes("golden-value");
  rpc::WireWriter get;
  PutHit(get, value, kGoldenVersion);
  EXPECT_EQ(Hex(get.bytes()), kGetFrame);

  rpc::WireWriter degraded;
  degraded.PutU32(kTagStatusCode, static_cast<uint32_t>(StatusCode::kOk));
  PutHit(degraded, value, kGoldenVersion);
  EXPECT_EQ(Hex(degraded.bytes()), kDegradedHitFrame);

  rpc::WireWriter hit_sub, miss_sub, multi;
  hit_sub.PutU32(kTagStatusCode, static_cast<uint32_t>(StatusCode::kOk));
  PutHit(hit_sub, value, kGoldenVersion);
  miss_sub.PutU32(kTagStatusCode, static_cast<uint32_t>(StatusCode::kNotFound));
  multi.PutBytes(kTagResult, hit_sub.bytes());
  multi.PutBytes(kTagResult, miss_sub.bytes());
  EXPECT_EQ(Hex(multi.bytes()), kMultiGetFrame);

  rpc::WireWriter by_hash;
  by_hash.PutString(kTagKey, "golden-key");
  PutHit(by_hash, value, kGoldenVersion);
  EXPECT_EQ(Hex(by_hash.bytes()), kGetByHashFrame);

  rpc::WireWriter tomb;
  tomb.PutU32(kTagStatusCode, static_cast<uint32_t>(StatusCode::kNotFound));
  PutVersion(tomb, kGoldenTombstone, kTagTombstoneTt);
  EXPECT_EQ(Hex(tomb.bytes()), kDegradedTombstoneFrame);
}

template <typename T>
T Await(sim::Simulator& sim, sim::Task<T> task) {
  auto out = std::make_shared<std::optional<T>>();
  sim.Spawn([](sim::Task<T> t,
               std::shared_ptr<std::optional<T>> out) -> sim::Task<void> {
    *out = co_await std::move(t);
  }(std::move(task), out));
  sim.Run();
  EXPECT_TRUE(out->has_value()) << "op did not complete";
  return **out;
}

// The live Get, DegradedGet (hit and tombstone), MultiGet and GetByHash
// handlers still answer with the golden frames.
TEST(GetReplyCodec, BackendRepliesMatchGoldenFrames) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 1;
  o.mode = ReplicationMode::kR1;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();
  const net::HostId from = cell.fabric().AddHost(cell.options().client_host);
  rpc::RpcChannel ch(cell.rpc_network(), from, cell.backend(0).host());
  auto call = [&](const char* method, Bytes req) {
    auto resp = Await(sim, ch.Call(method, std::move(req), sim::Seconds(1)));
    EXPECT_TRUE(resp.ok()) << method << ": " << resp.status().ToString();
    return resp.ok() ? Hex(*resp) : std::string();
  };
  const std::string key = "golden-key";
  rpc::WireWriter set;
  set.PutString(kTagKey, key);
  set.PutString(kTagValue, "golden-value");
  PutVersion(set, kGoldenVersion);
  call(kMethodSet, std::move(set).Take());

  EXPECT_EQ(call(kMethodGet, GetRequest(key, 0)), kGetFrame);
  EXPECT_EQ(call(kMethodDegradedGet, GetRequest(key, 0)), kDegradedHitFrame);
  const std::string_view keys[] = {key, "missing-key"};
  EXPECT_EQ(call(kMethodMultiGet, GetRequest(keys, 0)), kMultiGetFrame);
  const Hash128 h = HashKey(key);
  rpc::WireWriter by_hash;
  by_hash.PutU64(kTagHashHi, h.hi);
  by_hash.PutU64(kTagHashLo, h.lo);
  EXPECT_EQ(call(kMethodGetByHash, std::move(by_hash).Take()), kGetByHashFrame);

  rpc::WireWriter erase;
  erase.PutString(kTagKey, key);
  PutVersion(erase, kGoldenTombstone);
  call(kMethodErase, std::move(erase).Take());
  EXPECT_EQ(call(kMethodDegradedGet, GetRequest(key, 0)),
            kDegradedTombstoneFrame);
}

TEST(GetReplyCodec, RoundTrips) {
  const Bytes value = ToBytes("some value bytes");
  const VersionNumber v{0xDEADBEEF12345678ull, 42, 7};
  {  // plain hit
    rpc::WireWriter w;
    PutHit(w, value, v);
    auto hit = GetHit(rpc::WireReader(w.bytes()));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(Bytes(hit->value.begin(), hit->value.end()), value);
    EXPECT_EQ(hit->version, v);
  }
  {  // empty value is still a hit
    rpc::WireWriter w;
    PutHit(w, ByteSpan(), v);
    auto hit = GetHit(rpc::WireReader(w.bytes()));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->value.empty());
  }
  {  // absent with a tombstone: no hit, the tombstone version survives
    rpc::WireWriter w;
    w.PutU32(kTagStatusCode, static_cast<uint32_t>(StatusCode::kNotFound));
    PutVersion(w, v, kTagTombstoneTt);
    rpc::WireReader r(w.bytes());
    EXPECT_FALSE(GetHit(r).has_value());
    auto tomb = GetVersion(r, kTagTombstoneTt);
    ASSERT_TRUE(tomb.has_value());
    EXPECT_EQ(*tomb, v);
  }
  {  // GetByHash: the key rides ahead of the hit
    rpc::WireWriter w;
    w.PutString(kTagKey, "the-key");
    PutHit(w, value, v);
    rpc::WireReader r(w.bytes());
    EXPECT_EQ(r.GetString(kTagKey), "the-key");
    auto hit = GetHit(r);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(Bytes(hit->value.begin(), hit->value.end()), value);
    EXPECT_EQ(hit->version, v);
  }
}

TEST(GetReplyCodec, DecoderRejectsTruncatedAndIncompleteFrames) {
  const Bytes value = ToBytes("value");
  const VersionNumber v{9, 8, 7};
  rpc::WireWriter full;
  PutHit(full, value, v);
  const Bytes& frame = full.bytes();
  // Every strict prefix loses at least the last version component.
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(GetHit(rpc::WireReader(ByteSpan(frame.data(), n))))
        << "prefix of " << n << " bytes";
  }
  rpc::WireWriter no_value;
  PutVersion(no_value, v);
  EXPECT_FALSE(GetHit(rpc::WireReader(no_value.bytes())));
  // Each version component missing in turn.
  for (int missing = 0; missing < 3; ++missing) {
    rpc::WireWriter w;
    w.PutBytes(kTagValue, value);
    if (missing != 0) w.PutU64(kTagVersionTt, v.tt_micros);
    if (missing != 1) w.PutU32(kTagVersionClient, v.client_id);
    if (missing != 2) w.PutU32(kTagVersionSeq, v.seq);
    EXPECT_FALSE(GetHit(rpc::WireReader(w.bytes())))
        << "version component " << missing << " missing";
  }
  // A value under the wrong wire type is no value.
  rpc::WireWriter wrong_type;
  wrong_type.PutU32(kTagValue, 5);
  PutVersion(wrong_type, v);
  EXPECT_FALSE(GetHit(rpc::WireReader(wrong_type.bytes())));
}

TEST(GetRequestCodec, UntenantedIsKeyOnlyAndTenantAppends) {
  rpc::WireWriter key_only;
  key_only.PutString(kTagKey, "k1");
  EXPECT_EQ(GetRequest("k1", 0), key_only.bytes());

  rpc::WireWriter tenanted;
  tenanted.PutString(kTagKey, "k1");
  tenanted.PutU32(kTagTenant, 7);
  EXPECT_EQ(GetRequest("k1", 7), tenanted.bytes());

  const std::string_view keys[] = {"k1", "k2"};
  rpc::WireWriter multi;
  multi.PutString(kTagKey, "k1");
  multi.PutString(kTagKey, "k2");
  multi.PutU32(kTagTenant, 7);
  EXPECT_EQ(GetRequest(keys, 7), multi.bytes());
}

TEST(CellViewCodec, RoundTrip) {
  CellView v;
  v.generation = 17;
  v.mode = ReplicationMode::kR32;
  v.shard_hosts = {5, 9, 13, 2};
  v.shard_config_ids = {1001, 2002, 3003, 4004};
  auto decoded = DecodeCellView(EncodeCellView(v));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->generation, 17u);
  EXPECT_EQ(decoded->mode, ReplicationMode::kR32);
  EXPECT_EQ(decoded->shard_hosts, v.shard_hosts);
  EXPECT_EQ(decoded->shard_config_ids, v.shard_config_ids);
}

TEST(CellViewCodec, ForwardCompatWithExtraFields) {
  // A future config service appends fields old clients don't know.
  CellView v;
  v.generation = 1;
  v.mode = ReplicationMode::kR1;
  v.shard_hosts = {3};
  v.shard_config_ids = {99};
  Bytes encoded = EncodeCellView(v);
  rpc::WireWriter extra;
  extra.PutString(500, "future shard attribute");
  Bytes combined = encoded;
  combined.insert(combined.end(), extra.bytes().begin(), extra.bytes().end());
  auto decoded = DecodeCellView(combined);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shard_hosts, v.shard_hosts);
}

TEST(CellViewCodec, TransitionRoundTripAndUnknownTagSkipping) {
  CellView v;
  v.generation = 9;
  v.mode = ReplicationMode::kR32;
  v.shard_hosts = {1, 2, 3, 4, 5};
  v.shard_config_ids = {11, 22, 33, 44, 55};
  v.transition = true;
  v.prev_mode = ReplicationMode::kR1;
  v.prev_shard_hosts = {1, 2, 3};
  v.prev_shard_config_ids = {11, 22, 33};

  Bytes encoded = EncodeCellView(v);
  // Future fields appended after the transition block must be skipped.
  rpc::WireWriter extra;
  extra.PutString(777, "future reshard attribute");
  encoded.insert(encoded.end(), extra.bytes().begin(), extra.bytes().end());

  auto decoded = DecodeCellView(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->generation, 9u);
  EXPECT_TRUE(decoded->transition);
  EXPECT_EQ(decoded->prev_mode, ReplicationMode::kR1);
  EXPECT_EQ(decoded->prev_shard_hosts, v.prev_shard_hosts);
  EXPECT_EQ(decoded->prev_shard_config_ids, v.prev_shard_config_ids);
  EXPECT_EQ(decoded->shard_hosts, v.shard_hosts);
}

TEST(CellViewCodec, TransitionPrevListMismatchRejected) {
  // Declares two previous shards but carries only one host/id pair.
  rpc::WireWriter w;
  w.PutU32(kTagGeneration, 3);
  w.PutU32(kTagMode, 0);
  w.PutU32(kTagNumShards, 1);
  w.PutU32(kTagShardHost, 7);
  w.PutU32(kTagShardConfigId, 9);
  w.PutU32(kTagTransition, 1);
  w.PutU32(kTagPrevMode, 0);
  w.PutU32(kTagPrevNumShards, 2);
  w.PutU32(kTagPrevShardHost, 3);
  w.PutU32(kTagPrevShardConfigId, 5);
  EXPECT_FALSE(DecodeCellView(w.bytes()).ok());
}

TEST(CellViewCodec, LegacyPayloadDecodesAsCommitted) {
  // A pre-elasticity encoder never wrote the transition tag; such payloads
  // must decode as a committed (non-transitioning) view.
  rpc::WireWriter w;
  w.PutU32(kTagGeneration, 4);
  w.PutU32(kTagMode, 1);
  w.PutU32(kTagNumShards, 1);
  w.PutU32(kTagShardHost, 6);
  w.PutU32(kTagShardConfigId, 60);
  auto decoded = DecodeCellView(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->transition);
  EXPECT_TRUE(decoded->prev_shard_hosts.empty());
  EXPECT_TRUE(decoded->prev_shard_config_ids.empty());
}

TEST(CellViewCodec, MalformedRejected) {
  EXPECT_FALSE(DecodeCellView(ToBytes("garbage")).ok());
  // Hand-build a view whose shard list is shorter than its declared count.
  rpc::WireWriter w;
  w.PutU32(kTagGeneration, 1);
  w.PutU32(kTagMode, 0);
  w.PutU32(kTagNumShards, 3);
  w.PutU32(kTagShardHost, 7);  // only one of three
  w.PutU32(kTagShardConfigId, 99);
  EXPECT_FALSE(DecodeCellView(w.bytes()).ok());
}

}  // namespace
}  // namespace cm::cliquemap::proto
