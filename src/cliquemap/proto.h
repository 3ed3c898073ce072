// CliqueMap RPC protocol: method names, field tags, and codec helpers.
//
// Tag numbers are append-only (never reuse a tag for a different meaning);
// unknown tags are skipped by readers — the contract that let production
// CliqueMap absorb "over a hundred changes to protocol definitions" (§1)
// without lockstep client/server rollouts.
#ifndef CM_CLIQUEMAP_PROTO_H_
#define CM_CLIQUEMAP_PROTO_H_

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "cliquemap/types.h"
#include "rpc/wire.h"

namespace cm::cliquemap::proto {

// Dataplane & control methods served by every backend.
inline constexpr char kMethodSet[] = "CliqueMap.Set";
inline constexpr char kMethodErase[] = "CliqueMap.Erase";
inline constexpr char kMethodCas[] = "CliqueMap.Cas";
inline constexpr char kMethodGet[] = "CliqueMap.Get";          // RPC fallback
inline constexpr char kMethodMultiGet[] = "CliqueMap.MultiGet";  // batched fallback
inline constexpr char kMethodTouch[] = "CliqueMap.Touch";      // access records
inline constexpr char kMethodInfo[] = "CliqueMap.Info";        // RMA handshake
inline constexpr char kMethodRepairPull[] = "CliqueMap.RepairPull";
inline constexpr char kMethodGetByHash[] = "CliqueMap.GetByHash";
inline constexpr char kMethodBumpVersion[] = "CliqueMap.BumpVersion";
inline constexpr char kMethodInstallBulk[] = "CliqueMap.InstallBulk";
// Failure-detector probe (CellDoctor): answered by any backend whose RPC
// server is up — including a lease-fenced one, which is how the detector
// distinguishes "partitioned from the membership service" (suspect) from
// "actually gone" (dead).
inline constexpr char kMethodPing[] = "CliqueMap.Ping";
// Quorum-loss degraded read (opt-in, correlated-failure survival): asks one
// replica for its local verdict on a key. The response is always OK-bodied
// and carries a status code, so an *absence* verdict can ride along with the
// replica's exact tombstone version — the client needs it to distinguish
// "never stored here" from "quorum-committed ERASE" at sub-quorum.
inline constexpr char kMethodDegradedGet[] = "CliqueMap.DegradedGet";

// Config service.
inline constexpr char kMethodGetCellView[] = "Config.GetCellView";
inline constexpr char kMethodHeartbeat[] = "Config.Heartbeat";

// Common field tags.
enum Tag : uint16_t {
  kTagKey = 1,
  kTagValue = 2,
  kTagVersionTt = 3,
  kTagVersionClient = 4,
  kTagVersionSeq = 5,
  kTagExpectedTt = 6,
  kTagExpectedClient = 7,
  kTagExpectedSeq = 8,
  kTagApplied = 9,
  kTagHashHi = 10,
  kTagHashLo = 11,
  kTagFlags = 12,

  // Info response.
  kTagIndexRegion = 20,
  kTagNumBuckets = 21,
  kTagWays = 22,
  kTagConfigId = 23,
  kTagDataRegion = 24,  // repeated
  kTagIncarnation = 25,

  // Touch / repair / bulk payloads (packed records).
  kTagRecords = 30,
  kTagRecordCount = 31,

  // Cell view.
  kTagGeneration = 40,
  kTagShardHost = 41,        // repeated u32
  kTagShardConfigId = 42,    // repeated u32
  kTagMode = 43,
  kTagNumShards = 44,

  // Dual-version window: while a reconfiguration generation is in flight the
  // view also carries the previous topology so readers can fall back to the
  // old owners until the window commits.
  kTagTransition = 45,
  kTagPrevMode = 46,
  kTagPrevNumShards = 47,
  kTagPrevShardHost = 48,      // repeated u32
  kTagPrevShardConfigId = 49,  // repeated u32

  // Lease-based membership (Config.Heartbeat).
  kTagHeartbeatHost = 50,
  kTagHeartbeatShard = 51,
  kTagLeaseNs = 52,            // granted lease duration (response)
  kTagMembershipEpoch = 53,

  // Multi-tenant QoS. Dataplane ops carry kTagTenant only when the issuing
  // client belongs to a non-default tenant, so untenanted byte streams are
  // unchanged. The encoded TenantRegistry rides in the GetCellView response
  // when the cell has tenants configured.
  kTagTenant = 60,          // u32 tenant id (absent / 0 = untenanted)
  kTagTenantRegistry = 61,  // bytes: EncodeTenantRegistry blob

  // Batched MultiGet fallback: the request repeats kTagKey; the response
  // repeats kTagResult, one nested frame per key in request order, each
  // carrying kTagStatusCode plus (on OK) kTagValue and a version.
  kTagResult = 70,      // bytes: nested per-key response frame
  kTagStatusCode = 71,  // u32 StatusCode for that key

  // Degraded reads: the replica's exact tombstone version for an absent key
  // (a version triple, encoded via PutVersion with kTagTombstoneTt as the
  // base tag). Absent when the replica holds no cached tombstone.
  kTagTombstoneTt = 72,
  kTagTombstoneClient = 73,
  kTagTombstoneSeq = 74,

  // Failure domains: one kBytes entry per shard slot (in slot order) naming
  // the slot's failure domain. Appended to the cell view only when at least
  // one domain label is non-empty, so domain-unset cells keep byte-identical
  // views (same convention as kTagTenantRegistry / kTagMembershipEpoch).
  kTagShardDomain = 80,  // repeated bytes, one per shard
};

inline void PutVersion(rpc::WireWriter& w, const VersionNumber& v,
                       uint16_t tt_tag = kTagVersionTt) {
  w.PutU64(tt_tag, v.tt_micros);
  w.PutU32(static_cast<uint16_t>(tt_tag + 1), v.client_id);
  w.PutU32(static_cast<uint16_t>(tt_tag + 2), v.seq);
}

inline std::optional<VersionNumber> GetVersion(
    const rpc::WireReader& r, uint16_t tt_tag = kTagVersionTt) {
  auto tt = r.GetU64(tt_tag);
  auto client = r.GetU32(static_cast<uint16_t>(tt_tag + 1));
  auto seq = r.GetU32(static_cast<uint16_t>(tt_tag + 2));
  if (!tt || !client || !seq) return std::nullopt;
  return VersionNumber{*tt, *client, *seq};
}

// ---------------------------------------------------------------------------
// GET reply body: kTagValue + the value's version triple. Every RPC read
// (Get, MultiGet's nested kTagResult frames, DegradedGet, GetByHash) and the
// language shim's pipe replies carry it. Status tags stay with the callers.
// ---------------------------------------------------------------------------

struct Hit {
  ByteSpan value;  // aliases the decoded buffer
  VersionNumber version;
};

inline void PutHit(rpc::WireWriter& w, ByteSpan value,
                   const VersionNumber& version) {
  w.PutBytes(kTagValue, value);
  PutVersion(w, version);
}

// nullopt unless both the value and all three version components parse.
inline std::optional<Hit> GetHit(const rpc::WireReader& r) {
  auto value = r.GetBytes(kTagValue);
  auto version = GetVersion(r);
  if (!value || !version) return std::nullopt;
  return Hit{*value, *version};
}

// A GET request (MultiGet repeats kTagKey), plus kTagTenant when the
// reader belongs to a non-default tenant (untenanted requests stay
// byte-identical).
inline Bytes GetRequest(std::span<const std::string_view> keys,
                        uint32_t tenant) {
  rpc::WireWriter w;
  for (std::string_view key : keys) w.PutString(kTagKey, key);
  if (tenant != 0) w.PutU32(kTagTenant, tenant);
  return std::move(w).Take();
}
inline Bytes GetRequest(std::string_view key, uint32_t tenant) {
  return GetRequest(std::span<const std::string_view>(&key, 1), tenant);
}

// ---------------------------------------------------------------------------
// Packed repair records: (keyhash 16B, version 16B, flags u8) = 33 bytes.
// Exchanged during cohort scans (§5.4) to detect missing/stale/erased keys
// with minimal overhead.
// ---------------------------------------------------------------------------

inline constexpr size_t kRepairRecordBytes = 33;
inline constexpr uint8_t kRepairFlagErased = 0x1;

struct RepairRecord {
  Hash128 keyhash;
  VersionNumber version;
  bool erased = false;
};

inline void AppendRepairRecord(Bytes& out, const RepairRecord& r) {
  size_t at = out.size();
  out.resize(at + kRepairRecordBytes);
  StoreU64(out.data() + at + 0, r.keyhash.hi);
  StoreU64(out.data() + at + 8, r.keyhash.lo);
  StoreU64(out.data() + at + 16, r.version.tt_micros);
  StoreU32(out.data() + at + 24, r.version.client_id);
  StoreU32(out.data() + at + 28, r.version.seq);
  out[at + 32] = static_cast<std::byte>(r.erased ? kRepairFlagErased : 0);
}

inline std::vector<RepairRecord> ParseRepairRecords(ByteSpan blob) {
  std::vector<RepairRecord> out;
  out.reserve(blob.size() / kRepairRecordBytes);
  for (size_t at = 0; at + kRepairRecordBytes <= blob.size();
       at += kRepairRecordBytes) {
    RepairRecord r;
    r.keyhash.hi = LoadU64(blob.data() + at + 0);
    r.keyhash.lo = LoadU64(blob.data() + at + 8);
    r.version.tt_micros = LoadU64(blob.data() + at + 16);
    r.version.client_id = LoadU32(blob.data() + at + 24);
    r.version.seq = LoadU32(blob.data() + at + 28);
    r.erased = (static_cast<uint8_t>(blob[at + 32]) & kRepairFlagErased) != 0;
    out.push_back(r);
  }
  return out;
}

// Packed touch records: keyhash only (16B each).
inline void AppendTouchRecord(Bytes& out, const Hash128& h) {
  size_t at = out.size();
  out.resize(at + 16);
  StoreU64(out.data() + at, h.hi);
  StoreU64(out.data() + at + 8, h.lo);
}

inline std::vector<Hash128> ParseTouchRecords(ByteSpan blob) {
  std::vector<Hash128> out;
  out.reserve(blob.size() / 16);
  for (size_t at = 0; at + 16 <= blob.size(); at += 16) {
    out.push_back(Hash128{LoadU64(blob.data() + at), LoadU64(blob.data() + at + 8)});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Bulk install records (migration / immutable load):
//   [klen u32][vlen u32][version 16B][flags u8][key][value]
// ---------------------------------------------------------------------------

struct BulkRecord {
  std::string key;
  Bytes value;
  VersionNumber version;
  bool erased = false;
};

inline void AppendBulkRecord(Bytes& out, std::string_view key, ByteSpan value,
                             const VersionNumber& v, bool erased = false) {
  size_t at = out.size();
  out.resize(at + 25 + key.size() + value.size());
  StoreU32(out.data() + at + 0, static_cast<uint32_t>(key.size()));
  StoreU32(out.data() + at + 4, static_cast<uint32_t>(value.size()));
  StoreU64(out.data() + at + 8, v.tt_micros);
  StoreU32(out.data() + at + 16, v.client_id);
  StoreU32(out.data() + at + 20, v.seq);
  out[at + 24] = static_cast<std::byte>(erased ? 1 : 0);
  if (!key.empty()) std::memcpy(out.data() + at + 25, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(out.data() + at + 25 + key.size(), value.data(), value.size());
  }
}

inline std::vector<BulkRecord> ParseBulkRecords(ByteSpan blob) {
  std::vector<BulkRecord> out;
  size_t at = 0;
  while (at + 25 <= blob.size()) {
    const uint32_t klen = LoadU32(blob.data() + at);
    const uint32_t vlen = LoadU32(blob.data() + at + 4);
    if (at + 25 + klen + vlen > blob.size()) break;
    BulkRecord r;
    r.version.tt_micros = LoadU64(blob.data() + at + 8);
    r.version.client_id = LoadU32(blob.data() + at + 16);
    r.version.seq = LoadU32(blob.data() + at + 20);
    r.erased = static_cast<uint8_t>(blob[at + 24]) != 0;
    r.key.assign(reinterpret_cast<const char*>(blob.data() + at + 25), klen);
    r.value.assign(blob.begin() + at + 25 + klen,
                   blob.begin() + at + 25 + klen + vlen);
    out.push_back(std::move(r));
    at += 25 + klen + vlen;
  }
  return out;
}

}  // namespace cm::cliquemap::proto

#endif  // CM_CLIQUEMAP_PROTO_H_
