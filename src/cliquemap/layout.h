// Byte-level layouts of the RMA-accessible index and data regions (Fig 1).
//
// The index region is an array of fixed-size Buckets; each Bucket holds a
// small header plus `ways` fixed-size IndexEntries (KeyHash, VersionNumber,
// Pointer). The data region holds variable-size DataEntries, each guarded
// by a CRC32C over (KeyHash, VersionNumber, Key, Value) — the IndexEntry
// and DataEntry are covered "in combination" (§4.2), so a client can verify
// end-to-end that the data it fetched corresponds to the index state it
// quorumed on.
//
// All encode/decode goes through explicit little-endian serialization: these
// bytes are read remotely while being written locally, and torn observations
// must be detectable, never undefined behaviour.
#ifndef CM_CLIQUEMAP_LAYOUT_H_
#define CM_CLIQUEMAP_LAYOUT_H_

#include <optional>
#include <string_view>

#include "common/bytes.h"
#include "common/checksum.h"
#include "common/status.h"
#include "cliquemap/types.h"

namespace cm::cliquemap {

// ---------------------------------------------------------------------------
// IndexEntry: 48 bytes.
//   [ 0] keyhash.hi  u64
//   [ 8] keyhash.lo  u64
//   [16] version.tt_micros u64
//   [24] version.client_id u32
//   [28] version.seq       u32
//   [32] pointer.region    u32
//   [36] pointer.size      u32
//   [40] pointer.offset    u64
// A zero KeyHash marks an empty slot.
// ---------------------------------------------------------------------------

inline constexpr size_t kIndexEntrySize = 48;

struct IndexEntry {
  Hash128 keyhash;
  VersionNumber version;
  Pointer pointer;

  bool empty() const { return keyhash.is_zero(); }

  friend bool operator==(const IndexEntry&, const IndexEntry&) = default;
};

void EncodeIndexEntry(MutableByteSpan out, const IndexEntry& entry);
IndexEntry DecodeIndexEntry(ByteSpan in);

// ---------------------------------------------------------------------------
// Bucket: 16-byte header + ways * IndexEntry.
//   [ 0] config_id  u32   cell configuration generation (§6.1): clients
//                         validate this against their connection-time
//                         expectation and refresh config on mismatch.
//   [ 4] flags      u32   bit 0: overflow (RPC fallback may find more keys)
//   [ 8] reserved   u64
// ---------------------------------------------------------------------------

inline constexpr size_t kBucketHeaderSize = 16;
inline constexpr uint32_t kBucketFlagOverflow = 0x1;

struct BucketHeader {
  uint32_t config_id = 0;
  bool overflow = false;
};

void EncodeBucketHeader(MutableByteSpan out, const BucketHeader& header);
BucketHeader DecodeBucketHeader(ByteSpan in);

inline constexpr size_t BucketBytes(int ways) {
  return kBucketHeaderSize + static_cast<size_t>(ways) * kIndexEntrySize;
}

// Byte offset of a way's IndexEntry within its Bucket.
inline constexpr size_t WayOffset(int way) {
  return kBucketHeaderSize + static_cast<size_t>(way) * kIndexEntrySize;
}

// A way's KeyHash: two 8-byte loads, the rest of the entry left undecoded.
inline Hash128 WayKeyhash(ByteSpan bucket, int way) {
  const std::byte* p = bucket.data() + WayOffset(way);
  return Hash128{LoadU64(p), LoadU64(p + 8)};
}

// The way scan of the NIC's SCAR, the client's vote decoder and the
// backend's own lookups: the first of `ways` ways holding `hash` with a
// non-null pointer, or -1. Only the matching way's region is read.
inline int FindWay(ByteSpan bucket, int ways, const Hash128& hash) {
  for (int w = 0; w < ways; ++w) {
    // Byte 32 of an entry is its pointer.region.
    if (WayKeyhash(bucket, w) == hash &&
        LoadU32(bucket.data() + WayOffset(w) + 32) != rma::kInvalidRegion) {
      return w;
    }
  }
  return -1;
}

// ---------------------------------------------------------------------------
// DataEntry: variable size.
//   [ 0] key_len   u32
//   [ 4] value_len u32
//   [ 8] keyhash   16B
//   [24] version   16B
//   [40] key       key_len bytes
//   [..] value     value_len bytes
//   [..] crc32c    u32   over bytes [8, 40+key_len+value_len)
// ---------------------------------------------------------------------------

inline constexpr size_t kDataEntryHeaderSize = 40;

inline constexpr size_t DataEntryBytes(size_t key_len, size_t value_len) {
  return kDataEntryHeaderSize + key_len + value_len + 4;
}

// Serializes a complete DataEntry into `out` (sized DataEntryBytes()).
void EncodeDataEntry(MutableByteSpan out, std::string_view key,
                     ByteSpan value, const Hash128& keyhash,
                     const VersionNumber& version);

// Parsed view into an encoded DataEntry; string_views alias the input span.
struct DataEntryView {
  Hash128 keyhash;
  VersionNumber version;
  std::string_view key;
  ByteSpan value;
};

// Decodes and verifies the checksum end-to-end. A torn read surfaces as
// kAborted — the retryable "rare, but normal" validation failure of §3.
StatusOr<DataEntryView> DecodeDataEntry(ByteSpan in);

// Rewrites just the VersionNumber of an encoded DataEntry in place and
// recomputes the checksum (used by quorum repair's version bump, §5.4).
Status RewriteDataEntryVersion(MutableByteSpan entry,
                               const VersionNumber& version);

// Revalidates a speculatively-read DataEntry (location-cache direct read,
// no index quorum backing it) against the cached expectations: checksum
// intact (torn read / recycled slot), keyhash and full key match (slot
// reused for another key), and version >= `min_version` — the cached
// quorumed floor, so a stale replica can never roll a client back below
// state it already observed. kAborted on checksum/key mismatch, kAborted
// on version-below-floor; the caller invalidates and re-quorums either way.
StatusOr<DataEntryView> RevalidateDataEntry(ByteSpan in, std::string_view key,
                                            const Hash128& keyhash,
                                            const VersionNumber& min_version);

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_LAYOUT_H_
