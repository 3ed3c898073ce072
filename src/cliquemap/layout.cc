#include "cliquemap/layout.h"

#include <cassert>
#include <cstdio>

namespace cm::cliquemap {

std::string VersionNumber::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "v{%llu,%u,%u}",
                static_cast<unsigned long long>(tt_micros), client_id, seq);
  return buf;
}

void EncodeIndexEntry(MutableByteSpan out, const IndexEntry& entry) {
  assert(out.size() >= kIndexEntrySize);
  StoreU64(out.data() + 0, entry.keyhash.hi);
  StoreU64(out.data() + 8, entry.keyhash.lo);
  StoreU64(out.data() + 16, entry.version.tt_micros);
  StoreU32(out.data() + 24, entry.version.client_id);
  StoreU32(out.data() + 28, entry.version.seq);
  StoreU32(out.data() + 32, entry.pointer.region);
  StoreU32(out.data() + 36, entry.pointer.size);
  StoreU64(out.data() + 40, entry.pointer.offset);
}

IndexEntry DecodeIndexEntry(ByteSpan in) {
  assert(in.size() >= kIndexEntrySize);
  IndexEntry e;
  e.keyhash.hi = LoadU64(in.data() + 0);
  e.keyhash.lo = LoadU64(in.data() + 8);
  e.version.tt_micros = LoadU64(in.data() + 16);
  e.version.client_id = LoadU32(in.data() + 24);
  e.version.seq = LoadU32(in.data() + 28);
  e.pointer.region = LoadU32(in.data() + 32);
  e.pointer.size = LoadU32(in.data() + 36);
  e.pointer.offset = LoadU64(in.data() + 40);
  return e;
}

void EncodeBucketHeader(MutableByteSpan out, const BucketHeader& header) {
  assert(out.size() >= kBucketHeaderSize);
  StoreU32(out.data() + 0, header.config_id);
  StoreU32(out.data() + 4, header.overflow ? kBucketFlagOverflow : 0);
  StoreU64(out.data() + 8, 0);
}

BucketHeader DecodeBucketHeader(ByteSpan in) {
  assert(in.size() >= kBucketHeaderSize);
  BucketHeader h;
  h.config_id = LoadU32(in.data() + 0);
  h.overflow = (LoadU32(in.data() + 4) & kBucketFlagOverflow) != 0;
  return h;
}

namespace {

uint32_t DataEntryCrc(ByteSpan covered) { return ComputeCrc32c(covered); }

}  // namespace

void EncodeDataEntry(MutableByteSpan out, std::string_view key, ByteSpan value,
                     const Hash128& keyhash, const VersionNumber& version) {
  const size_t total = DataEntryBytes(key.size(), value.size());
  assert(out.size() >= total);
  StoreU32(out.data() + 0, static_cast<uint32_t>(key.size()));
  StoreU32(out.data() + 4, static_cast<uint32_t>(value.size()));
  StoreU64(out.data() + 8, keyhash.hi);
  StoreU64(out.data() + 16, keyhash.lo);
  StoreU64(out.data() + 24, version.tt_micros);
  StoreU32(out.data() + 32, version.client_id);
  StoreU32(out.data() + 36, version.seq);
  if (!key.empty()) {
    std::memcpy(out.data() + kDataEntryHeaderSize, key.data(), key.size());
  }
  if (!value.empty()) {
    std::memcpy(out.data() + kDataEntryHeaderSize + key.size(), value.data(),
                value.size());
  }
  const uint32_t crc = DataEntryCrc(
      ByteSpan(out.data() + 8, kDataEntryHeaderSize - 8 + key.size() + value.size()));
  StoreU32(out.data() + total - 4, crc);
}

StatusOr<DataEntryView> DecodeDataEntry(ByteSpan in) {
  if (in.size() < kDataEntryHeaderSize + 4) {
    return AbortedError("data entry truncated");
  }
  const uint32_t key_len = LoadU32(in.data() + 0);
  const uint32_t value_len = LoadU32(in.data() + 4);
  const size_t total = DataEntryBytes(key_len, value_len);
  if (total > in.size()) {
    return AbortedError("data entry lengths exceed buffer");
  }
  // The stored CRC is loaded after the pass over the bytes before it, which
  // brings its cache line in on the way.
  const uint32_t computed = DataEntryCrc(
      ByteSpan(in.data() + 8, kDataEntryHeaderSize - 8 + key_len + value_len));
  const uint32_t stored_crc = LoadU32(in.data() + total - 4);
  if (stored_crc != computed) {
    return AbortedError("data entry checksum mismatch (torn read)");
  }
  DataEntryView v;
  v.keyhash.hi = LoadU64(in.data() + 8);
  v.keyhash.lo = LoadU64(in.data() + 16);
  v.version.tt_micros = LoadU64(in.data() + 24);
  v.version.client_id = LoadU32(in.data() + 32);
  v.version.seq = LoadU32(in.data() + 36);
  v.key = std::string_view(
      reinterpret_cast<const char*>(in.data() + kDataEntryHeaderSize), key_len);
  v.value = in.subspan(kDataEntryHeaderSize + key_len, value_len);
  return v;
}

Status RewriteDataEntryVersion(MutableByteSpan entry,
                               const VersionNumber& version) {
  auto view = DecodeDataEntry(entry);
  if (!view.ok()) return view.status();
  StoreU64(entry.data() + 24, version.tt_micros);
  StoreU32(entry.data() + 32, version.client_id);
  StoreU32(entry.data() + 36, version.seq);
  const size_t total = DataEntryBytes(view->key.size(), view->value.size());
  const uint32_t crc = DataEntryCrc(ByteSpan(
      entry.data() + 8,
      kDataEntryHeaderSize - 8 + view->key.size() + view->value.size()));
  StoreU32(entry.data() + total - 4, crc);
  return OkStatus();
}

StatusOr<DataEntryView> RevalidateDataEntry(ByteSpan in, std::string_view key,
                                            const Hash128& keyhash,
                                            const VersionNumber& min_version) {
  auto view = DecodeDataEntry(in);
  if (!view.ok()) return view.status();
  if (view->keyhash != keyhash || view->key != key) {
    return AbortedError("speculative read: slot reused by another key");
  }
  if (view->version < min_version) {
    return AbortedError("speculative read: version below quorumed floor");
  }
  return view;
}

}  // namespace cm::cliquemap
