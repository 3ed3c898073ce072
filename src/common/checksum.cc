#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CM_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace cm {
namespace crc32c_internal {
namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78u;  // reflected Castagnoli

// kTables[0] is the bytewise table; kTables[k][i] is the CRC of byte i
// followed by k zero bytes, so eight lookups consume one 8-byte word.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables MakeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr SliceTables kTables = MakeTables();

// Little-endian load from bytes, so the portable kernel is endian-neutral.
inline uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | (uint32_t{p[1]} << 8) | (uint32_t{p[2]} << 16) |
         (uint32_t{p[3]} << 24);
}

}  // namespace

uint32_t ExtendPortable(uint32_t crc, const uint8_t* p, size_t n) {
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xffu];
  return ~crc;
}

#ifdef CM_CRC32C_X86

// Only this function is compiled for SSE4.2; it runs only when the CPU
// reports the instruction, so the binary still runs on any x86-64.
__attribute__((target("sse4.2"))) uint32_t ExtendHw(uint32_t crc,
                                                    const uint8_t* p,
                                                    size_t n) {
  uint64_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);  // unaligned, and UBSan-clean
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) c32 = _mm_crc32_u8(c32, *p);
  return ~c32;
}

bool HwAvailable() {
  // A function-local static, so a CRC taken during another translation
  // unit's static initialisation still probes the CPU first.
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

#else

uint32_t ExtendHw(uint32_t crc, const uint8_t* p, size_t n) {
  return ExtendPortable(crc, p, n);
}

bool HwAvailable() { return false; }

#endif

}  // namespace crc32c_internal

Crc32c& Crc32c::Update(ByteSpan data) {
  using Kernel = uint32_t (*)(uint32_t, const uint8_t*, size_t);
  static const Kernel extend = crc32c_internal::HwAvailable()
                                   ? crc32c_internal::ExtendHw
                                   : crc32c_internal::ExtendPortable;
  crc_ = extend(crc_, reinterpret_cast<const uint8_t*>(data.data()),
                data.size());
  return *this;
}

Crc32c& Crc32c::UpdateU32(uint32_t v) {
  std::byte buf[4];
  StoreU32(buf, v);
  return Update(ByteSpan(buf, 4));
}

Crc32c& Crc32c::UpdateU64(uint64_t v) {
  std::byte buf[8];
  StoreU64(buf, v);
  return Update(ByteSpan(buf, 8));
}

uint32_t ComputeCrc32c(ByteSpan data) { return Crc32c().Update(data).value(); }

}  // namespace cm
