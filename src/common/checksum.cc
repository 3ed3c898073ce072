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

// The zeros operator of the hardware kernel's lanes: kLaneShift[k][v] is the
// raw (uninverted) CRC register holding v << 8k advanced over kHwLaneBytes
// zero bytes. The register update is linear, so four lookups advance any
// register value, and a lane's CRC started from 0 joins the one before it
// as Shift(before) ^ lane.
using ShiftTable = std::array<std::array<uint32_t, 256>, 4>;

constexpr ShiftTable MakeLaneShift() {
  std::array<uint32_t, 32> basis{};  // each register bit, advanced
  for (int b = 0; b < 32; ++b) {
    uint32_t crc = 1u << b;
    for (size_t i = 0; i < kHwLaneBytes * 8; ++i) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kCrc32cPoly : 0u);
    }
    basis[static_cast<size_t>(b)] = crc;
  }
  ShiftTable t{};
  for (size_t k = 0; k < t.size(); ++k) {
    for (uint32_t v = 0; v < 256; ++v) {
      uint32_t x = 0;
      for (size_t bit = 0; bit < 8; ++bit) {
        if ((v >> bit) & 1u) x ^= basis[8 * k + bit];
      }
      t[k][v] = x;
    }
  }
  return t;
}

[[maybe_unused]] constexpr ShiftTable kLaneShift = MakeLaneShift();

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

namespace {

inline uint32_t ShiftOverLane(uint32_t crc) {
  return kLaneShift[0][crc & 0xffu] ^ kLaneShift[1][(crc >> 8) & 0xffu] ^
         kLaneShift[2][(crc >> 16) & 0xffu] ^ kLaneShift[3][crc >> 24];
}

}  // namespace

// Only this function is compiled for SSE4.2; it runs only when the CPU
// reports the instruction, so the binary still runs on any x86-64.
//
// One crc32q chain is latency-bound (a result every 3 cycles, one issue per
// cycle), so blocks of three lanes run three independent chains, joined by
// the zeros operator. The tail, shorter than a block, runs one chain.
__attribute__((target("sse4.2"))) uint32_t ExtendHw(uint32_t crc,
                                                    const uint8_t* p,
                                                    size_t n) {
  uint64_t c = ~crc;
  for (; n >= 3 * kHwLaneBytes; p += 3 * kHwLaneBytes, n -= 3 * kHwLaneBytes) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kHwLaneBytes; i += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + kHwLaneBytes + i, 8);
      std::memcpy(&w2, p + 2 * kHwLaneBytes + i, 8);
      c = _mm_crc32_u64(c, w0);
      c1 = _mm_crc32_u64(c1, w1);
      c2 = _mm_crc32_u64(c2, w2);
    }
    c = ShiftOverLane(ShiftOverLane(static_cast<uint32_t>(c)) ^
                      static_cast<uint32_t>(c1)) ^
        static_cast<uint32_t>(c2);
  }
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
