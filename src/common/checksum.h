// CRC32C checksums guarding each KV pair (paper §3, "Self-Validating
// Responses"): since RMAs are not atomic, every DataEntry carries a checksum
// over key, value, and metadata, verified end-to-end by clients. Validation
// failures are attributed to torn reads and retried.
#ifndef CM_COMMON_CHECKSUM_H_
#define CM_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace cm {

// Incremental CRC32C (Castagnoli) computation. Two kernels compute it: the
// SSE4.2 `crc32` instruction on x86-64 CPUs that have it, and a portable
// slicing-by-8 table loop everywhere else. The kernel is chosen once, at the
// first call, from the CPU the process runs on; both give the same value.
class Crc32c {
 public:
  Crc32c() = default;

  Crc32c& Update(ByteSpan data);
  Crc32c& UpdateU32(uint32_t v);
  Crc32c& UpdateU64(uint64_t v);

  // Finalized CRC value.
  uint32_t value() const { return crc_; }

 private:
  uint32_t crc_ = 0;
};

uint32_t ComputeCrc32c(ByteSpan data);

// The two kernels behind Crc32c, exposed so tests can pin each one. Both
// extend a finalized CRC: Extend*(0, data, n) is the CRC32C of data.
namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const uint8_t* data, size_t n);
// Requires HwAvailable(); off x86-64 it is the portable kernel. Runs of
// 3 * kHwLaneBytes bytes are checksummed as three interleaved lanes.
inline constexpr size_t kHwLaneBytes = 256;
uint32_t ExtendHw(uint32_t crc, const uint8_t* data, size_t n);
// True when this CPU has the SSE4.2 crc32 instruction.
bool HwAvailable();

}  // namespace crc32c_internal
}  // namespace cm

#endif  // CM_COMMON_CHECKSUM_H_
