// Refcounted slab-backed payload buffers.
//
// The zero-copy spine of the simulated data path: a GET's index and data
// bytes are materialized at most once — at the backend memory region for a
// READ; a SCAR reply's bucket and DataEntry are decoded in place and only
// the value is copied (rma::Snapshot) — into a `Buffer`, then passed by
// `BufferView` (a refcounted slice) through fabric, RMA transports, RPC,
// and the client's validation/decode layers.
// Hops, MTU frames, retries, and quorum fan-outs share the one materialized
// buffer instead of copying per hop. A deferred snapshot stays exact because
// its source materializes it before any write to its range lands (the
// `BeforeWrite` contract in rma/memory.h).
//
// Ownership / COW rules (DESIGN.md §10):
//  * `Buffer` is the unique writable stage: allocate, fill, then `Share()`
//    it into an immutable `BufferView`. Views are never written through.
//  * Copies are explicit (`BufferView::CopyOf`, `ToBytes`) and counted in
//    `BufferStats::bytes_copied` (exported as cm.net.bytes_copied), so a
//    test can assert the GET path costs at most one materialization copy.
//  * Fault-injection bit flips go through FaultPlan::CorruptCow, which
//    copies the slice before flipping — other holders of the same buffer
//    (retries, duplicate deliveries) still observe the pristine bytes, so
//    never-silent-success semantics survive sharing.
//  * A `Bytes` rvalue converts to a BufferView by *adopting* the vector
//    (no copy); this keeps serialization call sites (`WireWriter::Take()`)
//    zero-copy too.
//
// Storage comes from a process-global slab arena (power-of-two size
// classes with freelists) — the simulator is single-threaded, so refcounts
// and freelists are intentionally unsynchronized.
#ifndef CM_COMMON_BUFFER_H_
#define CM_COMMON_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "common/bytes.h"

namespace cm {

namespace internal {
struct BufCtl;                 // refcount + storage-class header
BufCtl* NewSlabCtl(size_t capacity, std::byte** payload);
BufCtl* NewAdoptedCtl(Bytes&& owned, const std::byte** data, size_t* size);
void BufRef(BufCtl* ctl);
void BufUnref(BufCtl* ctl);
}  // namespace internal

// Process-wide buffer-layer counters (single-threaded; plain int64).
class BufferStats {
 public:
  // Total payload bytes that crossed a buffer-layer copy: region
  // materialization, explicit CopyOf/ToBytes, and COW fault corruption.
  static int64_t bytes_copied();
  static int64_t allocations();   // slab/heap blocks handed out
  static int64_t slab_reuses();   // of those, served from a freelist
  // Called by the buffer layer and by materialization sites (e.g.
  // MemoryRegistry::ResolveView) whenever payload bytes are copied.
  static void NoteCopy(int64_t n);
};

class BufferView;

// Uniquely-owned writable buffer: the single materialization stage. Move-only.
class Buffer {
 public:
  Buffer() = default;
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  Buffer(Buffer&& other) noexcept { *this = std::move(other); }
  Buffer& operator=(Buffer&& other) noexcept;
  ~Buffer();

  // Slab-backed uninitialized storage for `n` bytes.
  static Buffer Allocate(size_t n);

  std::byte* data() { return data_; }
  const std::byte* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Freezes the buffer into an immutable shareable view; `this` is emptied.
  BufferView Share() &&;

 private:
  friend class BufferView;
  internal::BufCtl* ctl_ = nullptr;
  std::byte* data_ = nullptr;
  size_t size_ = 0;
};

// Immutable refcounted slice of a Buffer (or an adopted Bytes). Cheap to
// copy (refcount bump); exposes a Bytes-like read surface so decode and
// test code works on either.
class BufferView {
 public:
  BufferView() = default;
  // Adopts an rvalue Bytes without copying (implicit: lets existing
  // `GetResult{Bytes(...)}`-style call sites compile unchanged).
  BufferView(Bytes&& owned);  // NOLINT(google-explicit-constructor)
  BufferView(const BufferView& other);
  BufferView& operator=(const BufferView& other);
  BufferView(BufferView&& other) noexcept;
  BufferView& operator=(BufferView&& other) noexcept;
  ~BufferView();

  // Explicit copying materialization (counted in BufferStats).
  static BufferView CopyOf(ByteSpan s);

  const std::byte* data() const { return data_; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  std::byte operator[](size_t i) const { return data_[i]; }
  const std::byte* begin() const { return data_; }
  const std::byte* end() const { return data_ + len_; }
  ByteSpan span() const { return ByteSpan(data_, len_); }
  operator ByteSpan() const { return span(); }  // NOLINT

  // Sub-slice sharing the same underlying storage (no copy). `off`/`len`
  // must lie within the view.
  BufferView Slice(size_t off, size_t len) const;
  // Sub-slice addressed by a span that points *into* this view (as produced
  // by decode layers); shares storage, no copy.
  BufferView SliceOf(ByteSpan inner) const {
    return Slice(static_cast<size_t>(inner.data() - data_), inner.size());
  }

  // Copying escape hatch for callers that need owned Bytes (counted).
  Bytes ToBytes() const;

  friend bool operator==(const BufferView& a, const BufferView& b) {
    return a.len_ == b.len_ &&
           (a.len_ == 0 || std::memcmp(a.data_, b.data_, a.len_) == 0);
  }
  friend bool operator==(const BufferView& a, const Bytes& b) {
    return a.len_ == b.size() &&
           (a.len_ == 0 || std::memcmp(a.data_, b.data(), a.len_) == 0);
  }

 private:
  friend class Buffer;
  internal::BufCtl* ctl_ = nullptr;
  const std::byte* data_ = nullptr;
  size_t len_ = 0;
};

}  // namespace cm

#endif  // CM_COMMON_BUFFER_H_
