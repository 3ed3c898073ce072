// RMA memory registration.
//
// Backends expose their index and data regions as registered memory windows
// that remote clients read with one-sided operations. Three properties from
// the paper are modeled faithfully:
//
//  * Registration is explicit and revocable. During index reshaping (§4.1)
//    the backend "revokes remote access to the original index"; in-flight
//    and subsequent RMA reads of a revoked window fail with
//    PERMISSION_DENIED and clients fall back to RPC to re-learn the layout.
//  * Windows may overlap: data-region growth registers "a second, larger,
//    overlapping RMA memory window" over the same pool, and clients
//    converge to the new window over time.
//  * The backing pool is virtually contiguous but only partially populated
//    (mmap(PROT_NONE) of the max range, populated on demand): windows are
//    views over a MemorySource whose storage may be chunked and may grow,
//    so simulated DRAM is only consumed for populated bytes.
//
// A READ copies the *live* backend bytes at the target's read instant (when
// the target NIC executes the op, not when the reply is delivered), so a
// read racing a mutation observes genuinely torn state. A SCAR's bucket and
// DataEntry are `Snapshot`s of that instant instead: nothing is copied when
// the NIC scans; the client decodes a pending snapshot in place (a
// synchronous borrow of the source bytes) and copies out only the value, or
// the source copies the snapshot just before a write would change it. The
// index and the data pool each funnel every write through BeforeWrite.
#ifndef CM_RMA_MEMORY_H_
#define CM_RMA_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/status.h"

namespace cm::rma {

using RegionId = uint32_t;
constexpr RegionId kInvalidRegion = 0;

class MemorySource;

namespace internal {
struct SnapCtl;  // refcount + pending range, or the materialized bytes
}  // namespace internal

// Whether [offset, offset+length) lies within [0, size), without the
// wrap-around of `offset + length > size` for offsets near 2^64 (an RMA
// offset is chosen by the remote client).
inline bool InBounds(uint64_t offset, uint64_t length, uint64_t size) {
  return length <= size && offset <= size - length;
}

// The bytes of [offset, offset+length) of a MemorySource as of one instant,
// copied out only when first read (see MemorySource::Defer). Cheap to copy
// (intrusive, unsynchronized refcount, like BufferView): every copy shares
// the one materialization.
class Snapshot {
 public:
  Snapshot() = default;
  // Wraps bytes that are already materialized (no copy).
  Snapshot(BufferView bytes);  // NOLINT(google-explicit-constructor)
  Snapshot(const Snapshot& other);
  Snapshot& operator=(const Snapshot& other);
  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  ~Snapshot();

  // Never copy.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // The bytes. The first call on a pending snapshot copies them out of its
  // source (counted in BufferStats::bytes_copied); later calls, and every
  // copy of this snapshot, share that one materialization.
  const BufferView& view() const;

  // Returns f(ByteSpan) over the bytes without copying them: the source's
  // live bytes while the snapshot is pending (no write has touched them
  // since its instant), else the materialized copy. A source that cannot
  // show the range contiguously materializes it first. The span is valid
  // only inside f, and f must not write to the source: a borrow is
  // synchronous and never spans a co_await (debug builds assert that no
  // BeforeWrite runs while one is open).
  template <class F>
  decltype(auto) Borrow(F&& f) const {
    const Borrowed borrowed(*this);
    return std::forward<F>(f)(borrowed.bytes);
  }

  // Bytes [offset, offset+length) of the snapshot: a slice of the
  // materialization once there is one, else a copy of just that range
  // (counted). The range must lie within size().
  BufferView Slice(size_t offset, size_t length) const;

 private:
  friend class MemorySource;
  // An open borrow: the bytes, and the source it pins while pending.
  class Borrowed {
   public:
    explicit Borrowed(const Snapshot& snap);
    ~Borrowed();
    Borrowed(const Borrowed&) = delete;
    Borrowed& operator=(const Borrowed&) = delete;
    ByteSpan bytes;

   private:
    const MemorySource* source_ = nullptr;
  };

  internal::SnapCtl* ctl_ = nullptr;
  size_t size_ = 0;
};

// Abstract byte-addressable backing store for registered windows. The
// source must outlive every live window registered over it.
//
// Write contract for deferred snapshots: a source that hands out Defer()
// snapshots calls BeforeWrite(offset, length) before every write to its
// bytes lands, and MaterializeAll() in its own destructor while its
// storage is still alive. Then a snapshot always shows the bytes of its
// instant: it is copied either at view() with no overlapping write since,
// or just before the first such write, and a borrow of a pending snapshot
// reads bytes no write has touched since that instant.
class MemorySource {
 public:
  MemorySource() = default;
  MemorySource(const MemorySource&) = delete;
  MemorySource& operator=(const MemorySource&) = delete;
  virtual ~MemorySource();
  // Copies [offset, offset+length) into dst. The range is guaranteed
  // window-bounds-checked by the registry before this is called.
  virtual Status ReadAt(uint64_t offset, uint32_t length,
                        std::byte* dst) const = 0;
  virtual uint64_t size() const = 0;
  // The live bytes of the in-bounds range [offset, offset+length) when the
  // source stores them contiguously, else an empty span (the default).
  // Borrows read pending snapshots through it.
  virtual ByteSpan Peek(uint64_t offset, uint32_t length) const;

  // Registers a pending snapshot of [offset, offset+length). Copies
  // nothing; empty when the range is empty or ends beyond size().
  Snapshot Defer(uint64_t offset, uint32_t length);
  size_t pending_snapshots() const { return pending_.size(); }

 protected:
  // Materializes every pending snapshot overlapping [offset, offset+length)
  // before a write to that range lands. Must not run inside a borrow.
  void BeforeWrite(uint64_t offset, uint64_t length);
  // Materializes every pending snapshot. The base destructor cannot (it
  // can no longer dispatch to ReadAt), so derived sources that Defer call
  // this in their own destructor.
  void MaterializeAll();

 private:
  friend class Snapshot;
  // Copies the snapshot's bytes out and unlinks it from pending_.
  void Materialize(internal::SnapCtl* ctl);
  // Swap-removes the snapshot from pending_.
  void Unlink(internal::SnapCtl* ctl);

  std::vector<internal::SnapCtl*> pending_;
  mutable uint32_t open_borrows_ = 0;  // in-place borrows of pending_
};

// Trivial contiguous source over caller-owned bytes (tests, simple users).
class VectorSource final : public MemorySource {
 public:
  explicit VectorSource(std::vector<std::byte>* bytes) : bytes_(bytes) {}
  Status ReadAt(uint64_t offset, uint32_t length,
                std::byte* dst) const override {
    if (!InBounds(offset, length, bytes_->size())) {
      return InvalidArgumentError("read beyond source");
    }
    std::memcpy(dst, bytes_->data() + offset, length);
    return OkStatus();
  }
  uint64_t size() const override { return bytes_->size(); }

 private:
  std::vector<std::byte>* bytes_;
};

class MemoryRegistry {
 public:
  MemoryRegistry() = default;
  MemoryRegistry(const MemoryRegistry&) = delete;
  MemoryRegistry& operator=(const MemoryRegistry&) = delete;

  // Registers a window over [0, size) of `source` and returns its id.
  RegionId Register(const MemorySource* source, uint64_t size);

  // Revokes a window: subsequent resolves fail. Idempotent.
  void Revoke(RegionId id);

  // Re-admits a previously revoked window under its original id (lease
  // fencing: permission is dropped while the lease is lapsed and re-granted
  // on renewal, without invalidating pointers that embed the region id).
  // Idempotent; unknown ids are ignored.
  void Restore(RegionId id);

  bool IsLive(RegionId id) const;

  // Whether a remote access to [offset, offset+length) of the window is
  // allowed: PERMISSION_DENIED for unknown/revoked windows and
  // INVALID_ARGUMENT for out-of-bounds.
  Status CheckAccess(RegionId id, uint64_t offset, uint32_t length) const;

  // Copies out the bytes a remote read of this window observes *now*, or
  // fails as CheckAccess does, into a shareable slab-backed view: the one
  // copy out of backend memory that the rest of the delivery path (fabric
  // hops, fault COW, client decode slices) shares without copying. The
  // materialization is counted in BufferStats::bytes_copied.
  StatusOr<BufferView> ResolveView(RegionId id, uint64_t offset,
                                   uint32_t length) const;

  int64_t registrations() const { return registrations_; }

 private:
  struct Window {
    const MemorySource* source;
    uint64_t size;
    bool revoked;
  };
  // The window of an allowed access, or the CheckAccess failure.
  StatusOr<const Window*> Access(RegionId id, uint64_t offset,
                                 uint32_t length) const;

  RegionId next_id_ = 1;
  int64_t registrations_ = 0;
  std::unordered_map<RegionId, Window> windows_;
};

}  // namespace cm::rma

#endif  // CM_RMA_MEMORY_H_
