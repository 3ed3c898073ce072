#include "rma/memory.h"

#include <cassert>
#include <utility>

namespace cm::rma {

namespace internal {

struct SnapCtl {
  uint32_t refs = 1;
  uint32_t length = 0;             // the pending range of `source`
  uint64_t offset = 0;
  MemorySource* source = nullptr;  // non-null while pending
  size_t slot = 0;                 // index in source->pending_ while pending
  BufferView bytes;                // once materialized
};

namespace {

// SnapCtls are recycled through a freelist: a SCAR makes two per replica,
// one for its bucket and one for its DataEntry. Single-threaded, like the
// buffer arena.
struct CtlPool {
  std::vector<SnapCtl*> free;
  ~CtlPool() {
    for (SnapCtl* ctl : free) delete ctl;
  }
};

CtlPool& ctl_pool() {
  static CtlPool pool;
  return pool;
}

SnapCtl* NewCtl() {
  std::vector<SnapCtl*>& free = ctl_pool().free;
  if (free.empty()) return new SnapCtl;
  SnapCtl* ctl = free.back();
  free.pop_back();
  return ctl;
}

void FreeCtl(SnapCtl* ctl) {
  *ctl = SnapCtl{};
  ctl_pool().free.push_back(ctl);
}

}  // namespace
}  // namespace internal

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

Snapshot::Snapshot(BufferView bytes) : size_(bytes.size()) {
  if (size_ == 0) return;
  ctl_ = internal::NewCtl();
  ctl_->bytes = std::move(bytes);
}

Snapshot::Snapshot(const Snapshot& other)
    : ctl_(other.ctl_), size_(other.size_) {
  if (ctl_ != nullptr) ++ctl_->refs;
}

Snapshot& Snapshot::operator=(const Snapshot& other) {
  Snapshot copy(other);
  return *this = std::move(copy);
}

Snapshot::Snapshot(Snapshot&& other) noexcept
    : ctl_(std::exchange(other.ctl_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    Snapshot old(std::move(*this));
    ctl_ = std::exchange(other.ctl_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

Snapshot::~Snapshot() {
  if (ctl_ == nullptr || --ctl_->refs != 0) return;
  // Dropped unread: nothing was copied, and nothing stays pending.
  if (ctl_->source != nullptr) ctl_->source->Unlink(ctl_);
  internal::FreeCtl(ctl_);
}

const BufferView& Snapshot::view() const {
  static const BufferView kEmpty;
  if (ctl_ == nullptr) return kEmpty;
  if (ctl_->source != nullptr) ctl_->source->Materialize(ctl_);
  return ctl_->bytes;
}

Snapshot::Borrowed::Borrowed(const Snapshot& snap) {
  internal::SnapCtl* ctl = snap.ctl_;
  if (ctl == nullptr) return;
  if (ctl->source != nullptr) {
    bytes = ctl->source->Peek(ctl->offset, ctl->length);
    if (bytes.size() == ctl->length) {
      source_ = ctl->source;
      ++source_->open_borrows_;
      return;
    }
  }
  bytes = snap.view().span();
}

Snapshot::Borrowed::~Borrowed() {
  if (source_ != nullptr) --source_->open_borrows_;
}

BufferView Snapshot::Slice(size_t offset, size_t length) const {
  assert(InBounds(offset, length, size_));
  if (ctl_ == nullptr || length == 0) return {};
  if (ctl_->source == nullptr) return ctl_->bytes.Slice(offset, length);
  Buffer buf = Buffer::Allocate(length);
  [[maybe_unused]] Status s = ctl_->source->ReadAt(
      ctl_->offset + offset, static_cast<uint32_t>(length), buf.data());
  assert(s.ok());  // within the pending range, which Defer checked
  BufferStats::NoteCopy(static_cast<int64_t>(length));
  return std::move(buf).Share();
}

// ---------------------------------------------------------------------------
// MemorySource
// ---------------------------------------------------------------------------

MemorySource::~MemorySource() {
  // A source that Defers must MaterializeAll() in its own destructor.
  assert(pending_.empty());
}

ByteSpan MemorySource::Peek(uint64_t, uint32_t) const { return {}; }

Snapshot MemorySource::Defer(uint64_t offset, uint32_t length) {
  Snapshot snap;
  if (length == 0 || !InBounds(offset, length, size())) return snap;
  snap.ctl_ = internal::NewCtl();
  snap.ctl_->length = length;
  snap.ctl_->offset = offset;
  snap.ctl_->source = this;
  snap.ctl_->slot = pending_.size();
  snap.size_ = length;
  pending_.push_back(snap.ctl_);
  return snap;
}

void MemorySource::BeforeWrite(uint64_t offset, uint64_t length) {
  // A write inside a borrow would change the bytes the borrower reads.
  assert(open_borrows_ == 0);
  for (size_t i = 0; i < pending_.size();) {
    internal::SnapCtl* ctl = pending_[i];
    if (ctl->offset < offset + length && offset < ctl->offset + ctl->length) {
      Materialize(ctl);  // swap-removes slot i: look at it again
    } else {
      ++i;
    }
  }
}

void MemorySource::MaterializeAll() {
  while (!pending_.empty()) Materialize(pending_.back());
}

void MemorySource::Materialize(internal::SnapCtl* ctl) {
  Buffer buf = Buffer::Allocate(ctl->length);
  [[maybe_unused]] Status s = ReadAt(ctl->offset, ctl->length, buf.data());
  assert(s.ok());  // Defer checked the range; sources never shrink
  BufferStats::NoteCopy(ctl->length);
  ctl->bytes = std::move(buf).Share();
  Unlink(ctl);
}

void MemorySource::Unlink(internal::SnapCtl* ctl) {
  internal::SnapCtl* last = pending_.back();
  pending_[ctl->slot] = last;
  last->slot = ctl->slot;
  pending_.pop_back();
  ctl->source = nullptr;
}

// ---------------------------------------------------------------------------
// MemoryRegistry
// ---------------------------------------------------------------------------

RegionId MemoryRegistry::Register(const MemorySource* source, uint64_t size) {
  RegionId id = next_id_++;
  windows_[id] = Window{source, size, false};
  ++registrations_;
  return id;
}

void MemoryRegistry::Revoke(RegionId id) {
  auto it = windows_.find(id);
  if (it != windows_.end()) it->second.revoked = true;
}

void MemoryRegistry::Restore(RegionId id) {
  auto it = windows_.find(id);
  if (it != windows_.end()) it->second.revoked = false;
}

bool MemoryRegistry::IsLive(RegionId id) const {
  auto it = windows_.find(id);
  return it != windows_.end() && !it->second.revoked;
}

StatusOr<const MemoryRegistry::Window*> MemoryRegistry::Access(
    RegionId id, uint64_t offset, uint32_t length) const {
  auto it = windows_.find(id);
  if (it == windows_.end() || it->second.revoked) {
    return PermissionDeniedError("rma window revoked or unknown");
  }
  if (!InBounds(offset, length, it->second.size)) {
    return InvalidArgumentError("rma read out of window bounds");
  }
  return &it->second;
}

Status MemoryRegistry::CheckAccess(RegionId id, uint64_t offset,
                                   uint32_t length) const {
  return Access(id, offset, length).status();
}

StatusOr<BufferView> MemoryRegistry::ResolveView(RegionId id, uint64_t offset,
                                                 uint32_t length) const {
  auto w = Access(id, offset, length);
  if (!w.ok()) return w.status();
  Buffer buf = Buffer::Allocate(length);
  Status s = (*w)->source->ReadAt(offset, length, buf.data());
  if (!s.ok()) return s;
  BufferStats::NoteCopy(length);
  return std::move(buf).Share();
}

}  // namespace cm::rma
