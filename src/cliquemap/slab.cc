#include "cliquemap/slab.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cm::cliquemap {
namespace {
// Geometric class ladder factor (1.5x keeps internal fragmentation <33%).
constexpr double kClassGrowth = 1.5;
}  // namespace

SlabAllocator::SlabAllocator(uint64_t max_bytes, uint64_t initial_populated,
                             const SlabConfig& config)
    : config_(config), max_bytes_(max_bytes), populated_(0) {
  assert(config_.slab_bytes >= config_.min_class_bytes);
  // Build the size-class ladder up to one chunk per slab.
  uint64_t c = config_.min_class_bytes;
  while (c < config_.slab_bytes) {
    class_bytes_.push_back(static_cast<uint32_t>(c));
    auto next = static_cast<uint64_t>(std::ceil(double(c) * kClassGrowth));
    c = std::max(next, c + 16);
  }
  class_bytes_.push_back(static_cast<uint32_t>(config_.slab_bytes));
  free_chunks_.resize(class_bytes_.size());

  populated_ = 0;
  Grow(0);  // normalize
  // Populate the initial prefix.
  const uint64_t target =
      std::min(max_bytes_, std::max(initial_populated, config_.slab_bytes));
  while (populated_ < target) {
    slabs_.push_back(Slab{});
    unassigned_.push_back(static_cast<uint32_t>(slabs_.size() - 1));
    populated_ += config_.slab_bytes;
  }
}

int SlabAllocator::ClassIndexFor(uint32_t size) const {
  for (size_t i = 0; i < class_bytes_.size(); ++i) {
    if (class_bytes_[i] >= size) return static_cast<int>(i);
  }
  return -1;  // larger than a slab
}

uint32_t SlabAllocator::ChunkBytesFor(uint32_t size) const {
  int idx = ClassIndexFor(size);
  return idx < 0 ? 0 : class_bytes_[idx];
}

bool SlabAllocator::ProvisionSlab(int class_index) {
  uint32_t slab_idx;
  if (!unassigned_.empty()) {
    slab_idx = unassigned_.back();
    unassigned_.pop_back();
  } else {
    // Repurpose a fully-free slab from another class.
    bool found = false;
    for (uint32_t i = 0; i < slabs_.size(); ++i) {
      if (slabs_[i].class_index >= 0 && slabs_[i].live_chunks == 0 &&
          slabs_[i].class_index != class_index) {
        slab_idx = i;
        found = true;
        break;
      }
    }
    if (!found) return false;
    slabs_[slab_idx].generation++;  // invalidate stale free-list entries
  }
  Slab& slab = slabs_[slab_idx];
  slab.class_index = class_index;
  slab.live_chunks = 0;
  const uint32_t chunk = class_bytes_[static_cast<size_t>(class_index)];
  const uint64_t base = uint64_t{slab_idx} * config_.slab_bytes;
  const uint32_t count = static_cast<uint32_t>(config_.slab_bytes / chunk);
  for (uint32_t i = 0; i < count; ++i) {
    free_chunks_[static_cast<size_t>(class_index)].push_back(
        FreeChunk{base + uint64_t{i} * chunk, slab_idx, slab.generation});
  }
  return true;
}

StatusOr<uint64_t> SlabAllocator::Allocate(uint32_t size) {
  const int cls = ClassIndexFor(size);
  if (cls < 0) {
    return InvalidArgumentError("allocation larger than slab size");
  }
  auto& list = free_chunks_[static_cast<size_t>(cls)];
  for (;;) {
    while (!list.empty()) {
      FreeChunk chunk = list.front();
      list.pop_front();
      Slab& slab = slabs_[chunk.slab];
      if (slab.generation != chunk.generation || slab.class_index != cls) {
        continue;  // slab was repurposed; stale entry
      }
      slab.live_chunks++;
      used_bytes_ += class_bytes_[static_cast<size_t>(cls)];
      return chunk.offset;
    }
    if (!ProvisionSlab(cls)) {
      return ResourceExhaustedError("data region full");
    }
  }
}

void SlabAllocator::Free(uint64_t offset, uint32_t size) {
  const int cls = ClassIndexFor(size);
  assert(cls >= 0);
  const uint32_t slab_idx = SlabOf(offset);
  assert(slab_idx < slabs_.size());
  Slab& slab = slabs_[slab_idx];
  // Tolerate double-frees of stale pointers conservatively: only count a
  // free for a slab currently serving this class with live chunks.
  if (slab.class_index != cls || slab.live_chunks == 0) return;
  slab.live_chunks--;
  used_bytes_ -= class_bytes_[static_cast<size_t>(cls)];
  // LIFO free list (like real slab allocators, for cache locality). This
  // also means a freshly-reclaimed DataEntry chunk is the next one reused —
  // the reuse-under-read that makes torn RMA reads a real phenomenon.
  free_chunks_[static_cast<size_t>(cls)].push_front(
      FreeChunk{offset, slab_idx, slab.generation});
}

uint64_t SlabAllocator::Grow(double factor) {
  uint64_t target = std::min(
      max_bytes_,
      std::max(populated_ + config_.slab_bytes,
               static_cast<uint64_t>(double(populated_) * factor)));
  // Round to whole slabs.
  target = (target / config_.slab_bytes) * config_.slab_bytes;
  while (populated_ < target) {
    slabs_.push_back(Slab{});
    unassigned_.push_back(static_cast<uint32_t>(slabs_.size() - 1));
    populated_ += config_.slab_bytes;
  }
  return populated_;
}

}  // namespace cm::cliquemap
