// Slab-based allocator for the DataEntry pool (§4.1).
//
// The data region is "random-access in nature", so DataEntries are carved
// from slabs assigned to size classes, "tuned to the deployment's workload";
// "slabs can be repurposed to different size classes as values come and go".
//
// The allocator manages offsets into a single virtually-contiguous buffer
// whose maximum size is reserved up front (the paper mmap()s PROT_NONE for
// the whole machine's capacity) but of which only `populated` bytes are
// backed. Grow() extends the populated prefix — the on-demand data region
// reshaping that saved 10% of customer DRAM at launch (Fig 3).
#ifndef CM_CLIQUEMAP_SLAB_H_
#define CM_CLIQUEMAP_SLAB_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"

namespace cm::cliquemap {

struct SlabConfig {
  uint64_t slab_bytes = 64 * 1024;
  uint32_t min_class_bytes = 64;
};

class SlabAllocator {
 public:
  SlabAllocator(uint64_t max_bytes, uint64_t initial_populated,
                const SlabConfig& config = {});

  // Allocates a chunk able to hold `size` bytes; returns its offset.
  // Fails with RESOURCE_EXHAUSTED when no populated slab can serve it
  // (caller evicts or grows).
  StatusOr<uint64_t> Allocate(uint32_t size);

  // Returns the chunk at `offset` (allocated for `size` bytes) to its slab.
  void Free(uint64_t offset, uint32_t size);

  // The chunk size actually reserved for a request of `size` bytes.
  uint32_t ChunkBytesFor(uint32_t size) const;

  // Extends the populated prefix by `factor` (capped at max). Returns the
  // new populated size.
  uint64_t Grow(double factor);
  bool CanGrow() const { return populated_ < max_bytes_; }

  uint64_t max_bytes() const { return max_bytes_; }
  uint64_t populated() const { return populated_; }
  uint64_t used_bytes() const { return used_bytes_; }
  double Utilization() const {
    return populated_ ? double(used_bytes_) / double(populated_) : 0.0;
  }

  int num_classes() const { return static_cast<int>(class_bytes_.size()); }

 private:
  struct Slab {
    int class_index = -1;      // -1: unassigned
    uint32_t live_chunks = 0;  // allocated chunks in this slab
    uint32_t generation = 0;   // bumped on repurpose; stale free-list
                               // entries are dropped lazily
  };
  struct FreeChunk {
    uint64_t offset;
    uint32_t slab;
    uint32_t generation;
  };

  int ClassIndexFor(uint32_t size) const;
  uint32_t SlabOf(uint64_t offset) const {
    return static_cast<uint32_t>(offset / config_.slab_bytes);
  }
  // Assigns an unassigned (or fully-free repurposable) slab to a class and
  // pushes its chunks onto the free list. Returns false if none available.
  bool ProvisionSlab(int class_index);

  SlabConfig config_;
  uint64_t max_bytes_;
  uint64_t populated_;
  uint64_t used_bytes_ = 0;
  std::vector<uint32_t> class_bytes_;  // chunk size per class
  std::vector<Slab> slabs_;            // slabs_[i] covers populated slab i
  std::vector<uint32_t> unassigned_;   // slab indices with no class
  std::vector<std::deque<FreeChunk>> free_chunks_;  // per class
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_SLAB_H_
