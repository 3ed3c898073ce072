// Cache eviction policies (§4.2).
//
// Because GETs are RMA reads, backends "have no direct record of access
// information": clients report touches via batched background RPCs, and
// backends ingest them "en masse to implement configurable eviction
// policies — LRU, ARC, and others". Eviction triggers on two conflicts:
//
//   * Capacity conflict:       no spare data-region capacity -> evict
//                              anywhere in the pool (Victim()).
//   * Associativity conflict:  no spare IndexEntry in the key's Bucket ->
//                              evict one of the bucket's residents
//                              (VictimAmong()).
//
// A tenant at its memory quota (§7.1) evicts VictimAmong() its own keys.
// The backend feeds the policy exactly its index residents.
#ifndef CM_CLIQUEMAP_EVICTION_H_
#define CM_CLIQUEMAP_EVICTION_H_

#include <memory>
#include <span>
#include <string_view>

#include "common/hash.h"
#include "cliquemap/types.h"

namespace cm::cliquemap {

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual void OnInsert(const Hash128& key) = 0;
  virtual void OnTouch(const Hash128& key) = 0;
  virtual void OnRemove(const Hash128& key) = 0;

  // Global victim (capacity conflict): a tracked key, or the zero hash when
  // the policy tracks nothing. The caller evicts it and calls OnRemove.
  virtual Hash128 Victim() = 0;

  // Victim restricted to `candidates` (associativity conflict, tenant
  // quota); the zero hash when `candidates` is empty.
  virtual Hash128 VictimAmong(std::span<const Hash128> candidates) = 0;

  virtual size_t tracked() const = 0;
  virtual std::string_view name() const = 0;
};

// `capacity_hint` sizes ARC's ghost lists (expected resident entry count).
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   size_t capacity_hint,
                                                   uint64_t seed);

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_EVICTION_H_
