// MemcacheG: the fully RPC-based key-value caching baseline (§2.1).
//
// Google's production translation of memcached onto Stubby RPC — every
// operation, including GETs, is a full-framework RPC, inheriting the >50
// CPU-us per-op framework cost. This is the comparator that motivates
// CliqueMap: identical caching semantics, radically different dataplane.
// Implemented complete with sharding, LRU eviction, and capacity limits so
// the efficiency comparisons (Fig 7 MSG-style lookups, §6.5 CPU-per-op)
// measure the transport difference, not a strawman.
#ifndef CM_BASELINE_MEMCACHEG_H_
#define CM_BASELINE_MEMCACHEG_H_

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/hash.h"
#include "common/histogram.h"
#include "rpc/rpc.h"
#include "sim/task.h"

namespace cm::baseline {

struct MemcachegConfig {
  uint64_t capacity_bytes = 64ull << 20;  // per server, LRU-bounded
};

class MemcachegServer {
 public:
  MemcachegServer(rpc::RpcNetwork& network, net::HostId host,
                  const MemcachegConfig& config = {});

  net::HostId host() const { return host_; }
  size_t entries() const { return map_.size(); }
  uint64_t used_bytes() const { return used_bytes_; }
  int64_t evictions() const { return evictions_; }

 private:
  sim::Task<StatusOr<Bytes>> HandleGet(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleSet(ByteSpan req);
  sim::Task<StatusOr<Bytes>> HandleDelete(ByteSpan req);

  void TouchLru(const std::string& key);
  void EvictToFit(uint64_t need);

  net::Fabric& fabric_;
  net::HostId host_;
  MemcachegConfig config_;
  rpc::RpcServer server_;

  struct Entry {
    Bytes value;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Entry> map_;
  std::list<std::string> lru_;  // front = most recent
  uint64_t used_bytes_ = 0;
  int64_t evictions_ = 0;
};

// Sharded client: hashes keys across a set of MemcacheG servers.
class MemcachegClient {
 public:
  MemcachegClient(rpc::RpcNetwork& network, net::HostId host,
                  std::vector<net::HostId> servers,
                  sim::Duration deadline = sim::Milliseconds(20));

  sim::Task<StatusOr<Bytes>> Get(std::string key);
  sim::Task<Status> Set(std::string key, Bytes value);
  sim::Task<Status> Delete(std::string key);

  const Histogram& get_latency_ns() const { return get_latency_ns_; }

 private:
  net::HostId ServerFor(std::string_view key) const;

  rpc::RpcNetwork& network_;
  net::HostId host_;
  std::vector<net::HostId> servers_;
  sim::Duration deadline_;
  Histogram get_latency_ns_;
};

}  // namespace cm::baseline

#endif  // CM_BASELINE_MEMCACHEG_H_
