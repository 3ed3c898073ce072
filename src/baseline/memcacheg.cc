#include "baseline/memcacheg.h"

#include "rpc/wire.h"

namespace cm::baseline {
namespace {

constexpr uint16_t kTagKey = 1;
constexpr uint16_t kTagValue = 2;
// Server CPU per request, on top of the RPC framework's own cost.
constexpr sim::Duration kHandlerCpu = sim::Microseconds(2);

}  // namespace

MemcachegServer::MemcachegServer(rpc::RpcNetwork& network, net::HostId host,
                                 const MemcachegConfig& config)
    : fabric_(network.fabric()),
      host_(host),
      config_(config),
      server_(network, host) {
  server_.RegisterMethod("MemcacheG.Get",
                         [this](ByteSpan req) { return HandleGet(req); });
  server_.RegisterMethod("MemcacheG.Set",
                         [this](ByteSpan req) { return HandleSet(req); });
  server_.RegisterMethod("MemcacheG.Delete",
                         [this](ByteSpan req) { return HandleDelete(req); });
}

void MemcachegServer::TouchLru(const std::string& key) {
  auto it = map_.find(key);
  if (it == map_.end()) return;
  lru_.erase(it->second.lru_it);
  lru_.push_front(key);
  it->second.lru_it = lru_.begin();
}

void MemcachegServer::EvictToFit(uint64_t need) {
  while (used_bytes_ + need > config_.capacity_bytes && !lru_.empty()) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto it = map_.find(victim);
    if (it != map_.end()) {
      used_bytes_ -= it->second.value.size() + victim.size();
      map_.erase(it);
      ++evictions_;
    }
  }
}

sim::Task<StatusOr<Bytes>> MemcachegServer::HandleGet(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(kHandlerCpu);
  rpc::WireReader r(req);
  auto key = r.GetString(kTagKey);
  if (!key) co_return InvalidArgumentError("missing key");
  auto it = map_.find(*key);
  if (it == map_.end()) co_return NotFoundError("miss");
  TouchLru(*key);
  rpc::WireWriter w;
  w.PutBytes(kTagValue, it->second.value);
  co_return std::move(w).Take();
}

sim::Task<StatusOr<Bytes>> MemcachegServer::HandleSet(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(kHandlerCpu);
  rpc::WireReader r(req);
  auto key = r.GetString(kTagKey);
  auto value = r.GetBytes(kTagValue);
  if (!key || !value) co_return InvalidArgumentError("missing fields");

  auto it = map_.find(*key);
  if (it != map_.end()) {
    used_bytes_ -= it->second.value.size() + key->size();
    lru_.erase(it->second.lru_it);
    map_.erase(it);
  }
  EvictToFit(value->size() + key->size());
  lru_.push_front(*key);
  map_[*key] = Entry{Bytes(value->begin(), value->end()), lru_.begin()};
  used_bytes_ += value->size() + key->size();
  co_return Bytes{};
}

sim::Task<StatusOr<Bytes>> MemcachegServer::HandleDelete(ByteSpan req) {
  co_await fabric_.host(host_).cpu().Run(kHandlerCpu);
  rpc::WireReader r(req);
  auto key = r.GetString(kTagKey);
  if (!key) co_return InvalidArgumentError("missing key");
  auto it = map_.find(*key);
  if (it == map_.end()) co_return NotFoundError("no such key");
  used_bytes_ -= it->second.value.size() + key->size();
  lru_.erase(it->second.lru_it);
  map_.erase(it);
  co_return Bytes{};
}

MemcachegClient::MemcachegClient(rpc::RpcNetwork& network, net::HostId host,
                                 std::vector<net::HostId> servers,
                                 sim::Duration deadline)
    : network_(network),
      host_(host),
      servers_(std::move(servers)),
      deadline_(deadline) {}

net::HostId MemcachegClient::ServerFor(std::string_view key) const {
  return servers_[Mix64(HashKey(key).lo) % servers_.size()];
}

sim::Task<StatusOr<Bytes>> MemcachegClient::Get(std::string key) {
  const sim::Time start = network_.fabric().simulator().now();
  rpc::WireWriter w;
  w.PutString(kTagKey, key);
  rpc::RpcChannel ch(network_, host_, ServerFor(key));
  auto resp = co_await ch.Call("MemcacheG.Get", std::move(w).Take(), deadline_);
  get_latency_ns_.Record(network_.fabric().simulator().now() - start);
  if (!resp.ok()) co_return resp.status();
  rpc::WireReader r(*resp);
  auto value = r.GetBytes(kTagValue);
  if (!value) co_return InternalError("malformed response");
  co_return Bytes(value->begin(), value->end());
}

sim::Task<Status> MemcachegClient::Set(std::string key, Bytes value) {
  rpc::WireWriter w;
  w.PutString(kTagKey, key);
  w.PutBytes(kTagValue, value);
  rpc::RpcChannel ch(network_, host_, ServerFor(key));
  auto resp = co_await ch.Call("MemcacheG.Set", std::move(w).Take(), deadline_);
  co_return resp.status();
}

sim::Task<Status> MemcachegClient::Delete(std::string key) {
  rpc::WireWriter w;
  w.PutString(kTagKey, key);
  rpc::RpcChannel ch(network_, host_, ServerFor(key));
  auto resp =
      co_await ch.Call("MemcacheG.Delete", std::move(w).Take(), deadline_);
  co_return resp.status();
}

}  // namespace cm::baseline
