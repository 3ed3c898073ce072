// Production-grade-RPC cost model ("Stubby" stand-in).
//
// The paper's motivating observation (§1, §2.1): "even an empty RPC often
// costs >50 CPU-us in framework and transport code across client and
// server" — the price of authentication, versioning, ACLs, logging and
// multi-language support. We model those framework costs explicitly and
// charge them to the simulated host CPUs, so the RPC-vs-RMA efficiency gap
// that motivates CliqueMap's hybrid design is reproduced quantitatively.
//
// Handlers are coroutines running on the server host; concurrent RPCs (and
// RMA reads) interleave, which is what makes mutation/lookup races real.
#ifndef CM_RPC_RPC_H_
#define CM_RPC_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/status.h"
#include "net/fabric.h"
#include "sim/task.h"

namespace cm::rpc {

// The client side's costs are fixed (rpc.cc); a server's framework cost is
// its own.
struct RpcCostModel {
  // Server-side dispatch, auth (ALTS-like), unmarshal + marshal cost.
  sim::Duration server_framework_cpu = sim::Microseconds(26);
};

// A handler consumes a request payload and produces a response payload.
using Handler =
    std::function<sim::Task<StatusOr<Bytes>>(ByteSpan request)>;

class RpcServer;

// Registry binding hosts to RPC servers; channels resolve targets here.
// Also holds the pre-resolved network-wide RPC counters (channels are
// constructed per call, so the O(1) handles live here).
class RpcNetwork {
 public:
  explicit RpcNetwork(net::Fabric& fabric)
      : fabric_(fabric),
        calls_(fabric.metrics().AddCounter("cm.rpc.calls")),
        call_errors_(fabric.metrics().AddCounter("cm.rpc.call_errors")) {}

  net::Fabric& fabric() { return fabric_; }

  void Register(net::HostId host, RpcServer* server) {
    servers_[host] = server;
  }
  void Unregister(net::HostId host) { servers_.erase(host); }
  RpcServer* Find(net::HostId host) {
    auto it = servers_.find(host);
    return it == servers_.end() ? nullptr : it->second;
  }

 private:
  friend class RpcChannel;

  net::Fabric& fabric_;
  metrics::Counter* calls_;
  metrics::Counter* call_errors_;
  std::unordered_map<net::HostId, RpcServer*> servers_;
};

class RpcServer {
 public:
  // Registers with the network and exports cm.rpc.server_* metrics under a
  // {host=N} label into the fabric's registry for its own lifetime.
  RpcServer(RpcNetwork& network, net::HostId host,
            const RpcCostModel& costs = {});
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void RegisterMethod(std::string name, Handler handler);

  // Application-to-application authentication + per-RPC ACLs (the ALTS
  // role in Table 1: "accessible by any authenticated production system").
  // The policy sees the authenticated peer identity (its host) and the
  // method; default allows everything. Part of what the >50us framework
  // cost buys.
  using AuthPolicy = std::function<bool(net::HostId peer,
                                        std::string_view method)>;
  void SetAuthPolicy(AuthPolicy policy) { auth_policy_ = std::move(policy); }

  net::HostId host() const { return host_; }

  // The server's own cost model. Channels charge the server-side framework
  // cost from here — the serving process, not the caller's stub, decides
  // how expensive its dispatch path is.
  const RpcCostModel& costs() const { return costs_; }

  // A "down" server silently drops requests (crash semantics); clients see
  // connect timeouts. Used by the unplanned-maintenance experiments.
  void SetDown(bool down) { down_ = down; }
  bool down() const { return down_; }

  // Cumulative RPC payload bytes (both directions), for the RPC-bytes/sec
  // series in Figs 13/14.
  int64_t total_bytes() const { return total_bytes_; }
  int64_t calls_served() const { return calls_served_; }

 private:
  friend class RpcChannel;

  sim::Task<StatusOr<Bytes>> Dispatch(net::HostId peer,
                                      std::string_view method,
                                      ByteSpan request);

  RpcNetwork& network_;
  net::HostId host_;
  RpcCostModel costs_;
  AuthPolicy auth_policy_;
  bool down_ = false;
  int64_t total_bytes_ = 0;
  int64_t calls_served_ = 0;
  metrics::ExportGroup exports_;
  std::unordered_map<std::string, Handler> methods_;
};

// Client-side stub bound to (client host, server host).
class RpcChannel {
 public:
  RpcChannel(RpcNetwork& network, net::HostId client_host,
             net::HostId server_host);

  // Issues a call: charges framework CPU on both hosts, transfers request
  // and response over the fabric, runs the handler coroutine server-side.
  // A live `parent` span nests an "rpc" span (and the fabric spans below it)
  // under the caller's trace tree.
  sim::Task<StatusOr<Bytes>> Call(std::string method, Bytes request,
                                  sim::Duration deadline,
                                  trace::SpanId parent = trace::kNoSpan);

  net::HostId server_host() const { return server_host_; }

 private:
  RpcNetwork& network_;
  net::HostId client_host_;
  net::HostId server_host_;
};

}  // namespace cm::rpc

#endif  // CM_RPC_RPC_H_
