#include "rpc/rpc.h"

namespace cm::rpc {
namespace {
// Client-side marshal + send-path framework cost.
constexpr sim::Duration kClientSendCpu = sim::Microseconds(18);
// Client-side receive-path + unmarshal cost.
constexpr sim::Duration kClientRecvCpu = sim::Microseconds(8);
// Wire overhead per message: framing, auth stamp, method name, tracing.
constexpr int64_t kHeaderBytes = 128;
// How long a client waits before declaring a dead server unreachable.
constexpr sim::Duration kConnectTimeout = sim::Milliseconds(2);
}  // namespace

RpcServer::RpcServer(RpcNetwork& network, net::HostId host,
                     const RpcCostModel& costs)
    : network_(network),
      host_(host),
      costs_(costs),
      exports_(&network.fabric().metrics()) {
  network_.Register(host_, this);
  const metrics::Labels l = {{"host", std::to_string(host_)}};
  exports_.ExportCounter("cm.rpc.server_bytes", l, &total_bytes_);
  exports_.ExportCounter("cm.rpc.server_calls", l, &calls_served_);
}

RpcServer::~RpcServer() { network_.Unregister(host_); }

void RpcServer::RegisterMethod(std::string name, Handler handler) {
  methods_[std::move(name)] = std::move(handler);
}

sim::Task<StatusOr<Bytes>> RpcServer::Dispatch(net::HostId peer,
                                               std::string_view method,
                                               ByteSpan request) {
  if (auth_policy_ && !auth_policy_(peer, method)) {
    co_return PermissionDeniedError("acl: peer not authorized for " +
                                    std::string(method));
  }
  auto it = methods_.find(std::string(method));
  if (it == methods_.end()) {
    co_return UnimplementedError("no such method: " + std::string(method));
  }
  ++calls_served_;
  co_return co_await it->second(request);
}

RpcChannel::RpcChannel(RpcNetwork& network, net::HostId client_host,
                       net::HostId server_host)
    : network_(network),
      client_host_(client_host),
      server_host_(server_host) {}

sim::Task<StatusOr<Bytes>> RpcChannel::Call(std::string method, Bytes request,
                                            sim::Duration deadline,
                                            trace::SpanId parent) {
  net::Fabric& fabric = network_.fabric();
  sim::Simulator& sim = fabric.simulator();
  trace::Tracer& tracer = fabric.tracer();
  const trace::SpanId span = tracer.Begin("rpc", parent, client_host_);
  network_.calls_->Inc();
  const sim::Time start = sim.now();
  const sim::Time deadline_at = start + deadline;

  // Client send path: marshal, auth stamp, transport bookkeeping.
  co_await fabric.host(client_host_).cpu().Run(kClientSendCpu);

  const auto req_bytes = static_cast<int64_t>(request.size()) + kHeaderBytes;
  net::MessageFate req_fate = co_await fabric.TransferFaulty(
      client_host_, server_host_, req_bytes, span);

  RpcServer* server = network_.Find(server_host_);
  if (server == nullptr || server->down() || req_fate.partitioned) {
    // Crash / partition semantics: nothing answers and the connection never
    // establishes. The client burns its connect timeout (or the remaining
    // deadline, whichever is smaller). Callers treat Unavailable as a dead
    // replica and back off.
    sim::Duration wait = std::min(
        kConnectTimeout, std::max<sim::Duration>(deadline_at - sim.now(), 0));
    co_await sim.Delay(wait);
    network_.call_errors_->Inc();
    tracer.End(span, -1);
    co_return UnavailableError("server unreachable");
  }
  if (!req_fate.delivered || req_fate.corrupt) {
    // Mid-flight loss over an established connection (a corrupted frame is
    // discarded by the transport CRC, indistinguishable from a drop): the
    // call can only expire. Never silent success.
    co_await sim.WaitUntil(deadline_at);
    network_.call_errors_->Inc();
    tracer.End(span, -1);
    co_return DeadlineExceededError("rpc request lost");
  }

  server->total_bytes_ += req_fate.duplicate ? 2 * req_bytes : req_bytes;

  // Server framework: dispatch, auth verification, unmarshal + marshal.
  // Charged from the server's own cost model — the serving process decides
  // how expensive its dispatch path is, not the caller's stub.
  co_await fabric.host(server_host_).cpu().Run(
      server->costs().server_framework_cpu);
  StatusOr<Bytes> response =
      co_await server->Dispatch(client_host_, method, request);
  if (req_fate.duplicate) {
    // At-least-once delivery: the duplicated request is dispatched too and
    // its result discarded. Version-gated mutations make the second apply a
    // no-op; the server still pays the CPU.
    co_await fabric.host(server_host_).cpu().Run(
        server->costs().server_framework_cpu);
    StatusOr<Bytes> dup = co_await server->Dispatch(client_host_, method,
                                                    request);
    (void)dup;
  }

  int64_t resp_payload =
      response.ok() ? static_cast<int64_t>(response->size()) : 0;
  const int64_t resp_bytes = resp_payload + kHeaderBytes;
  server->total_bytes_ += resp_bytes;
  net::MessageFate resp_fate = co_await fabric.TransferFaulty(
      server_host_, client_host_, resp_bytes, span);

  // Client receive path.
  co_await fabric.host(client_host_).cpu().Run(kClientRecvCpu);
  if (!resp_fate.delivered || resp_fate.corrupt || resp_fate.partitioned) {
    // The server applied the call but the reply never arrived: the client
    // observes only a deadline expiry (ambiguity is the point — retries must
    // be idempotent / version-gated).
    co_await sim.WaitUntil(deadline_at);
    network_.call_errors_->Inc();
    tracer.End(span, -1);
    co_return DeadlineExceededError("rpc response lost");
  }

  if (sim.now() > deadline_at) {
    network_.call_errors_->Inc();
    tracer.End(span, -1);
    co_return DeadlineExceededError("rpc deadline exceeded");
  }
  tracer.End(span, resp_bytes);
  co_return response;
}

}  // namespace cm::rpc
