// Figure 7: CliqueMap-client and software-NIC CPU per op under three
// lookup strategies: 2xR, SCAR, and two-sided messaging (MSG).
//
// Expected shape (§6.3): SCAR halves the NIC work of 2xR (one op instead
// of two); MSG — waking a server application thread per lookup — costs far
// more than either one-sided strategy.
//
// All per-layer attribution comes from the metrics registry: a snapshot is
// taken around the measured loop and the delta is broken down into client
// issue/validate CPU (cm.client.*_cpu_ns), software-NIC engine time
// (cm.rma.*_nic_ns), and server host CPU (cm.host.cpu_busy_ns). With
// `--json` the bench emits those components as a cm.bench.v1 document.
#include "bench_util.h"

#include "rma/softnic.h"

namespace cm::bench {
namespace {

using namespace cm::cliquemap;

struct CpuCosts {
  double client_ns_per_op = 0;  // whole client-host CPU
  double nic_ns_per_op = 0;     // initiator + target software-NIC engine time
  // Registry-attributed breakdown (ns/op) of where the cycles went.
  double issue_ns_per_op = 0;     // client library: issuing RMA ops
  double validate_ns_per_op = 0;  // client library: hit-condition checks
  double server_ns_per_op = 0;    // server application CPU (MSG only)
  metrics::Snapshot delta;        // the full measured-section delta
};

// Delta of the (gauge) host-CPU busy time between two snapshots.
int64_t HostBusyDelta(const metrics::Snapshot& before,
                      const metrics::Snapshot& after, net::HostId host) {
  const std::string name = metrics::RenderName(
      "cm.host.cpu_busy_ns", {{"host", std::to_string(host)}});
  return after.value(name) - before.value(name);
}

CpuCosts Measure(LookupStrategy strategy, int ops) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 1;
  o.mode = ReplicationMode::kR1;
  o.transport = TransportKind::kSoftNic;
  Cell cell(sim, std::move(o));
  cell.Start();
  ClientConfig cc;
  cc.strategy = strategy;
  Client* client = cell.AddClient(cc);
  (void)RunOp(sim, client->Connect());
  (void)RunOp(sim, client->Set("k", Bytes(64, std::byte{1})));
  (void)RunOp(sim, client->Get("k"));  // warm

  const metrics::Snapshot before = cell.metrics().TakeSnapshot();
  for (int i = 0; i < ops; ++i) {
    auto r = RunOp(sim, client->Get("k"));
    if (!r.ok()) std::abort();
  }
  const metrics::Snapshot after = cell.metrics().TakeSnapshot();
  metrics::Snapshot d = after.DeltaFrom(before);

  CpuCosts c;
  c.client_ns_per_op =
      double(HostBusyDelta(before, after, client->host())) / ops;
  c.nic_ns_per_op = double(d.SumPrefix("cm.rma.initiator_nic_ns") +
                           d.SumPrefix("cm.rma.target_nic_ns")) /
                    ops;
  c.issue_ns_per_op = double(d.SumPrefix("cm.client.issue_cpu_ns")) / ops;
  c.validate_ns_per_op =
      double(d.SumPrefix("cm.client.validate_cpu_ns")) / ops;
  c.server_ns_per_op =
      double(HostBusyDelta(before, after, cell.backend(0).host())) / ops;
  c.delta = std::move(d);
  return c;
}

// MSG: a two-sided message over the software NIC that wakes a server
// application thread to perform the lookup (HERD-style).
CpuCosts MeasureMsg(int ops) {
  sim::Simulator sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  rma::RmaNetwork rma_network;
  rma::SoftNicTransport nic(fabric, rma_network);
  net::HostId client = fabric.AddHost(net::HostConfig{});
  net::HostId server = fabric.AddHost(net::HostConfig{});

  Bytes value(64, std::byte{1});
  auto handler = [&](ByteSpan) -> sim::Task<StatusOr<Bytes>> {
    co_return value;  // the lookup itself: a handful of memory accesses
  };

  const metrics::Snapshot before = fabric.metrics().TakeSnapshot();
  for (int i = 0; i < ops; ++i) {
    auto r = RunOp(sim, [](net::Fabric& fabric, rma::SoftNicTransport& nic,
                           net::HostId client, net::HostId server,
                           auto& handler) -> sim::Task<StatusOr<Bytes>> {
      // Two-sided on the client too: the caller thread blocks and must be
      // woken to consume the response.
      co_await fabric.host(client).cpu().Run(sim::Nanoseconds(600));
      auto r = co_await nic.Message(client, server, cm::ToBytes("get k"),
                                    handler, sim::Microseconds(1));
      co_await fabric.host(client).cpu().Run(sim::Microseconds(1));
      co_return r;
    }(fabric, nic, client, server, handler));
    if (!r.ok()) std::abort();
  }
  const metrics::Snapshot after = fabric.metrics().TakeSnapshot();
  metrics::Snapshot d = after.DeltaFrom(before);

  CpuCosts c;
  c.client_ns_per_op = double(HostBusyDelta(before, after, client)) / ops;
  c.server_ns_per_op = double(HostBusyDelta(before, after, server)) / ops;
  // Application-thread wake cost counts against the "Pony Express" bar in
  // the paper's accounting of server-side lookup cost.
  c.nic_ns_per_op = double(d.SumPrefix("cm.rma.initiator_nic_ns") +
                           d.SumPrefix("cm.rma.target_nic_ns")) /
                        ops +
                    c.server_ns_per_op;
  c.delta = std::move(d);
  return c;
}

void AddStrategy(JsonReport& report, const char* prefix, const CpuCosts& c) {
  report.AddScalar(std::string(prefix) + ".client_ns_per_op",
                   c.client_ns_per_op);
  report.AddScalar(std::string(prefix) + ".nic_ns_per_op", c.nic_ns_per_op);
  report.AddScalar(std::string(prefix) + ".issue_ns_per_op",
                   c.issue_ns_per_op);
  report.AddScalar(std::string(prefix) + ".validate_ns_per_op",
                   c.validate_ns_per_op);
  report.AddScalar(std::string(prefix) + ".server_ns_per_op",
                   c.server_ns_per_op);
  report.AddSnapshot(prefix, c.delta);
}

}  // namespace
}  // namespace cm::bench

int main(int argc, char** argv) {
  using namespace cm::bench;
  using cm::cliquemap::LookupStrategy;
  JsonReport report(argc, argv, "fig07_cpu_per_op");

  const int kOps = 3000;
  CpuCosts two_r = Measure(LookupStrategy::kTwoR, kOps);
  CpuCosts scar = Measure(LookupStrategy::kScar, kOps);
  CpuCosts msg = MeasureMsg(kOps);

  if (report.enabled()) {
    AddStrategy(report, "2xr", two_r);
    AddStrategy(report, "scar", scar);
    AddStrategy(report, "msg", msg);
    report.Emit();
    return 0;
  }

  Banner("Figure 7: CPU-ns/op by lookup strategy (client vs software NIC)");
  std::printf("%-8s %22s %26s\n", "strategy", "CliqueMap client (ns/op)",
              "Pony Express + server (ns/op)");
  std::printf("%-8s %22.0f %26.0f\n", "2xR", two_r.client_ns_per_op,
              two_r.nic_ns_per_op);
  std::printf("%-8s %22.0f %26.0f\n", "SCAR", scar.client_ns_per_op,
              scar.nic_ns_per_op);
  std::printf("%-8s %22.0f %26.0f\n", "MSG", msg.client_ns_per_op,
              msg.nic_ns_per_op);
  std::printf("\nPer-layer attribution (registry snapshot deltas, ns/op):\n");
  std::printf("%-8s %10s %10s %10s\n", "strategy", "issue", "validate",
              "server");
  std::printf("%-8s %10.0f %10.0f %10.0f\n", "2xR", two_r.issue_ns_per_op,
              two_r.validate_ns_per_op, two_r.server_ns_per_op);
  std::printf("%-8s %10.0f %10.0f %10.0f\n", "SCAR", scar.issue_ns_per_op,
              scar.validate_ns_per_op, scar.server_ns_per_op);
  std::printf("%-8s %10.0f %10.0f %10.0f\n", "MSG", msg.issue_ns_per_op,
              msg.validate_ns_per_op, msg.server_ns_per_op);
  std::printf(
      "\nTakeaway check: SCAR < 2xR on both client and NIC cost (half the\n"
      "ops per GET); MSG's thread wake dwarfs SCAR's in-NIC bucket scan.\n");
  return 0;
}
