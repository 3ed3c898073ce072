// Cell deployment harness: wires a complete CliqueMap cell — fabric, RMA
// transport, config service, N backend tasks (plus warm spares), and any
// number of clients — and orchestrates maintenance events (planned
// migration to spares, §6.1; crash + repair recovery, §5.4). Tests,
// benches, and examples all deploy cells through this.
#ifndef CM_CLIQUEMAP_CELL_H_
#define CM_CLIQUEMAP_CELL_H_

#include <memory>
#include <unordered_set>
#include <vector>

#include "cliquemap/backend.h"
#include "cliquemap/client.h"
#include "cliquemap/config_service.h"
#include "rma/hwrma.h"
#include "rma/softnic.h"

namespace cm::cliquemap {

enum class TransportKind {
  kSoftNic,      // Pony-Express-like; SCAR available
  kOneRma,       // all-hardware, low latency, 2xR only
  kClassicRdma,  // conventional RDMA, 2xR only
};

struct CellOptions {
  uint32_t num_shards = 3;
  ReplicationMode mode = ReplicationMode::kR32;
  int num_spares = 0;
  TransportKind transport = TransportKind::kSoftNic;
  net::FabricConfig fabric;
  net::HostConfig backend_host;
  net::HostConfig client_host;
  BackendConfig backend;
  rma::SoftNicConfig softnic;
  // Cell-wide key hash (§6.5); propagated to backends and clients.
  HashFn hash_fn = &HashKey;
  // How long a backend binary restart takes during maintenance.
  sim::Duration restart_duration = sim::Seconds(30);
  uint64_t seed = 42;
  // Multi-tenant QoS (§ DESIGN.md 12). An empty registry keeps the cell
  // untenanted: backends skip admission entirely and the config service
  // serves byte-identical view responses, so deterministic fingerprints
  // recorded before tenancy existed still hold.
  TenantRegistry tenants;
  AdmissionQueue::Options admission;
  // Correlated-failure survival: failure-domain labels cycled across the
  // backend slots at Start (slot s gets failure_domains[s % size]). Empty =
  // domains unconfigured — byte-identical views and behavior, so pre-domain
  // determinism fingerprints hold. Replacements inherit their victim's
  // domain (a rebuilt rack member lands in the same rack) unless a
  // config_override says otherwise.
  std::vector<std::string> failure_domains;
};

class Cell {
 public:
  Cell(sim::Simulator& sim, CellOptions options);
  ~Cell();

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  // Brings up the config service, all backends, and spares.
  void Start();

  // Adds a client on its own freshly-created host.
  // Client ids must be unique within the cell (they feed version-number
  // tie-breaking and metric labels). id 1 is the "auto" default: when taken,
  // the next unused id is assigned. An explicit id that collides with an
  // existing client returns nullptr — loudly, never a silent collision.
  Client* AddClient(ClientConfig config = {});
  // Adds a client co-located on an existing host (e.g. a backend host, the
  // co-tenant setup of Fig 15).
  Client* AddClientOnHost(net::HostId host, ClientConfig config = {});

  // Immutable corpora (§6.4) ----------------------------------------------
  // Loads a corpus from the "external system of record" into every replica
  // via InstallBulk RPCs (used by R=2/Immutable deployments, where GETs
  // then consult a single replica and the second serves only on failure).
  sim::Task<Status> LoadImmutable(
      std::vector<std::pair<std::string, Bytes>> corpus);

  // Maintenance -----------------------------------------------------------
  // Planned maintenance of one shard: migrate to a warm spare, restart the
  // primary, migrate back (Fig 13's timeline).
  sim::Task<Status> PlannedMaintenance(uint32_t shard);
  // Unplanned: crash the shard's backend, restart it after `downtime` on
  // the same host, recover en masse from the cohort (Fig 14's timeline).
  sim::Task<Status> CrashAndRestart(uint32_t shard, sim::Duration downtime);
  void CrashShard(uint32_t shard) { backends_[shard]->Crash(); }

  // Elasticity (resharding) ------------------------------------------------
  // Brings up a brand-new backend on a fresh host, already serving with
  // `config_id` stamped in its buckets. If `shard` indexes an existing slot
  // the old occupant moves to the retired graveyard (still serving — the
  // resharder drains and stops it); if `shard` == num_shards() the cell
  // grows by one slot. A non-null `config_override` customizes the new
  // backend (e.g. fig03's reshaping-enabled geometry).
  Backend* AddBackendForShard(uint32_t shard, uint32_t config_id,
                              const BackendConfig* config_override = nullptr);
  // Moves every backend slot >= new_n to the retired graveyard (they keep
  // serving until the resharder drains them). Returns the retirees.
  std::vector<Backend*> RetireShardsAbove(uint32_t new_n);
  const std::vector<std::unique_ptr<Backend>>& retired() const {
    return retired_;
  }
  // Domain-spread rebalancing support: permutes which live backend serves
  // which shard slot. `order[s]` names the *current* slot of the backend
  // that should serve slot `s` after the move. Pure pointer surgery — no
  // record movement, no config-service update; the resharder drives both
  // through its dual-version window. Backend* pointers stay stable.
  void ReassignShards(const std::vector<uint32_t>& order);

  // Accessors -------------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  net::Fabric& fabric() { return *fabric_; }
  // Cell-wide observability: every layer exports into the fabric's registry
  // and threads its op spans through the fabric's tracer.
  metrics::Registry& metrics() { return fabric_->metrics(); }
  trace::Tracer& tracer() { return fabric_->tracer(); }
  rpc::RpcNetwork& rpc_network() { return *rpc_network_; }
  rma::RmaNetwork& rma_network() { return *rma_network_; }
  rma::RmaTransport* transport() { return transport_.get(); }
  rma::SoftNicTransport* softnic();  // null unless TransportKind::kSoftNic
  rma::HwRmaTransport* hwrma();      // null unless a hardware transport
  truetime::TrueTime& truetime() { return *truetime_; }
  ConfigService& config_service() { return *config_service_; }
  Backend& backend(uint32_t shard) { return *backends_[shard]; }
  Backend& spare(int i) { return *spares_[i]; }
  // Live shard count — tracks elastic resizes, unlike options().num_shards
  // which is only the construction-time shape.
  uint32_t num_shards() const {
    return static_cast<uint32_t>(backends_.size());
  }
  const CellOptions& options() const { return options_; }
  const std::vector<Client*>& clients() const { return client_ptrs_; }

  // Sum of RPC payload bytes over every backend and spare (repair/migration
  // byte-rate series in Figs 13/14).
  int64_t TotalRpcBytes() const;
  // Sum of backend memory footprints (Fig 3's TB-used series, scaled down).
  uint64_t TotalMemoryFootprint() const;
  // Aggregate backend stats.
  BackendStats AggregateBackendStats() const;

 private:
  sim::Simulator& sim_;
  CellOptions options_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<rpc::RpcNetwork> rpc_network_;
  std::unique_ptr<rma::RmaNetwork> rma_network_;
  std::unique_ptr<truetime::TrueTime> truetime_;
  std::unique_ptr<rma::RmaTransport> transport_;
  net::HostId config_host_ = net::kInvalidHost;
  std::unique_ptr<ConfigService> config_service_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::vector<std::unique_ptr<Backend>> spares_;
  // Backends displaced by resharding. They stay allocated for the life of
  // the cell (their RpcServers must survive in-flight calls) but stopped
  // retirees drop their memory regions and leave the footprint sum.
  std::vector<std::unique_ptr<Backend>> retired_;
  uint64_t elastic_seq_ = 0;
  std::vector<bool> spare_busy_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<Client*> client_ptrs_;
  std::unordered_set<uint32_t> used_client_ids_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_CELL_H_
