#include "cliquemap/cell.h"

#include <cassert>
#include <cstdio>

namespace cm::cliquemap {
namespace {
// TrueTime's instantaneous uncertainty bound.
constexpr sim::Duration kTrueTimeEpsilon = sim::Milliseconds(1);
}  // namespace

Cell::Cell(sim::Simulator& sim, CellOptions options)
    : sim_(sim), options_(std::move(options)) {
  fabric_ = std::make_unique<net::Fabric>(sim_, options_.fabric);
  rpc_network_ = std::make_unique<rpc::RpcNetwork>(*fabric_);
  rma_network_ = std::make_unique<rma::RmaNetwork>();
  truetime_ = std::make_unique<truetime::TrueTime>(
      sim_, kTrueTimeEpsilon, options_.seed);
  switch (options_.transport) {
    case TransportKind::kSoftNic:
      transport_ = std::make_unique<rma::SoftNicTransport>(
          *fabric_, *rma_network_, options_.softnic);
      break;
    case TransportKind::kOneRma:
      transport_ = std::make_unique<rma::HwRmaTransport>(
          *fabric_, *rma_network_, rma::HwRmaConfig::OneRma());
      break;
    case TransportKind::kClassicRdma:
      transport_ = std::make_unique<rma::HwRmaTransport>(
          *fabric_, *rma_network_, rma::HwRmaConfig::ClassicRdma());
      break;
  }
}

Cell::~Cell() = default;

rma::SoftNicTransport* Cell::softnic() {
  return options_.transport == TransportKind::kSoftNic
             ? static_cast<rma::SoftNicTransport*>(transport_.get())
             : nullptr;
}

rma::HwRmaTransport* Cell::hwrma() {
  return options_.transport == TransportKind::kSoftNic
             ? nullptr
             : static_cast<rma::HwRmaTransport*>(transport_.get());
}

void Cell::Start() {
  config_host_ = fabric_->AddHost(options_.backend_host);
  config_service_ = std::make_unique<ConfigService>(*rpc_network_,
                                                    config_host_);

  CellView view;
  view.mode = options_.mode;
  view.shard_hosts.resize(options_.num_shards);
  view.shard_config_ids.resize(options_.num_shards);
  if (!options_.failure_domains.empty()) {
    view.shard_domains.resize(options_.num_shards);
  }

  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    const net::HostId host = fabric_->AddHost(options_.backend_host);
    BackendConfig cfg = options_.backend;
    cfg.seed = options_.seed + s;
    cfg.hash_fn = options_.hash_fn;
    if (!options_.failure_domains.empty()) {
      cfg.failure_domain =
          options_.failure_domains[s % options_.failure_domains.size()];
      view.shard_domains[s] = cfg.failure_domain;
    }
    backends_.push_back(std::make_unique<Backend>(
        *fabric_, *rpc_network_, *rma_network_, *truetime_, host,
        config_service_.get(), s, cfg));
    view.shard_hosts[s] = host;
    view.shard_config_ids[s] = 1000 * (s + 1);
  }
  config_service_->SetInitialView(view);
  if (!options_.tenants.empty()) {
    config_service_->SetTenantRegistry(options_.tenants);
    for (auto& b : backends_) {
      b->EnableTenancy(options_.tenants, options_.admission);
    }
  }
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    backends_[s]->Start(view.shard_config_ids[s]);
  }

  for (int i = 0; i < options_.num_spares; ++i) {
    const net::HostId host = fabric_->AddHost(options_.backend_host);
    BackendConfig cfg = options_.backend;
    cfg.seed = options_.seed + 100000 + static_cast<uint64_t>(i);
    cfg.hash_fn = options_.hash_fn;
    spares_.push_back(std::make_unique<Backend>(
        *fabric_, *rpc_network_, *rma_network_, *truetime_, host,
        config_service_.get(), /*shard=*/0, cfg));
    if (!options_.tenants.empty()) {
      // A spare temporarily hosts a shard during maintenance; it must
      // enforce the same per-tenant quotas as the primary it stands in for.
      spares_.back()->EnableTenancy(options_.tenants, options_.admission);
    }
    spares_.back()->Start(/*config_id=*/1);  // warm and idle
    spare_busy_.push_back(false);
  }
}

Client* Cell::AddClient(ClientConfig config) {
  return AddClientOnHost(fabric_->AddHost(options_.client_host),
                         std::move(config));
}

Client* Cell::AddClientOnHost(net::HostId host, ClientConfig config) {
  if (config.client_id == 1 && !clients_.empty()) {
    // Auto-assign: next id after the existing clients, skipping any that an
    // explicit-id client already claimed.
    uint32_t candidate = static_cast<uint32_t>(clients_.size()) + 1;
    while (used_client_ids_.count(candidate)) ++candidate;
    config.client_id = candidate;
  } else if (used_client_ids_.count(config.client_id)) {
    std::fprintf(stderr,
                 "Cell::AddClient: duplicate client_id %u (explicit ids must "
                 "be unique; id 1 auto-assigns)\n",
                 config.client_id);
    return nullptr;
  }
  used_client_ids_.insert(config.client_id);
  if (config.hash_fn == &HashKey) config.hash_fn = options_.hash_fn;
  clients_.push_back(std::make_unique<Client>(
      *fabric_, *rpc_network_, transport_.get(), *truetime_, host,
      config_host_, std::move(config)));
  client_ptrs_.push_back(clients_.back().get());
  return clients_.back().get();
}

Backend* Cell::AddBackendForShard(uint32_t shard, uint32_t config_id,
                                  const BackendConfig* config_override) {
  const net::HostId host = fabric_->AddHost(options_.backend_host);
  BackendConfig cfg = config_override ? *config_override : options_.backend;
  cfg.seed = options_.seed + 50000 + ++elastic_seq_;
  cfg.hash_fn = options_.hash_fn;
  if (!options_.failure_domains.empty() && cfg.failure_domain.empty()) {
    // A replacement inherits its victim's domain (the rebuilt backend lands
    // in the same rack); a growth slot continues the round-robin cycle.
    cfg.failure_domain =
        shard < backends_.size()
            ? backends_[shard]->config().failure_domain
            : options_.failure_domains[shard % options_.failure_domains.size()];
  }
  auto fresh = std::make_unique<Backend>(*fabric_, *rpc_network_,
                                         *rma_network_, *truetime_, host,
                                         config_service_.get(), shard, cfg);
  if (!options_.tenants.empty()) {
    fresh->EnableTenancy(options_.tenants, options_.admission);
  }
  fresh->Start(config_id);
  Backend* raw = fresh.get();
  if (shard < backends_.size()) {
    // Replacement: the displaced backend keeps serving from the graveyard
    // until the resharder drains and stops it.
    retired_.push_back(std::move(backends_[shard]));
    backends_[shard] = std::move(fresh);
  } else {
    assert(shard == backends_.size() && "shards grow contiguously");
    backends_.push_back(std::move(fresh));
  }
  return raw;
}

void Cell::ReassignShards(const std::vector<uint32_t>& order) {
  assert(order.size() == backends_.size() &&
         "reassignment must cover every live slot");
  std::vector<std::unique_ptr<Backend>> next(backends_.size());
  for (uint32_t s = 0; s < order.size(); ++s) {
    assert(order[s] < backends_.size() && backends_[order[s]] &&
           "reassignment order must be a permutation");
    next[s] = std::move(backends_[order[s]]);
    next[s]->SetShard(s);
  }
  backends_ = std::move(next);
}

std::vector<Backend*> Cell::RetireShardsAbove(uint32_t new_n) {
  std::vector<Backend*> retirees;
  while (backends_.size() > new_n) {
    retirees.push_back(backends_.back().get());
    retired_.push_back(std::move(backends_.back()));
    backends_.pop_back();
  }
  return retirees;
}

sim::Task<Status> Cell::LoadImmutable(
    std::vector<std::pair<std::string, Bytes>> corpus) {
  // The loader acts as a bulk client of record: one InstallBulk batch per
  // replica backend, partitioned by shard placement.
  const uint32_t n = num_shards();
  const ReplicationMode mode =
      config_service_ ? config_service_->view().mode : options_.mode;
  const int replicas = ReplicaCount(mode);
  const net::HostId loader = fabric_->AddHost(options_.client_host);
  std::vector<Bytes> batches(n);
  VersionNumber load_version{truetime_->NowMicros(loader), 0x10ADu, 1};
  for (const auto& [key, value] : corpus) {
    const uint32_t primary = PrimaryShard(options_.hash_fn(key), n);
    for (int r = 0; r < replicas; ++r) {
      proto::AppendBulkRecord(batches[ReplicaShard(primary, r, n)], key,
                              value, load_version);
    }
  }
  for (uint32_t s = 0; s < n; ++s) {
    if (batches[s].empty()) continue;
    rpc::WireWriter w;
    w.PutBytes(proto::kTagRecords, batches[s]);
    rpc::RpcChannel ch(*rpc_network_, loader, backends_[s]->host());
    auto resp = co_await ch.Call(proto::kMethodInstallBulk,
                                 std::move(w).Take(), sim::Seconds(30));
    if (!resp.ok()) co_return resp.status();
  }
  co_return OkStatus();
}

sim::Task<Status> Cell::PlannedMaintenance(uint32_t shard) {
  // Find a free warm spare.
  int spare_idx = -1;
  for (size_t i = 0; i < spares_.size(); ++i) {
    if (!spare_busy_[i]) {
      spare_idx = static_cast<int>(i);
      break;
    }
  }
  if (spare_idx < 0) co_return ResourceExhaustedError("no free warm spare");
  spare_busy_[static_cast<size_t>(spare_idx)] = true;
  Backend& primary = *backends_[shard];
  Backend& spare = *spares_[static_cast<size_t>(spare_idx)];

  // 1. The notified primary streams its data to the spare (RPC traffic).
  Status s = co_await primary.MigrateTo(spare.host());
  if (!s.ok()) {
    spare_busy_[static_cast<size_t>(spare_idx)] = false;
    co_return s;
  }

  // 2. Identity handoff: the spare temporarily hosts the shard. Clients
  //    discover the migration via bucket config-id mismatch / RMA failures
  //    and refresh their cell view.
  const uint32_t spare_config =
      config_service_->UpdateShard(shard, spare.host());
  spare.SetConfigId(spare_config);
  // The slot's domain label follows the serving host: the warm spare sits
  // in whatever domain its own config says (usually unlabeled).
  config_service_->SetShardDomain(shard, spare.config().failure_domain);

  // 3. The primary exits for its binary upgrade, then restarts.
  primary.Stop();
  co_await sim_.Delay(options_.restart_duration);
  primary.Start(/*config_id=*/0);

  // 4. The spare returns the shard's data to the restarted primary.
  s = co_await spare.MigrateTo(primary.host());
  if (!s.ok()) {
    spare_busy_[static_cast<size_t>(spare_idx)] = false;
    co_return s;
  }
  const uint32_t new_config =
      config_service_->UpdateShard(shard, primary.host());
  primary.SetConfigId(new_config);
  config_service_->SetShardDomain(shard, primary.config().failure_domain);

  // 5. Recycle the spare: restart clears its (stale) copy.
  spare.Stop();
  spare.Start(/*config_id=*/1);
  spare_busy_[static_cast<size_t>(spare_idx)] = false;
  co_return OkStatus();
}

sim::Task<Status> Cell::CrashAndRestart(uint32_t shard,
                                        sim::Duration downtime) {
  Backend& backend = *backends_[shard];
  backend.Crash();
  co_await sim_.Delay(downtime);
  backend.Start(/*config_id=*/0);
  const uint32_t new_config =
      config_service_->UpdateShard(shard, backend.host());
  backend.SetConfigId(new_config);
  // Restarted backends request repairs from their healthy cohorts en masse
  // (§5.4).
  co_await backend.RecoverFromCohort();
  co_return OkStatus();
}

int64_t Cell::TotalRpcBytes() const {
  int64_t total = 0;
  for (const auto& b : backends_) total += b->lifetime_rpc_bytes();
  for (const auto& s : spares_) total += s->lifetime_rpc_bytes();
  for (const auto& r : retired_) total += r->lifetime_rpc_bytes();
  return total;
}

uint64_t Cell::TotalMemoryFootprint() const {
  // Retired backends are excluded: a stopped retiree has returned its DRAM
  // to the fleet, and a still-draining one is double-counted capacity the
  // cell is about to give back — the Fig 3 footprint tracks the live shape.
  uint64_t total = 0;
  for (const auto& b : backends_) total += b->memory_footprint();
  return total;
}

BackendStats Cell::AggregateBackendStats() const {
  BackendStats agg;
  for (const auto& b : backends_) agg += b->stats();
  for (const auto& s : spares_) agg += s->stats();
  for (const auto& r : retired_) agg += r->stats();
  return agg;
}

}  // namespace cm::cliquemap
