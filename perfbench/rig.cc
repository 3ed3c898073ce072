#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "bench.h"
#include "common/buffer.h"
#include "layers.h"

namespace cmb {

namespace cq = cm::cliquemap;
using cm::sim::Task;
using cm::workload::BatchDistribution;
using cm::workload::SizeDistribution;

namespace {

using Clock = std::chrono::steady_clock;

// Open-loop shed gate: arrivals beyond this many outstanding ops per client
// are refused and count as failed.
constexpr int kMaxOutstanding = 1024;
// The simulator runs in slices of this much sim time between checks for a
// drained phase, so a phase ends within one slice of its last op.
constexpr Duration kSlice = cm::sim::Microseconds(50);
// Every value starts with (key index, write sequence).
constexpr size_t kValueHeader = 16;
constexpr uint64_t kCorpusSeed = 0xC0A9B5;
constexpr uint32_t kUnwritten = ~0u;
constexpr Time kNever = std::numeric_limits<Time>::max();
// Size of the fixed, sorted pool batch sizes are dealt from.
constexpr size_t kBatchPool = 1 << 16;

}  // namespace

// The three workloads. Each varies what one-sided caching depends on: value
// size and write share (RDMA vs RPC) and key reuse against the client's
// location cache (Storm).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> v;
    // Byte-heavy: checksum, buffers, fabric, batch pipeline and incast.
    v.push_back(Workload{
        .name = "ads_batched",
        .transport = cq::TransportKind::kSoftNic,
        .mode = cq::ReplicationMode::kR32,
        .shards = 6,
        .data_max_bytes = 256ull << 20,
        .data_initial_bytes = 16ull << 20,
        .initial_buckets = 512,
        .slab_bytes = 2ull << 20,
        .num_keys = 8192,
        .absent_every = 16,
        .zipf_theta = 0.99,
        .sizes = SizeDistribution::Ads(),
        .batches = BatchDistribution(24, 300),
        .client_qps = {2400, 2400, 2400, 4000},
        .client_get_fraction = {1.0, 1.0, 1.0, 0.0},
        .loccache_ttl = cm::sim::Microseconds(200),
        .nominal = cm::sim::Milliseconds(1800),
        .warmup = cm::sim::Milliseconds(100),
        .rung = cm::sim::Milliseconds(70),
        .ladder = {2, 4, 8, 16},
        .latency_limit_us = 1500,
        .refresh_only_writes = false,
        .trace_sample_every = 8,
    });
    // Event-bound: sim kernel, quorum logic and the speculative 1-RMA path.
    v.push_back(Workload{
        .name = "geo_point",
        .transport = cq::TransportKind::kOneRma,
        .mode = cq::ReplicationMode::kR1,
        .shards = 4,
        .data_max_bytes = 256ull << 20,
        .data_initial_bytes = 16ull << 20,
        .initial_buckets = 512,
        .slab_bytes = 256ull << 10,
        .num_keys = 2048,
        .absent_every = 16,
        .zipf_theta = 0.8,
        .sizes = SizeDistribution::Geo(),
        .batches = BatchDistribution::Single(),
        .client_qps = {100000, 100000, 100000, 100000},
        .client_get_fraction = {0.98, 0.98, 0.98, 0.98},
        .loccache_ttl = cm::sim::Milliseconds(50),
        .nominal = cm::sim::Milliseconds(300),
        .warmup = cm::sim::Milliseconds(50),
        .rung = cm::sim::Microseconds(2500),
        .ladder = {2, 4, 8, 16, 32, 64},
        .latency_limit_us = 100,
        .refresh_only_writes = true,
        .trace_sample_every = 16,
    });
    // Writes beside reads on an overflowing corpus: RPC fan-out, slab,
    // eviction; the location cache sees only misses and invalidations.
    v.push_back(Workload{
        .name = "churn_evict",
        .transport = cq::TransportKind::kSoftNic,
        .mode = cq::ReplicationMode::kR32,
        .shards = 6,
        .data_max_bytes = 12ull << 20,
        .data_initial_bytes = 4ull << 20,
        .initial_buckets = 1024,
        .slab_bytes = 64ull << 10,
        .num_keys = 40960,
        .absent_every = 0,
        .zipf_theta = 0.0,
        .sizes = SizeDistribution({{1.0, std::log(1024.0), 0.25, 512, 2048}}),
        .batches = BatchDistribution::Single(),
        .client_qps = {20000, 20000, 20000, 20000},
        .client_get_fraction = {0.5, 0.5, 0.5, 0.5},
        .loccache_ttl = cm::sim::Microseconds(200),
        .nominal = cm::sim::Milliseconds(500),
        .warmup = cm::sim::Milliseconds(100),
        .rung = cm::sim::Milliseconds(25),
        .ladder = {2, 4, 8, 16},
        .latency_limit_us = 50,
        .refresh_only_writes = false,
        .trace_sample_every = 8,
    });
    return v;
  }();
  return kAll;
}

const Workload* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double InterquartileMean(std::vector<int64_t> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += double(v[i]);
  return sum / double(hi - lo);
}

double Percentile(std::vector<int64_t> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = size_t(std::ceil(q * double(v.size())));
  const size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + long(idx), v.end());
  return double(v[idx]);
}

namespace {

std::string KeyName(uint64_t idx) { return "k/" + std::to_string(idx); }

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 29;
  return x;
}

uint64_t BodyWord(uint64_t seq, uint64_t j) {
  return Mix(seq, j) ^ (j * 0xD6E8FEB86659FD93ull);
}

// A value of `size` bytes that encodes (key, seq); the body is a pattern
// derived from seq so any torn or misplaced byte is caught.
cm::Bytes EncodeValue(uint64_t key, uint64_t seq, uint32_t size) {
  cm::Bytes v(size);
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &seq, 8);
  size_t i = kValueHeader;
  uint64_t j = 0;
  for (; i + 8 <= size; i += 8, ++j) {
    const uint64_t w = BodyWord(seq, j);
    std::memcpy(v.data() + i, &w, 8);
  }
  if (i < size) {
    const uint64_t w = BodyWord(seq, j);
    std::memcpy(v.data() + i, &w, size - i);
  }
  return v;
}

bool BodyMatches(const std::byte* p, size_t size, uint64_t seq) {
  uint64_t diff = 0;
  size_t i = kValueHeader;
  uint64_t j = 0;
  for (; i + 8 <= size; i += 8, ++j) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    diff |= w ^ BodyWord(seq, j);
  }
  if (i < size) {
    const uint64_t want = BodyWord(seq, j);
    uint64_t got = 0, exp = 0;
    std::memcpy(&got, p + i, size - i);
    std::memcpy(&exp, &want, size - i);
    diff |= got ^ exp;
  }
  return diff == 0;
}

}  // namespace

struct Rig::Op {
  Time at = 0;
  uint32_t key = 0;
  uint32_t batch_begin = 0;  // GETs: slice of Plan::batch_keys
  uint32_t batch_len = 1;
  bool is_get = true;
};

namespace {

struct Plan {
  std::vector<Rig::Op> ops;
  std::vector<uint32_t> batch_keys;
};

}  // namespace

struct Rig::Shared {
  const Workload* w = nullptr;
  cm::sim::Simulator* sim = nullptr;
  Probe* probe = nullptr;
  int replicas = 1;
  // Every key's value size (fixed per key), and the write log: the key of
  // every sequence number written. Preload writes key k with sequence k;
  // keys it skips are logged as unwritten until a write creates them.
  std::vector<uint32_t> corpus_size;
  std::vector<uint32_t> log_key;
  // Per key, the sim time its first write completed (0 when preloaded).
  std::vector<Time> written_at;
  std::vector<int> outstanding;
  PhaseStats* stats = nullptr;
  int dispatchers = 0;
  int64_t limit_ns = 0;      // ladder rungs only
  int64_t max_over = 0;
  bool abort = false;
  int64_t kv_done = 0;

  int64_t Outstanding() const {
    int64_t n = 0;
    for (int o : outstanding) n += o;
    return n;
  }

  bool ValueOk(const cm::BufferView& v, uint32_t key) const {
    if (v.size() < kValueHeader) return false;
    uint64_t k = 0, seq = 0;
    std::memcpy(&k, v.data(), 8);
    std::memcpy(&seq, v.data() + 8, 8);
    if (k != key || seq >= log_key.size()) return false;
    if (log_key[seq] != key || corpus_size[key] != v.size()) return false;
    if (w->refresh_only_writes && seq != key) return false;
    return BodyMatches(v.data(), v.size(), seq);
  }

  // Classifies one key's GET outcome; returns whether it was a hit. A miss
  // on a key whose write completed before the GET was issued counts in
  // `lost`.
  bool Judge(const cm::StatusOr<cq::GetResult>& r, uint32_t key, Time issued,
             int64_t* lost, bool* failed) {
    if (r.ok()) {
      if (ValueOk(r->value, key)) return true;
      ++stats->wrong;
      *failed = true;
      return false;
    }
    if (r.status().code() != cm::StatusCode::kNotFound) {
      *failed = true;
    } else if (written_at[key] <= issued) {
      ++*lost;
    }
    return false;
  }
};

namespace {

Task<void> DoGet(Rig::Shared* sh, cq::Client* c, int ci, const Plan* plan,
                 const Rig::Op* op, Time sched) {
  bool failed = false;
  int64_t found = 0, n = 0, lost = 0;
  const Time issued = sh->sim->now();
  if (op->batch_len <= 1) {
    std::string key = KeyName(op->key);
    if (sh->probe) sh->probe->NoteGetKey(key, issued);
    auto r = co_await c->Get(std::move(key));
    n = 1;
    found += sh->Judge(r, op->key, issued, &lost, &failed);
  } else {
    std::vector<std::string> keys;
    keys.reserve(op->batch_len);
    for (uint32_t i = 0; i < op->batch_len; ++i) {
      keys.push_back(KeyName(plan->batch_keys[op->batch_begin + i]));
      if (sh->probe) sh->probe->NoteGetKey(keys.back(), issued);
    }
    auto r = co_await c->MultiGet(std::move(keys));
    n = int64_t(op->batch_len);
    if (r.results.size() != op->batch_len) failed = true;
    for (uint32_t i = 0; i < op->batch_len && i < r.results.size(); ++i) {
      found += sh->Judge(r.results[i], plan->batch_keys[op->batch_begin + i],
                         issued, &lost, &failed);
    }
  }
  PhaseStats* st = sh->stats;
  const int64_t latency = sh->sim->now() - sched;
  st->get_ns.push_back(latency);
  if (sh->limit_ns > 0 && latency > sh->limit_ns &&
      ++st->over_limit > sh->max_over) {
    sh->abort = true;
  }
  st->get_keys += n;
  st->get_found += found;
  st->lost_keys += lost;
  if (failed) {
    ++st->ops_failed;
    if (sh->limit_ns > 0) sh->abort = true;
  } else if (lost > 0) {
    ++st->lost_ops;
  }
  sh->kv_done += n;
  --sh->outstanding[size_t(ci)];
}

Task<void> DoSet(Rig::Shared* sh, cq::Client* c, int ci, const Rig::Op* op,
                 Time sched) {
  uint64_t seq = op->key;
  const uint32_t size = sh->corpus_size[op->key];
  if (sh->w->refresh_only_writes) {
    sh->log_key[seq] = op->key;
  } else {
    seq = sh->log_key.size();
    sh->log_key.push_back(op->key);
  }
  std::string key = KeyName(op->key);
  if (sh->probe) sh->probe->NoteWrite(key.size(), size, sh->replicas);
  cm::Status s = co_await c->Set(std::move(key), EncodeValue(op->key, seq, size));
  PhaseStats* st = sh->stats;
  st->set_ns.push_back(sh->sim->now() - sched);
  ++st->set_keys;
  if (!s.ok()) {
    ++st->ops_failed;
    if (sh->limit_ns > 0) sh->abort = true;
  } else {
    sh->written_at[op->key] = std::min(sh->written_at[op->key], sh->sim->now());
  }
  ++sh->kv_done;
  --sh->outstanding[size_t(ci)];
}

// One client's arrival process: each op is issued at its scheduled time
// whether or not earlier ones have completed.
Task<void> Dispatch(Rig::Shared* sh, cq::Client* c, int ci, const Plan* plan,
                    Time t0) {
  for (const Rig::Op& op : plan->ops) {
    co_await sh->sim->WaitUntil(t0 + op.at);
    if (sh->abort) {
      sh->stats->aborted = true;
      break;
    }
    PhaseStats* st = sh->stats;
    ++st->ops_attempted;
    if (sh->outstanding[size_t(ci)] >= kMaxOutstanding) {
      ++st->shed;
      ++st->ops_failed;
      continue;
    }
    ++sh->outstanding[size_t(ci)];
    if (op.is_get) {
      sh->sim->Spawn(DoGet(sh, c, ci, plan, &op, t0 + op.at));
    } else {
      sh->sim->Spawn(DoSet(sh, c, ci, &op, t0 + op.at));
    }
  }
  --sh->dispatchers;
}

Task<void> Connect(cq::Client* c, int* remaining, bool* ok) {
  cm::Status s = co_await c->Connect();
  if (!s.ok()) *ok = false;
  --*remaining;
}

Task<void> Preload(Rig::Shared* sh, cq::Client* c, uint32_t first,
                   uint32_t step, int* remaining, bool* ok) {
  for (uint32_t k = first; k < sh->w->num_keys; k += step) {
    if (sh->log_key[k] != k) continue;  // absent from the preload
    cm::Status s = co_await c->Set(KeyName(k), EncodeValue(k, k, sh->corpus_size[k]));
    if (!s.ok()) *ok = false;
  }
  --*remaining;
}

void RunUntilZero(cm::sim::Simulator& sim, const int& remaining) {
  Time until = sim.now();
  while (remaining > 0 && !sim.empty()) sim.RunUntil(until += kSlice);
}

[[noreturn]] void Fatal(const char* what) {
  std::fprintf(stderr, "cmbench: %s\n", what);
  std::exit(2);
}

}  // namespace

Rig::Rig(const Workload& w, uint64_t seed, Probe* probe)
    : w_(w), seed_(seed), probe_(probe) {}

Rig::~Rig() {
  if (!sim_) return;
  // Let the stopped touch flushers wake, see the stop and free their frames.
  for (auto& c : clients_) c->StopTouchFlusher();
  sim_->RunUntil(sim_->now() + cq::ClientConfig{}.touch_flush_interval + 1);
}

void Rig::Setup() {
  sim_ = std::make_unique<cm::sim::Simulator>();
  cq::CellOptions o;
  o.num_shards = w_.shards;
  o.mode = w_.mode;
  o.transport = w_.transport;
  o.backend.initial_buckets = w_.initial_buckets;
  o.backend.data_max_bytes = w_.data_max_bytes;
  o.backend.data_initial_bytes = w_.data_initial_bytes;
  o.backend.slab.slab_bytes = w_.slab_bytes;
  o.seed = seed_;
  o.hash_fn = probe_ ? probe_->hash_fn() : &cm::HashKey;
  const cm::HashFn hash_fn = o.hash_fn;
  cell_ = std::make_unique<cq::Cell>(*sim_, std::move(o));
  cell_->Start();
  cm::rma::RmaTransport* transport =
      probe_ ? probe_->Attach(*cell_) : cell_->transport();

  shared_ = std::make_unique<Shared>();
  shared_->w = &w_;
  shared_->sim = sim_.get();
  shared_->probe = probe_;
  shared_->replicas = cq::ReplicaCount(w_.mode);
  shared_->outstanding.assign(w_.client_qps.size(), 0);

  for (size_t c = 0; c < w_.client_qps.size(); ++c) {
    const cm::net::HostId host =
        cell_->fabric().AddHost(cell_->options().client_host);
    cq::ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    cc.hash_fn = hash_fn;
    cc.loccache_ttl = w_.loccache_ttl;
    clients_.push_back(std::make_unique<cq::Client>(
        cell_->fabric(), cell_->rpc_network(), transport, cell_->truetime(),
        host, cell_->config_service().host(), cc));
  }
  int remaining = int(clients_.size());
  bool ok = true;
  for (auto& c : clients_) sim_->Spawn(Connect(c.get(), &remaining, &ok));
  RunUntilZero(*sim_, remaining);
  if (remaining != 0 || !ok) Fatal("client connect failed");
  for (auto& c : clients_) c->StartTouchFlusher();

  cm::Rng batch_rng(kCorpusSeed + 1);
  for (size_t i = 0; i < kBatchPool; ++i) {
    batch_pool_.push_back(w_.batches.Sample(batch_rng));
  }
  std::sort(batch_pool_.begin(), batch_pool_.end());

  // The corpus (every key's value size) is fixed, not drawn from the seed:
  // under skew, a seeded corpus would let one hot key's size swing the
  // latency tail from seed to seed. The seed drives the request streams.
  cm::Rng size_rng(kCorpusSeed);
  for (uint32_t k = 0; k < w_.num_keys; ++k) {
    const bool absent = w_.absent_every > 0 && k % w_.absent_every == 0;
    shared_->log_key.push_back(absent ? kUnwritten : k);
    shared_->written_at.push_back(absent ? kNever : 0);
    shared_->corpus_size.push_back(
        std::max<uint32_t>(uint32_t(kValueHeader), w_.sizes.Sample(size_rng)));
  }
  remaining = int(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    sim_->Spawn(Preload(shared_.get(), clients_[c].get(), uint32_t(c),
                        uint32_t(clients_.size()), &remaining, &ok));
  }
  RunUntilZero(*sim_, remaining);
  if (remaining != 0 || !ok) Fatal("preload failed");

  // Warm-up: connect handshakes to every backend, slab growth and
  // location-cache fill happen here, before anything is timed.
  PhaseStats warm = RunPhase(1.0, w_.warmup, /*stream=*/0, false);
  if (warm.wrong != 0) Fatal("wrong value during warm-up");
}

PhaseStats Rig::RunPhase(double rate_mult, Duration duration, uint64_t stream,
                         bool measure_slices, int64_t limit_ns) {
  std::vector<Plan> plans(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    cm::workload::WorkloadProfile p;
    p.name = "k";
    p.num_keys = w_.num_keys;
    p.zipf_theta = w_.zipf_theta;
    p.sizes = w_.sizes;
    p.get_fraction = w_.client_get_fraction[c];
    const uint64_t s = Mix(Mix(seed_, stream), c);
    const auto records = cm::workload::GenerateOpStream(
        {cm::workload::TenantMix{p, w_.client_qps[c] * rate_mult}}, duration,
        s);
    cm::Rng rng(Mix(s, 0xBA7C));
    cm::ZipfSampler zipf(w_.num_keys, w_.zipf_theta);
    // Batch sizes are dealt from the fixed pool in seeded order, stratified
    // so every run carries the same share of tail-sized batches.
    size_t gets = 0;
    for (const auto& rec : records) gets += rec.is_get;
    std::vector<size_t> slot(gets);
    for (size_t i = 0; i < gets; ++i) slot[i] = i;
    for (size_t i = gets; i > 1; --i) {
      std::swap(slot[i - 1], slot[rng.NextBounded(i)]);
    }
    size_t next_get = 0;
    Plan& plan = plans[c];
    plan.ops.reserve(records.size());
    for (const auto& rec : records) {
      Op op;
      op.at = rec.at;
      op.key = uint32_t(rec.key_idx);
      op.is_get = rec.is_get;
      if (op.is_get) {
        op.batch_len = batch_pool_[(2 * slot[next_get++] + 1) *
                                   batch_pool_.size() / (2 * gets)];
        if (op.batch_len > 1) {
          op.batch_begin = uint32_t(plan.batch_keys.size());
          plan.batch_keys.push_back(op.key);
          for (uint32_t i = 1; i < op.batch_len; ++i) {
            plan.batch_keys.push_back(uint32_t(zipf.Sample(rng)));
          }
        }
      }
      plan.ops.push_back(op);
    }
  }

  PhaseStats st;
  shared_->stats = &st;
  int64_t planned_gets = 0;
  for (const Plan& p : plans) {
    for (const Op& op : p.ops) planned_gets += op.is_get;
  }
  shared_->limit_ns = limit_ns;
  shared_->max_over = planned_gets / 100;
  shared_->abort = false;
  st.before = cell_->metrics().TakeSnapshot();
  const uint64_t events0 = sim_->events_processed();
  const int64_t copied0 = cm::BufferStats::bytes_copied();
  const Time t0 = sim_->now();
  shared_->dispatchers = int(clients_.size());
  for (size_t c = 0; c < clients_.size(); ++c) {
    sim_->Spawn(Dispatch(shared_.get(), clients_[c].get(), int(c), &plans[c],
                         t0));
  }
  const auto wall0 = Clock::now();
  auto slice_start = wall0;
  Time until = t0;
  while (shared_->dispatchers > 0 || shared_->Outstanding() > 0) {
    if (sim_->empty()) Fatal("simulator drained with ops outstanding");
    until += kSlice;
    sim_->RunUntil(until);
    if (!measure_slices) continue;
    const auto now = Clock::now();
    st.slice_wall_s.push_back(
        std::chrono::duration<double>(now - slice_start).count());
    slice_start = now;
  }
  st.wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  st.events = sim_->events_processed() - events0;
  st.bytes_copied = cm::BufferStats::bytes_copied() - copied0;
  st.after = cell_->metrics().TakeSnapshot();
  st.delta = st.after.DeltaFrom(st.before);
  // A cell that has never evicted can only miss a written key by losing it.
  if (st.after.SumPrefix("cm.backend.evictions") == 0) {
    st.wrong += st.lost_keys;
    st.ops_failed += st.lost_ops;
  }
  shared_->stats = nullptr;
  return st;
}

}  // namespace cmb
