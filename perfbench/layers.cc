#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "cliquemap/layout.h"
#include "cliquemap/loccache.h"
#include "common/checksum.h"

namespace cmb {

using cm::StatusOr;
using cm::sim::Task;
namespace rma = cm::rma;
namespace trace = cm::trace;

namespace {

using Clock = std::chrono::steady_clock;

int64_t WallNs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              since)
      .count();
}

// HashFn is a plain function pointer, so its counters are file-level.
bool g_hash_on = false;
int64_t g_hash_calls = 0;
std::vector<std::string> g_hash_sample;
constexpr size_t kHashSample = 1 << 16;

// Replay results land here so the timed calls cannot be optimized away.
volatile uint64_t g_sink = 0;

cm::Hash128 CountingHash(std::string_view key) {
  if (g_hash_on) {
    ++g_hash_calls;
    if (g_hash_sample.size() < kHashSample) g_hash_sample.emplace_back(key);
  }
  return cm::HashKey(key);
}

int64_t Counter(const cm::metrics::Snapshot& d, const char* prefix) {
  return d.SumPrefix(prefix);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Sum of a gauge family's movement between two snapshots.
int64_t GaugeDelta(const PhaseStats& p, const std::string& name) {
  return p.after.value(name) - p.before.value(name);
}

std::string HostGauge(const char* base, cm::net::HostId host) {
  return cm::metrics::RenderName(base, {{"host", std::to_string(host)}});
}

// Length of the union of [start, end) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, cur_s = 0, cur_e = -1;
  for (const auto& [s, e] : iv) {
    if (s > cur_e) {
      if (cur_e > cur_s) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (cur_e > cur_s) total += cur_e - cur_s;
  return total;
}

}  // namespace

// Decorator over the public transport interface. Each call is timed in sim
// time and recorded as a child span of the caller's trace span.
class TracingTransport : public rma::RmaTransport {
 public:
  struct CallSpan {
    trace::SpanId parent;
    Time start;
    Time end;
  };

  TracingTransport(rma::RmaTransport* inner, cm::sim::Simulator& sim,
                   const bool* on)
      : inner_(inner), sim_(sim), on_(on) {}

  bool SupportsScar() const override { return inner_->SupportsScar(); }

  Task<StatusOr<cm::BufferView>> Read(cm::net::HostId initiator,
                                      cm::net::HostId target,
                                      rma::RegionId region, uint64_t offset,
                                      uint32_t length,
                                      trace::SpanId parent) override {
    const Time t0 = sim_.now();
    auto r = co_await inner_->Read(initiator, target, region, offset, length,
                                   parent);
    if (*on_) {
      Record(parent, t0);
      if (r.ok() && length != kBucketBytes) delivered.push_back(r->size());
    }
    co_return r;
  }

  Task<StatusOr<rma::ScarResult>> ScanAndRead(
      cm::net::HostId initiator, cm::net::HostId target,
      rma::RegionId index_region, uint64_t bucket_offset, uint32_t bucket_len,
      uint64_t hash_hi, uint64_t hash_lo, trace::SpanId parent) override {
    const Time t0 = sim_.now();
    auto r = co_await inner_->ScanAndRead(initiator, target, index_region,
                                          bucket_offset, bucket_len, hash_hi,
                                          hash_lo, parent);
    if (*on_) {
      Record(parent, t0);
      if (r.ok() && !r->data.empty()) delivered.push_back(r->data.size());
    }
    co_return r;
  }

  Task<StatusOr<std::vector<StatusOr<cm::BufferView>>>> ReadV(
      cm::net::HostId initiator, cm::net::HostId target,
      std::vector<rma::ReadVEntry> entries, trace::SpanId parent) override {
    const Time t0 = sim_.now();
    std::vector<bool> is_data;
    is_data.reserve(entries.size());
    for (const auto& e : entries) is_data.push_back(e.length != kBucketBytes);
    auto r = co_await inner_->ReadV(initiator, target, std::move(entries),
                                    parent);
    if (*on_) {
      Record(parent, t0);
      if (r.ok()) {
        for (size_t i = 0; i < r->size(); ++i) {
          if (i < is_data.size() && is_data[i] && (*r)[i].ok()) {
            delivered.push_back((*r)[i]->size());
          }
        }
      }
    }
    co_return r;
  }

  Task<StatusOr<std::vector<StatusOr<rma::ScarResult>>>> ScanAndReadV(
      cm::net::HostId initiator, cm::net::HostId target,
      std::vector<rma::ScarVEntry> entries, trace::SpanId parent) override {
    const Time t0 = sim_.now();
    auto r = co_await inner_->ScanAndReadV(initiator, target,
                                           std::move(entries), parent);
    if (*on_) {
      Record(parent, t0);
      if (r.ok()) {
        for (const auto& e : *r) {
          if (e.ok() && !e->data.empty()) delivered.push_back(e->data.size());
        }
      }
    }
    co_return r;
  }

  const rma::RmaStats& stats() const override { return inner_->stats(); }

  void Clear() {
    op_ns.clear();
    spans.clear();
    delivered.clear();
  }

  std::vector<int64_t> op_ns;     // sim latency of every call
  std::vector<CallSpan> spans;    // calls made under a sampled trace root
  std::vector<uint32_t> delivered;  // DataEntry bytes handed to the client

 private:
  // Index reads fetch exactly one bucket; every other read is a DataEntry.
  static constexpr uint32_t kBucketBytes =
      uint32_t(cm::cliquemap::BucketBytes(cm::cliquemap::BackendConfig{}.ways));

  void Record(trace::SpanId parent, Time t0) {
    const Time t1 = sim_.now();
    op_ns.push_back(t1 - t0);
    if (parent != trace::kNoSpan) spans.push_back({parent, t0, t1});
  }

  rma::RmaTransport* inner_;
  cm::sim::Simulator& sim_;
  const bool* on_;
};

Probe::Probe(const Workload& w)
    : w_(w), scar_(std::make_shared<ScarTiming>()) {}

Probe::~Probe() { g_hash_on = false; }

cm::HashFn Probe::hash_fn() const { return &CountingHash; }

rma::RmaTransport* Probe::Attach(cm::cliquemap::Cell& cell) {
  transport_ = std::make_unique<TracingTransport>(
      cell.transport(), cell.simulator(), &measuring_);
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    rma::RmaHostState* st = cell.rma_network().Find(cell.backend(s).host());
    if (st == nullptr || !st->scar) continue;
    st->scar = [inner = st->scar, timing = scar_, on = &measuring_](
                   uint64_t hi, uint64_t lo, rma::RegionId region,
                   uint64_t offset, uint32_t len) {
      if (!*on) return inner(hi, lo, region, offset, len);
      const auto t0 = Clock::now();
      auto r = inner(hi, lo, region, offset, len);
      timing->wall_ns += WallNs(t0);
      ++timing->calls;
      return r;
    };
  }
  return transport_.get();
}

void Probe::BeginMeasure(cm::cliquemap::Cell& cell) {
  measuring_ = true;
  g_hash_on = true;
  g_hash_calls = 0;
  g_hash_sample.clear();
  transport_->Clear();
  *scar_ = ScarTiming{};
  spans_.clear();
  get_keys_.clear();
  written_entries_.clear();
  trace::Tracer& tracer = cell.tracer();
  tracer.Reset();
  tracer.SetRingCapacity(size_t{1} << 21);
  tracer.SetSampleEvery(w_.trace_sample_every);
  tracer.Enable(true);
}

void Probe::EndMeasure(cm::cliquemap::Cell& cell) {
  measuring_ = false;
  g_hash_on = false;
  trace::Tracer& tracer = cell.tracer();
  tracer.Enable(false);
  spans_ = tracer.Completed();
  if (tracer.spans_completed() > int64_t(spans_.size())) {
    std::fprintf(stderr, "warning: trace ring wrapped (%lld of %lld spans)\n",
                 static_cast<long long>(spans_.size()),
                 static_cast<long long>(tracer.spans_completed()));
  }
  tracer.Reset();
}

void Probe::NoteGetKey(const std::string& key, Time now) {
  if (measuring_) get_keys_.emplace_back(cm::HashKey(key), now);
}

void Probe::NoteWrite(size_t key_len, size_t value_len, int replicas) {
  if (!measuring_) return;
  const auto bytes =
      uint32_t(cm::cliquemap::DataEntryBytes(key_len, value_len));
  for (int r = 0; r < replicas; ++r) written_entries_.push_back(bytes);
}

std::map<std::string, double> Probe::LayerMetrics(
    const PhaseStats& traced, const PhaseStats& untraced,
    cm::cliquemap::Cell& cell) {
  std::map<std::string, double> m;
  const cm::metrics::Snapshot& d = traced.delta;
  const double kv = double(traced.kv());
  const double get_keys = double(traced.get_keys);

  // sim -------------------------------------------------------------------
  m["sim.events_per_kv"] = Ratio(double(traced.events), kv);
  m["sim.wall_ns_per_event"] =
      Ratio(untraced.wall_s * 1e9, double(untraced.events));

  // net -------------------------------------------------------------------
  m["net.wire_bytes_per_kv"] = Ratio(double(Counter(d, "cm.fabric.wire_bytes")), kv);
  m["net.transfers_per_kv"] = Ratio(double(Counter(d, "cm.fabric.transfers")), kv);
  m["net.bytes_copied_per_kv"] = Ratio(double(traced.bytes_copied), kv);

  // Span tree: tracer spans by id, each mapped to its root client call.
  std::unordered_map<trace::SpanId, size_t> by_id;
  by_id.reserve(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) by_id[spans_[i].id] = i;
  std::unordered_map<trace::SpanId, trace::SpanId> root_of;
  auto root = [&](trace::SpanId id) {
    std::vector<trace::SpanId> path;
    trace::SpanId cur = id;
    while (true) {
      auto memo = root_of.find(cur);
      if (memo != root_of.end()) {
        cur = memo->second;
        break;
      }
      auto it = by_id.find(cur);
      if (it == by_id.end()) return trace::kNoSpan;  // evicted ancestor
      path.push_back(cur);
      if (spans_[it->second].parent == trace::kNoSpan) break;
      cur = spans_[it->second].parent;
    }
    for (trace::SpanId p : path) root_of[p] = cur;
    return cur;
  };
  std::unordered_map<trace::SpanId, std::vector<std::pair<int64_t, int64_t>>>
      covered;
  for (const auto& s : transport_->spans) {
    const trace::SpanId r = root(s.parent);
    if (r != trace::kNoSpan) covered[r].emplace_back(s.start, s.end);
  }
  std::vector<int64_t> fabric_ns, client_self_ns;
  for (const auto& s : spans_) {
    const std::string_view name = s.name;
    if (name == "fabric_tx" || name == "fabric_rx") {
      fabric_ns.push_back(s.end - s.start);
    } else if (name == "rpc") {
      const trace::SpanId r = root(s.parent);
      if (r != trace::kNoSpan) covered[r].emplace_back(s.start, s.end);
    }
  }
  for (const auto& s : spans_) {
    const std::string_view name = s.name;
    if (s.parent != trace::kNoSpan || (name != "get" && name != "multiget")) {
      continue;
    }
    auto it = covered.find(s.id);
    int64_t children = 0;
    if (it != covered.end()) {
      for (auto& [a, b] : it->second) {
        a = std::max<int64_t>(a, s.start);
        b = std::min<int64_t>(b, s.end);
        if (b < a) b = a;
      }
      children = UnionLength(it->second);
    }
    client_self_ns.push_back(s.end - s.start - children);
  }
  m["net.fabric_self_us_p99"] = Percentile(fabric_ns, 0.99) / 1e3;

  // rma -------------------------------------------------------------------
  const double vector_ops = double(Counter(d, "cm.rma.vector_reads") +
                                   Counter(d, "cm.rma.vector_scars"));
  m["rma.reads_per_get_key"] = Ratio(double(Counter(d, "cm.rma.reads")), get_keys);
  m["rma.scars_per_get_key"] = Ratio(double(Counter(d, "cm.rma.scars")), get_keys);
  m["rma.vector_entries_per_op"] =
      Ratio(double(Counter(d, "cm.rma.vector_entries")), vector_ops);
  m["rma.op_p50_us"] = Percentile(transport_->op_ns, 0.50) / 1e3;
  m["rma.op_p99_us"] = Percentile(transport_->op_ns, 0.99) / 1e3;
  m["rma.nic_ns_per_kv"] = Ratio(double(Counter(d, "cm.rma.initiator_nic_ns") +
                                        Counter(d, "cm.rma.target_nic_ns")),
                                 kv);
  m["rma.failed_ops"] = double(Counter(d, "cm.rma.failed_ops"));

  // rpc -------------------------------------------------------------------
  m["rpc.calls_per_kv"] = Ratio(double(Counter(d, "cm.rpc.calls")), kv);
  m["rpc.server_bytes_per_kv"] =
      Ratio(double(Counter(d, "cm.rpc.server_bytes")), kv);
  m["rpc.call_errors"] = double(Counter(d, "cm.rpc.call_errors"));

  // cliquemap.client ------------------------------------------------------
  m["client.self_us_p50"] = Percentile(client_self_ns, 0.50) / 1e3;
  m["client.issue_cpu_ns_per_kv"] =
      Ratio(double(Counter(d, "cm.client.issue_cpu_ns")), kv);
  m["client.validate_cpu_ns_per_kv"] =
      Ratio(double(Counter(d, "cm.client.validate_cpu_ns")), kv);
  m["client.retries_per_get"] = Ratio(double(Counter(d, "cm.client.retries")),
                                      double(Counter(d, "cm.client.gets")));
  m["client.torn_reads"] = double(Counter(d, "cm.client.torn_reads"));
  m["client.inquorate"] = double(Counter(d, "cm.client.inquorate"));
  m["client.rpc_fallback_gets"] =
      double(Counter(d, "cm.client.rpc_fallback_gets"));
  cm::Histogram backoff;
  for (const auto& [name, metric] : d.metrics) {
    if (name.rfind("cm.client.backoff_ns", 0) == 0) backoff.Merge(metric.hist);
  }
  m["client.backoff_ns_p99"] = double(backoff.Percentile(0.99));
  m["client.batch.entries_per_vector_op"] =
      Ratio(double(Counter(d, "cm.client.batch.vector_entries")),
            double(Counter(d, "cm.client.batch.vector_ops")));
  m["client.batch.slowpath_frac"] =
      Ratio(double(Counter(d, "cm.client.batch.slowpath_keys")),
            double(Counter(d, "cm.client.batch.keys")));
  m["client.batch.inflight_waits"] =
      double(Counter(d, "cm.client.batch.inflight_waits"));

  // cliquemap.loccache ----------------------------------------------------
  const double lc_hits = double(Counter(d, "cm.client.loccache.hits"));
  const double lc_misses = double(Counter(d, "cm.client.loccache.misses"));
  const double spec_reads =
      double(Counter(d, "cm.client.loccache.speculative_reads"));
  const double spec_fails =
      double(Counter(d, "cm.client.loccache.speculative_failures"));
  m["loccache.hit_ratio"] = Ratio(lc_hits, lc_hits + lc_misses);
  m["loccache.spec_success_ratio"] = Ratio(spec_reads - spec_fails, spec_reads);
  m["loccache.invalidations"] =
      double(Counter(d, "cm.client.loccache.invalidations"));
  {
    // Replay of the public LocationCache over the run's GET key hashes at
    // their sim times: a miss inserts, as a quorumed GET would.
    cm::cliquemap::ClientConfig defaults;
    cm::cliquemap::LocationCache cache(defaults.loccache_entries);
    const auto t0 = Clock::now();
    for (const auto& [hash, at] : get_keys_) {
      if (cache.Lookup(hash, at) != nullptr) continue;
      cm::cliquemap::CachedLocation loc;
      loc.pointer.region = 1;
      loc.expires_at = at + w_.loccache_ttl;
      cache.Insert(hash, loc);
    }
    const int64_t ns = WallNs(t0);
    m["loccache.wall_ns_per_lookup"] =
        Ratio(double(ns), double(get_keys_.size()));
  }

  // cliquemap.backend -----------------------------------------------------
  int64_t backend_cpu = 0, footprint = 0, used = 0;
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    const cm::net::HostId h = cell.backend(s).host();
    backend_cpu += GaugeDelta(traced, HostGauge("cm.host.cpu_busy_ns", h));
    footprint +=
        traced.after.value(HostGauge("cm.backend.memory_footprint_bytes", h));
    used += traced.after.value(HostGauge("cm.backend.data_used_bytes", h));
  }
  m["backend.cpu_ns_per_kv"] = Ratio(double(backend_cpu), kv);
  m["backend.evictions_per_set"] =
      Ratio(double(Counter(d, "cm.backend.evictions_capacity") +
                   Counter(d, "cm.backend.evictions_assoc")),
            double(Counter(d, "cm.backend.sets_applied")));
  m["backend.overflow_inserts"] =
      double(Counter(d, "cm.backend.overflow_inserts"));
  m["backend.data_grows"] = double(Counter(d, "cm.backend.data_grows"));
  m["backend.sets_rejected_stale"] =
      double(Counter(d, "cm.backend.sets_rejected_stale"));
  m["backend.footprint_per_live_byte"] = Ratio(double(footprint), double(used));
  m["backend.scar_wall_ns_per_call"] =
      Ratio(double(scar_->wall_ns), double(scar_->calls));

  // common.checksum: replay ComputeCrc32c over a stride sample of every
  // DataEntry delivered and written, scaled to the full population.
  {
    std::vector<uint32_t> all = transport_->delivered;
    all.insert(all.end(), written_entries_.begin(), written_entries_.end());
    double total_bytes = 0;
    for (uint32_t b : all) total_bytes += b;
    m["checksum.bytes_per_kv"] = Ratio(total_bytes, kv);
    const size_t kSample = 8192;
    const size_t stride = std::max<size_t>(1, all.size() / kSample);
    std::vector<uint32_t> sample;
    for (size_t i = 0; i < all.size(); i += stride) sample.push_back(all[i]);
    const uint32_t max_len =
        sample.empty() ? 0 : *std::max_element(sample.begin(), sample.end());
    std::vector<std::byte> buf(max_len);
    for (size_t i = 0; i < buf.size(); ++i) buf[i] = std::byte(i * 131 + 7);
    const auto t0 = Clock::now();
    for (uint32_t len : sample) {
      g_sink = g_sink ^ cm::ComputeCrc32c(cm::ByteSpan(buf.data(), len));
    }
    const double ns = double(WallNs(t0));
    const double ns_per_entry = Ratio(ns, double(sample.size()));
    m["checksum.wall_ns_per_kv"] = Ratio(ns_per_entry * double(all.size()), kv);
  }

  // common.hash -------------------------------------------------------------
  m["hash.calls_per_kv"] = Ratio(double(g_hash_calls), kv);
  {
    int64_t calls = 0;
    const auto t0 = Clock::now();
    while (!g_hash_sample.empty() && WallNs(t0) < 20'000'000) {
      for (const auto& k : g_hash_sample) g_sink = g_sink ^ cm::HashKey(k).lo;
      calls += int64_t(g_hash_sample.size());
    }
    const double ns = double(WallNs(t0));
    m["hash.wall_ns_per_call"] = Ratio(ns, double(calls));
  }

  // workload ----------------------------------------------------------------
  m["workload.shed"] = double(traced.shed);
  m["workload.get_samples"] = double(traced.get_ns.size());
  m["workload.set_samples"] = double(traced.set_ns.size());

  // tracing -----------------------------------------------------------------
  const double traced_rate = Ratio(kv, traced.wall_s);
  const double untraced_rate = Ratio(double(untraced.kv()), untraced.wall_s);
  m["trace.overhead_frac"] = 1.0 - Ratio(traced_rate, untraced_rate);
  return m;
}

}  // namespace cmb
