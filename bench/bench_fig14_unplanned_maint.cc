// Figure 14: unplanned maintenance (crash) and en-masse repairs — driven
// end-to-end by the self-healing control plane.
//
// §7.2.3: a backend is forcibly crashed at a known time. Unlike the paper's
// operator-timeline rendition (and this bench's earlier revision, which
// called CrashAndRestart by hand), nobody here touches the cell after the
// crash: the CellDoctor's failure detector notices the probe misses, the
// lease lapses at the ConfigService, the shard is declared dead, and the
// doctor drives the Resharder to build and seed a replacement from the
// cohort. Clients ride through on 2/3 quorums with hedged data fetches and
// slow-replica ejection enabled, so the availability dip stays shallow.
//
// The crash run's clients use SCAR, which hedging does not cover, so a short
// gray-failure phase follows on a cell of its own: 2xR clients GET while one
// backend host has half its messages delayed ~2 ms (the slow-replica setup
// of test_doctor's HedgeTest).
//
// Reported self-healing scalars (pinned, see scripts/check.sh):
//   doctor.detect_ms  last good probe -> DEAD verdict
//   doctor.mttr_ms    DEAD verdict -> replacement committed + seeded
//   hedge.*           hedged fetches issued / won, slow-replica ejections
//                     (both phases)
#include "bench_util.h"
#include "cliquemap/doctor.h"

namespace {

// The gray-failure phase: returns the client's stats.
cm::cliquemap::ClientStats RunGrayFailurePhase() {
  using namespace cm;
  using namespace cm::cliquemap;
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR32;
  o.seed = 7;
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.strategy = LookupStrategy::kTwoR;
  cc.hedge_reads = true;
  cc.eject_slow_replicas = true;
  Client* client = cell.AddClient(cc);

  std::vector<sim::Task<void>> tasks;
  tasks.push_back([](sim::Simulator& sim, Cell* cell,
                     Client* client) -> sim::Task<void> {
    constexpr int kKeys = 32;
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set("gray-" + std::to_string(k),
                                      Bytes(1024, std::byte{0x5A}));
      if (!s.ok()) std::printf("gray preload: %s\n", s.ToString().c_str());
    }
    // The slow host starts misbehaving only after the clean preload.
    auto plan = std::make_shared<net::FaultPlan>(99);
    net::LinkFaultRates rates;
    rates.delay = 0.5;
    rates.delay_mean = sim::Milliseconds(2);
    plan->SetHostRates(cell->backend(0).host(), rates);
    cell->fabric().InstallFaults(plan);
    Rng rng(17);
    for (int op = 0; op < 400; ++op) {
      co_await sim.Delay(sim::Microseconds(50));
      (void)co_await client->Get("gray-" +
                                 std::to_string(rng.NextBounded(kKeys)));
    }
  }(sim, &cell, client));
  cm::bench::RunAll(sim, std::move(tasks));
  return client->stats();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cm;
  using namespace cm::bench;
  using namespace cm::cliquemap;
  using namespace cm::workload;
  JsonReport report(argc, argv, "fig14_unplanned_maint");
  if (!report.enabled()) {
    Banner("Figure 14: unplanned crash, self-healing recovery\n"
           "(R=3.2; crash at t=60s; detection, fencing, and replacement\n"
           "are fully automatic — zero operator calls)");
  }

  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 512;
  o.backend.data_initial_bytes = 8 << 20;
  o.backend.data_max_bytes = 64 << 20;
  Cell cell(sim, std::move(o));
  cell.Start();

  // Production-scaled control plane: second-granularity leases/probes (the
  // unit-test doctor runs millisecond-scaled ones for speed).
  DoctorOptions dopt;
  dopt.probe_interval = sim::Milliseconds(500);
  dopt.probe_timeout = sim::Milliseconds(100);
  dopt.suspect_after_misses = 2;
  dopt.dead_after_misses = 5;
  dopt.heartbeat_interval = sim::Seconds(1);
  dopt.lease_duration = sim::Seconds(5);
  dopt.cooldown = sim::Seconds(30);
  CellDoctor doctor(cell, dopt);
  doctor.Start();

  WorkloadProfile profile = WorkloadProfile::Uniform(3000, 1024, 1.0);
  constexpr int kClients = 5;
  auto loaded = std::make_shared<sim::Notification>(sim);
  std::vector<Client*> clients;
  std::vector<std::unique_ptr<LoadDriver>> drivers;
  std::vector<sim::Task<void>> tasks;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    // Gray-failure defense on: hedged quorum fetches + outlier ejection.
    cc.hedge_reads = true;
    cc.eject_slow_replicas = true;
    Client* client = cell.AddClient(cc);
    clients.push_back(client);
    LoadDriver::Options opts;
    opts.qps = 2000;
    opts.duration = sim::Seconds(240);
    opts.window = sim::Seconds(10);
    opts.seed = uint64_t(c + 1);
    drivers.push_back(std::make_unique<LoadDriver>(*client, profile, opts));
    tasks.push_back([](Client* client, LoadDriver* d, bool preload,
                       std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
      (void)co_await client->Connect();
      if (preload) {
        Status s = co_await d->Preload();
        if (!s.ok()) std::printf("preload: %s\n", s.ToString().c_str());
        loaded->Notify();
      } else {
        co_await loaded->Wait();
      }
      co_await d->Run();
    }(client, drivers.back().get(), c == 0, loaded));
  }
  // Crash at 60s — and that is the last operator action of the run.
  tasks.push_back([](sim::Simulator& sim, Cell* cell) -> sim::Task<void> {
    co_await sim.Delay(sim::Seconds(60));
    cell->CrashShard(0);
  }(sim, &cell));

  auto rpc_series = std::make_shared<std::vector<int64_t>>();
  tasks.push_back([](sim::Simulator& sim, Cell* cell,
                     std::shared_ptr<std::vector<int64_t>> out) -> sim::Task<void> {
    for (int w = 0; w < 24; ++w) {
      co_await sim.Delay(sim::Seconds(10));
      out->push_back(cell->TotalRpcBytes());
    }
  }(sim, &cell, rpc_series));

  RunAll(sim, std::move(tasks));
  doctor.Stop();

  if (!report.enabled()) {
    std::printf("%7s %9s %9s %9s %9s %9s %14s\n", "t(s)", "GET/s", "p50_us",
                "p99_us", "p999_us", "errors", "RPC_bytes/s");
  }
  int64_t prev_bytes = 0;
  size_t max_windows = 0;
  for (const auto& d : drivers) max_windows = std::max(max_windows, d->windows().size());
  std::vector<double> goodput(max_windows, 0.0);
  for (size_t w = 0; w < max_windows; ++w) {
    Histogram get_ns;
    int64_t gets = 0, errors = 0, misses = 0;
    for (const auto& d : drivers) {
      if (w >= d->windows().size()) continue;
      get_ns.Merge(d->windows()[w].get_ns);
      gets += d->windows()[w].gets;
      errors += d->windows()[w].get_errors;
      misses += d->windows()[w].misses;
    }
    goodput[w] = double(gets - errors) / 10.0;
    int64_t bytes = w < rpc_series->size() ? (*rpc_series)[w] : prev_bytes;
    const std::string tag = "t" + std::to_string(w * 10);
    report.AddScalar(tag + ".get_per_sec", double(gets) / 10.0);
    report.AddScalar(tag + ".p50_us", get_ns.Percentile(0.50) / 1000.0);
    report.AddScalar(tag + ".p99_us", get_ns.Percentile(0.99) / 1000.0);
    report.AddScalar(tag + ".p999_us", get_ns.Percentile(0.999) / 1000.0);
    report.AddScalar(tag + ".errors", double(errors + misses));
    report.AddScalar(tag + ".rpc_bytes_per_sec",
                     double(bytes - prev_bytes) / 10.0);
    if (!report.enabled()) {
      const char* note = "";
      if (w == 6) note = "  <- crash (doctor takes it from here)";
      std::printf("%7zu %9.0f %9.1f %9.1f %9.1f %9lld %14.0f%s\n", w * 10,
                  double(gets) / 10.0, get_ns.Percentile(0.50) / 1000.0,
                  get_ns.Percentile(0.99) / 1000.0,
                  get_ns.Percentile(0.999) / 1000.0,
                  static_cast<long long>(errors + misses),
                  double(bytes - prev_bytes) / 10.0, note);
    }
    prev_bytes = bytes;
  }

  // Self-healing scalars: detection latency and MTTR straight from the
  // doctor's recovery records.
  const auto& recs = doctor.recoveries();
  double detect_ms = 0.0, mttr_ms = 0.0;
  int recovered = 0;
  for (const auto& r : recs) {
    if (!r.ok) continue;
    ++recovered;
    detect_ms = double(r.detected_at - r.last_ok) / 1e6;
    mttr_ms = double(r.converged_at - r.detected_at) / 1e6;
  }
  report.AddScalar("doctor.detect_ms", detect_ms);
  report.AddScalar("doctor.mttr_ms", mttr_ms);
  report.AddScalar("doctor.recoveries", double(recovered));
  report.AddScalar("doctor.dead_transitions",
                   double(doctor.stats().dead_transitions));

  // Availability dip: deepest degraded-window goodput against the pre-crash
  // median (windows 1..5; window 0 is warm-up). 0 = no visible dip.
  std::vector<double> pre(goodput.begin() + 1,
                          goodput.begin() + std::min<size_t>(6, goodput.size()));
  std::sort(pre.begin(), pre.end());
  const double pre_median = pre.empty() ? 0.0 : pre[pre.size() / 2];
  double min_after = pre_median;
  for (size_t w = 6; w < goodput.size(); ++w) {
    min_after = std::min(min_after, goodput[w]);
  }
  const double dip_frac =
      pre_median > 0.0 ? std::max(0.0, 1.0 - min_after / pre_median) : 0.0;
  report.AddScalar("availability.dip_frac", dip_frac);

  // Gray-failure defense + fault/retry counters.
  int64_t retries = 0, op_timeouts = 0, backoffs = 0, backoff_ns = 0;
  int64_t torn = 0, inquorate = 0, budget = 0;
  int64_t hedged = 0, hedge_wins = 0, ejections = 0;
  for (const Client* c : clients) {
    const ClientStats& s = c->stats();
    retries += s.retries;
    op_timeouts += s.op_timeouts;
    backoffs += s.backoff_events;
    backoff_ns += s.backoff_ns.sum();
    torn += s.torn_reads;
    inquorate += s.inquorate;
    budget += s.budget_exhausted;
    hedged += s.hedged_reads;
    hedge_wins += s.hedge_wins;
    ejections += s.slow_ejections;
  }
  const ClientStats gray = RunGrayFailurePhase();
  hedged += gray.hedged_reads;
  hedge_wins += gray.hedge_wins;
  ejections += gray.slow_ejections;
  int64_t shed = 0;
  for (const auto& d : drivers) shed += d->shed();
  const BackendStats bs = cell.AggregateBackendStats();
  report.AddScalar("hedge.reads", double(hedged));
  report.AddScalar("hedge.wins", double(hedge_wins));
  report.AddScalar("hedge.slow_ejections", double(ejections));
  report.AddScalar("workload.shed", double(shed));
  report.AddScalar("client.retries", double(retries));
  report.AddScalar("client.op_timeouts", double(op_timeouts));
  report.AddScalar("client.torn_reads", double(torn));
  report.AddScalar("client.inquorate", double(inquorate));
  report.AddScalar("client.budget_exhausted", double(budget));
  report.AddScalar("client.backoff_events", double(backoffs));
  report.AddScalar("client.backoff_total_ms", double(backoff_ns) / 1e6);
  report.AddScalar("repair.pulls_sent", double(bs.repair_pulls_sent));
  report.AddScalar("repair.pulls_served", double(bs.repair_pulls_served));
  report.AddScalar("repair.pull_failures", double(bs.repair_pull_failures));
  report.AddScalar("repair.repairs_issued", double(bs.repairs_issued));
  if (report.enabled()) {
    report.AddSnapshot("final", cell.metrics().TakeSnapshot());
    report.Emit();
    return 0;
  }
  std::printf(
      "\nSelf-healing: dead_transitions=%lld recoveries=%d "
      "detect=%.0fms mttr=%.0fms dip=%.1f%%\n"
      "Gray-failure defense: hedged_reads=%lld hedge_wins=%lld "
      "slow_ejections=%lld shed=%lld\n",
      static_cast<long long>(doctor.stats().dead_transitions), recovered,
      detect_ms, mttr_ms, dip_frac * 100.0, static_cast<long long>(hedged),
      static_cast<long long>(hedge_wins), static_cast<long long>(ejections),
      static_cast<long long>(shed));
  std::printf(
      "\nFault/retry counters:\n"
      "  client: retries=%lld op_timeouts=%lld torn_reads=%lld "
      "inquorate=%lld budget_exhausted=%lld\n"
      "  client: backoff_events=%lld backoff_total_ms=%.1f\n"
      "  repair: pulls_sent=%lld pulls_served=%lld pull_failures=%lld "
      "repairs_issued=%lld bump_versions=%lld bulk_installed=%lld\n",
      static_cast<long long>(retries), static_cast<long long>(op_timeouts),
      static_cast<long long>(torn), static_cast<long long>(inquorate),
      static_cast<long long>(budget), static_cast<long long>(backoffs),
      double(backoff_ns) / 1e6, static_cast<long long>(bs.repair_pulls_sent),
      static_cast<long long>(bs.repair_pulls_served),
      static_cast<long long>(bs.repair_pull_failures),
      static_cast<long long>(bs.repairs_issued),
      static_cast<long long>(bs.bump_versions),
      static_cast<long long>(bs.bulk_installed));
  std::printf(
      "\nTakeaway check: the crash is detected, fenced, and healed with zero\n"
      "operator calls; a repair-RPC burst follows the DEAD verdict; GETs keep\n"
      "succeeding via the 2/3 quorum while degraded.\n");
  return 0;
}
