// Chaos soak harness: randomized fault plans over many seeds.
//
// Each seed derives a FaultPlan (drop/corrupt/duplicate/delay rates, an
// asymmetric partition that heals, a GC-like host pause, and possibly a
// crash/restart), runs a mixed GET/SET/CAS workload through it, and checks
// the properties the paper's productionization story promises (§4, §5):
//
//   C1. Value integrity: no GET ever returns a value nobody wrote — every
//       injected bit flip is caught by client-side validation (§5.1).
//   C2. CAS linearizability: among client-observed *successful* CAS ops on
//       one key, every expected-version is unique (a version can only be
//       swapped-from once, §5.2).
//   C3. Convergence: after faults stop and repair scans run, all replicas
//       of every key agree (§5.4).
//   C4. Determinism: re-running a seed reproduces the identical fault
//       event trace (fingerprint + counters), so any failing seed can be
//       replayed for diagnosis.
//
// Two directed companions pin the validation economics: a no-fault control
// showing the organic validation-failure rate sits inside §4's <0.01%
// envelope, and a 1%-corruption run showing nonzero checksum retries with
// zero wrong-value GETs.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cliquemap/cell.h"

namespace cm::cliquemap {
namespace {

constexpr sim::Time kFaultsFrom = sim::Milliseconds(20);
constexpr sim::Time kFaultsUntil = sim::Milliseconds(250);
constexpr int kKeys = 24;
constexpr int kClients = 3;
constexpr int kOpsPerClient = 250;
constexpr size_t kValueBytes = 1024;

std::string KeyName(int k) { return "chaos-" + std::to_string(k); }

struct ChaosOutcome {
  // Fault-plan trace (determinism check).
  uint64_t fingerprint = 0;
  int64_t trace_events = 0;
  // Per-op trace spans (trace::Tracer determinism check).
  uint64_t span_fingerprint = 0;
  int64_t spans_completed = 0;
  net::FaultStats faults;
  // Invariant violations.
  int value_violations = 0;
  int cas_violations = 0;
  std::vector<std::string> divergent_keys;
  // Observability counters (printed on failure).
  ClientStats clients;
  rma::RmaStats rma;
  BackendStats backends;
  std::string fault_summary;
};

// Builds the per-seed fault plan. All shape decisions draw from `prng`
// (separate from the plan's own injection Rng) so the schedule itself is a
// pure function of the seed.
std::shared_ptr<net::FaultPlan> MakePlan(uint64_t seed, Rng& prng,
                                         uint32_t num_shards) {
  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.002 + prng.NextDouble() * 0.015;
  rates.corrupt = prng.NextDouble() * 0.010;
  rates.duplicate = prng.NextDouble() * 0.010;
  rates.delay = prng.NextDouble() * 0.05;
  rates.delay_mean = sim::Microseconds(int64_t(30 + prng.NextBounded(100)));
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(kFaultsFrom, kFaultsUntil);

  // One asymmetric backend->backend partition that heals before the fault
  // window closes (backend hosts are 1..num_shards; host 0 is config).
  const auto a = net::HostId(1 + prng.NextBounded(num_shards));
  auto b = net::HostId(1 + prng.NextBounded(num_shards));
  if (b == a) b = 1 + (a % num_shards);
  plan->AddPartition(a, b, kFaultsFrom + sim::Milliseconds(20),
                     kFaultsFrom + sim::Milliseconds(130));

  // A GC-like pause: one backend's NIC freezes for a few ms mid-window.
  plan->AddHostPause(net::HostId(1 + prng.NextBounded(num_shards)),
                     kFaultsFrom + sim::Milliseconds(60),
                     sim::Milliseconds(int64_t(1 + prng.NextBounded(5))));

  // ~40% of seeds also crash a backend mid-window and restart it.
  if (prng.NextBool(0.4)) {
    plan->ScheduleCrash(uint32_t(prng.NextBounded(num_shards)),
                        kFaultsFrom + sim::Milliseconds(80),
                        sim::Milliseconds(30));
  }
  return plan;
}

ChaosOutcome RunChaos(uint64_t seed, bool trace = true) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.seed = seed;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();
  // Span tracing rides along: it must observe without perturbing (the
  // disabled-tracing control below holds the run bit-identical either way).
  cell.tracer().Enable(trace);

  Rng prng(seed * 0x9E3779B97F4A7C15ull + 0xC11E);
  auto plan = MakePlan(seed, prng, cell.num_shards());
  cell.fabric().InstallFaults(plan);

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    clients.push_back(cell.AddClient(cc));
  }

  // Every value ever handed to a SET or CAS carries a unique fill byte; C1
  // checks returned values against this set. CAS values are recorded even
  // when the CAS reports failure: a partially-applied CAS (one replica) is
  // legitimately propagated everywhere by repair.
  auto written = std::make_shared<std::vector<std::set<uint8_t>>>(kKeys);
  auto next_fill = std::make_shared<uint8_t>(1);
  auto value_violations = std::make_shared<int>(0);
  auto violation_detail = std::make_shared<std::string>();
  // (key, expected-version) of every client-observed successful CAS (C2).
  auto cas_wins =
      std::make_shared<std::vector<std::pair<int, VersionNumber>>>();

  auto take_fill = [next_fill]() -> uint8_t {
    uint8_t f = (*next_fill)++;
    if (f == 0) f = (*next_fill)++;  // skip ambiguity after wrap
    return f;
  };

  // Preload all keys (clean, before the fault window opens).
  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* client, decltype(written) written, uint8_t fill,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      (*written)[size_t(k)].insert(fill);
      Status s = co_await client->Set(KeyName(k),
                                      Bytes(kValueBytes, std::byte{fill}));
      // (EXPECT, not ASSERT: ASSERT's `return` is ill-formed in coroutines.)
      EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    }
    loaded->Notify();
  }(clients[0], written, take_fill(), loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn([](sim::Simulator& sim, Client* client, uint64_t seed,
                 decltype(written) written, decltype(next_fill) next_fill,
                 decltype(value_violations) violations,
                 decltype(violation_detail) detail,
                 decltype(cas_wins) cas_wins,
                 std::shared_ptr<sim::Notification> loaded,
                 std::shared_ptr<int> done) -> sim::Task<void> {
      (void)co_await client->Connect();
      co_await loaded->Wait();
      Rng rng(seed);
      for (int op = 0; op < kOpsPerClient; ++op) {
        co_await sim.Delay(sim::Microseconds(int64_t(rng.NextBounded(1500))));
        const int k = int(rng.NextBounded(kKeys));
        const std::string key = KeyName(k);
        const double dice = rng.NextDouble();
        if (dice < 0.5) {
          auto got = co_await client->Get(key);
          if (!got.ok()) continue;  // miss / budget exhausted: availability
          bool valid = got->value.size() == kValueBytes;
          if (valid) {
            const auto fill = static_cast<uint8_t>(got->value[0]);
            for (std::byte bb : got->value) valid &= (bb == std::byte{fill});
            valid &= (*written)[size_t(k)].count(fill) != 0;
          }
          if (!valid) {  // C1: fabricated/corrupt value escaped
            ++*violations;
            char d[160];
            size_t diff = 0;
            const auto f0 = got->value.empty()
                                ? uint8_t{0}
                                : static_cast<uint8_t>(got->value[0]);
            for (size_t i = 0; i < got->value.size(); ++i) {
              if (got->value[i] != std::byte{f0}) { diff = i; break; }
            }
            std::snprintf(d, sizeof d,
                          "key=%d size=%zu fill0=%u first_diff@%zu known=%d "
                          "ver={%llu,%u,%u} t=%.3fms\n",
                          k, got->value.size(), f0, diff,
                          int((*written)[size_t(k)].count(f0)),
                          (unsigned long long)got->version.tt_micros,
                          got->version.client_id, got->version.seq,
                          double(sim.now()) / 1e6);
            detail->append(d);
          }
        } else if (dice < 0.8) {
          const uint8_t fill = (*next_fill)++;
          if (fill == 0) continue;
          (*written)[size_t(k)].insert(fill);
          (void)co_await client->Set(key, Bytes(kValueBytes, std::byte{fill}));
        } else {
          auto got = co_await client->Get(key);
          if (!got.ok()) continue;
          const uint8_t fill = (*next_fill)++;
          if (fill == 0) continue;
          (*written)[size_t(k)].insert(fill);
          auto swapped = co_await client->Cas(
              key, Bytes(kValueBytes, std::byte{fill}), got->version);
          if (swapped.ok() && *swapped) {
            cas_wins->emplace_back(k, got->version);
          }
        }
      }
      ++*done;
    }(sim, clients[size_t(c)], seed * 131 + uint64_t(c) + 1, written,
      next_fill, value_violations, violation_detail, cas_wins, loaded, done));
  }

  // The chaos harness executes the plan's crash schedule.
  for (const net::CrashEvent& ev : plan->crash_schedule()) {
    sim.Spawn([](sim::Simulator& sim, Cell* cell,
                 net::CrashEvent ev) -> sim::Task<void> {
      co_await sim.WaitUntil(ev.at);
      Status s = co_await cell->CrashAndRestart(ev.shard, ev.downtime);
      EXPECT_TRUE(s.ok()) << "crash/restart: " << s.ToString();
    }(sim, &cell, ev));
  }

  while (*done < kClients && !sim.empty()) sim.RunSteps(256);
  sim.Run();  // quiesce; probabilistic faults expired at kFaultsUntil

  // Post-fault repair: every backend scans all shards it holds, twice
  // (sequentially — one repairer at a time, as in production, §5.4).
  for (int round = 0; round < 2; ++round) {
    for (uint32_t s = 0; s < cell.num_shards(); ++s) {
      sim.Spawn(cell.backend(s).RepairScanOnce(/*all_shards=*/true));
      sim.Run();
    }
  }

  ChaosOutcome out;
  out.fingerprint = plan->trace_fingerprint();
  out.trace_events = plan->trace_events();
  out.span_fingerprint = cell.tracer().fingerprint();
  out.spans_completed = cell.tracer().spans_completed();
  out.faults = plan->stats();
  out.fault_summary = *violation_detail + plan->Summary();
  out.value_violations = *value_violations;

  // C2: no (key, expected-version) pair may win twice.
  std::map<std::pair<int, VersionNumber>, int> wins;
  for (const auto& w : *cas_wins) ++wins[w];
  for (const auto& [w, n] : wins) {
    if (n > 1) ++out.cas_violations;
  }

  // C3: replica agreement per key after repairs.
  const uint32_t n = cell.num_shards();
  for (int k = 0; k < kKeys; ++k) {
    const std::string key = KeyName(k);
    const uint32_t p = PrimaryShard(HashKey(key), n);
    std::optional<VersionNumber> v[3];
    int present = 0;
    for (int r = 0; r < 3; ++r) {
      v[r] = cell.backend(ReplicaShard(p, uint32_t(r), n)).LookupVersion(key);
      if (v[r]) ++present;
    }
    const bool agree =
        present == 3 && *v[0] == *v[1] && *v[1] == *v[2];
    if (!agree) out.divergent_keys.push_back(key + " present=" +
                                             std::to_string(present));
  }

  for (const Client* c : clients) out.clients += c->stats();
  out.rma = cell.transport()->stats();
  out.backends = cell.AggregateBackendStats();
  return out;
}

std::string Describe(const ChaosOutcome& o) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "faults: msgs=%lld drops=%lld corrupt=%lld dup=%lld delay=%lld "
      "part=%lld pause=%lld\nclient: gets=%lld hits=%lld retries=%lld "
      "torn=%lld timeouts=%lld backoffs=%lld budget=%lld\nrepair: sent=%lld "
      "failed=%lld issued=%lld\n",
      (long long)o.faults.messages, (long long)o.faults.drops,
      (long long)o.faults.corruptions, (long long)o.faults.duplicates,
      (long long)o.faults.delays, (long long)o.faults.partition_blocks,
      (long long)o.faults.pause_stalls, (long long)o.clients.gets,
      (long long)o.clients.hits, (long long)o.clients.retries,
      (long long)o.clients.torn_reads, (long long)o.clients.op_timeouts,
      (long long)o.clients.backoff_events,
      (long long)o.clients.budget_exhausted,
      (long long)o.backends.repair_pulls_sent,
      (long long)o.backends.repair_pull_failures,
      (long long)o.backends.repairs_issued);
  return std::string(buf) + o.fault_summary;
}

class ChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosTest, SoakSeedIsSafeAndDeterministic) {
  const uint64_t seed = GetParam();
  ChaosOutcome a = RunChaos(seed);

  EXPECT_GT(a.faults.messages, 0) << "fault plan saw no traffic";
  EXPECT_EQ(a.value_violations, 0)
      << "seed " << seed << "\n" << Describe(a);
  EXPECT_EQ(a.cas_violations, 0)
      << "seed " << seed << "\n" << Describe(a);
  EXPECT_TRUE(a.divergent_keys.empty())
      << "seed " << seed << " diverged: "
      << (a.divergent_keys.empty() ? "" : a.divergent_keys[0]) << "\n"
      << Describe(a);

  // Injected loss must surface in the retry counters, never be silent.
  if (a.faults.drops + a.faults.partition_blocks > 50) {
    EXPECT_GT(a.clients.op_timeouts + a.clients.retries +
                  a.clients.backoff_events,
              0)
        << Describe(a);
  }

  // C4: identical replay — the fault trace AND the per-op span trace.
  ChaosOutcome b = RunChaos(seed);
  EXPECT_EQ(a.fingerprint, b.fingerprint) << "seed " << seed
                                          << " is not deterministic";
  EXPECT_EQ(a.trace_events, b.trace_events);
  EXPECT_EQ(a.faults.messages, b.faults.messages);
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.corruptions, b.faults.corruptions);
  EXPECT_EQ(a.clients.gets, b.clients.gets);
  EXPECT_GT(a.spans_completed, 0) << "tracing produced no spans";
  EXPECT_EQ(a.span_fingerprint, b.span_fingerprint)
      << "seed " << seed << " span trace is not deterministic";
  EXPECT_EQ(a.spans_completed, b.spans_completed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Range(uint64_t{1}, uint64_t{21}));

// Tracing is pure observation: a run with the tracer disabled must be
// bit-identical (fault fingerprint, op counts) to the same seed traced.
TEST(ChaosTrace, DisabledTracingLeavesRunUnchanged) {
  ChaosOutcome traced = RunChaos(3, /*trace=*/true);
  ChaosOutcome untraced = RunChaos(3, /*trace=*/false);
  EXPECT_GT(traced.spans_completed, 0);
  EXPECT_EQ(untraced.spans_completed, 0);
  EXPECT_EQ(traced.fingerprint, untraced.fingerprint);
  EXPECT_EQ(traced.trace_events, untraced.trace_events);
  EXPECT_EQ(traced.faults.messages, untraced.faults.messages);
  EXPECT_EQ(traced.clients.gets, untraced.clients.gets);
  EXPECT_EQ(traced.clients.hits, untraced.clients.hits);
  EXPECT_EQ(traced.clients.retries, untraced.clients.retries);
}

// No-fault control: with a clean fabric and write traffic quiesced, the
// validation-failure rate must sit inside §4's "<0.01% of GETs" envelope
// (organically it is zero here; the envelope is the contract).
TEST(ChaosControl, OrganicValidationFailuresWithinEnvelope) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();

  Client* writer = cell.AddClient();
  std::vector<Client*> readers;
  for (int c = 0; c < 2; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(10 + c);
    readers.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  sim.Spawn([](Client* w,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await w->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await w->Set(KeyName(k), Bytes(kValueBytes, std::byte{7}));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    loaded->Notify();
  }(writer, loaded));
  for (size_t c = 0; c < readers.size(); ++c) {
    sim.Spawn([](sim::Simulator& sim, Client* r, uint64_t seed,
                 std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
      (void)co_await r->Connect();
      co_await loaded->Wait();
      Rng rng(seed);
      for (int op = 0; op < 1500; ++op) {
        co_await sim.Delay(sim::Microseconds(int64_t(rng.NextBounded(50))));
        auto got = co_await r->Get(KeyName(int(rng.NextBounded(kKeys))));
        EXPECT_TRUE(got.ok()) << got.status().ToString();
      }
    }(sim, readers[c], 900 + c, loaded));
  }
  sim.Run();

  int64_t gets = 0, torn = 0, errors = 0;
  for (const Client* r : readers) {
    gets += r->stats().gets;
    torn += r->stats().torn_reads;
    errors += r->stats().get_errors;
  }
  ASSERT_GT(gets, 0);
  EXPECT_EQ(errors, 0);
  // <0.01% envelope; with writes quiesced the organic rate is zero.
  EXPECT_LE(double(torn) / double(gets), 0.0001);
}

// Directed 1% RMA corruption: every flipped payload must be caught by
// client-side validation (nonzero checksum retries) and no wrong value may
// ever be returned (§5.1's hit conditions are load-bearing).
TEST(ChaosCorruption, OnePercentCorruptionCaughtByValidation) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();

  auto plan = std::make_shared<net::FaultPlan>(0xC0FFEE);
  net::LinkFaultRates rates;
  rates.corrupt = 0.01;  // 1% of messages; nothing else
  plan->SetDefaultRates(rates);

  std::vector<Client*> clients;
  for (int c = 0; c < 2; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    clients.push_back(cell.AddClient(cc));
  }

  auto loaded = std::make_shared<sim::Notification>(sim);
  auto wrong_values = std::make_shared<int>(0);
  sim.Spawn([](Cell* cell, Client* w, std::shared_ptr<net::FaultPlan> plan,
               std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
    (void)co_await w->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await w->Set(KeyName(k),
                                 Bytes(kValueBytes, std::byte{uint8_t(k)}));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    // Corruption starts only after the clean preload.
    cell->fabric().InstallFaults(plan);
    loaded->Notify();
  }(&cell, clients[0], plan, loaded));

  for (size_t c = 0; c < clients.size(); ++c) {
    sim.Spawn([](sim::Simulator& sim, Client* r, uint64_t seed,
                 std::shared_ptr<int> wrong,
                 std::shared_ptr<sim::Notification> loaded) -> sim::Task<void> {
      (void)co_await r->Connect();
      co_await loaded->Wait();
      Rng rng(seed);
      for (int op = 0; op < 2000; ++op) {
        co_await sim.Delay(sim::Microseconds(int64_t(rng.NextBounded(100))));
        const int k = int(rng.NextBounded(kKeys));
        auto got = co_await r->Get(KeyName(k));
        if (!got.ok()) continue;  // retry budget spent under corruption: ok
        bool valid = got->value.size() == kValueBytes;
        for (std::byte bb : got->value) {
          valid &= (bb == std::byte{uint8_t(k)});
        }
        if (!valid) ++*wrong;
      }
    }(sim, clients[c], 7000 + c, wrong_values, loaded));
  }
  sim.Run();

  int64_t torn = 0, hits = 0;
  for (const Client* c : clients) {
    torn += c->stats().torn_reads;
    hits += c->stats().hits;
  }
  const rma::RmaStats& rs = cell.transport()->stats();
  EXPECT_GT(plan->stats().corruptions, 0);
  EXPECT_GT(rs.corrupt_deliveries, 0) << "no payload ever corrupted";
  EXPECT_GT(torn, 0) << "corrupted payloads were never caught";
  EXPECT_GT(hits, 0);
  EXPECT_EQ(*wrong_values, 0)
      << "corrupted value escaped validation; " << plan->Summary();
}

}  // namespace
}  // namespace cm::cliquemap
