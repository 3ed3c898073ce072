// Correlated-failure survival suite (DESIGN.md §15): failure-domain-aware
// placement, mass-failure recovery, and quorum-loss degraded reads.
//
//   F1. View codec: failure-domain labels round-trip through the cell-view
//       TLV; a cell with no labels (or all-empty labels) encodes
//       byte-identically to a pre-domain view.
//   F2. DomainSpreadViolations counts exactly the replica windows that span
//       fewer distinct domains than the cell allows; unlabeled slots are
//       wildcards and a single-domain cell can never violate.
//   F3. RebalanceDomains fixes a violating placement online — records
//       survive, the committed view is spread, and a second call no-ops.
//   F4. Replacement-storm regression: three simultaneous crashes with a
//       recovery budget of 3 heal with zero failed recoveries and zero flap
//       suppressions (the old code raced all three Recovers into the single
//       resharder and burned cooldowns on FailedPrecondition).
//   F5. A whole failure domain going dark is classified DOMAIN_DOWN (one
//       event, not N), the per-domain liveness gauge drops to zero, and the
//       episode clears after the doctor rebuilds the domain.
//   F6. Majority-dead brake: when most of the cell reads DEAD at once the
//       doctor holds all reconfiguration (a partitioned observer must not
//       shred a healthy cell) and resumes once the verdict share drops.
//   F7. Degraded reads (opt-in) return the best sub-quorum answer flagged
//       degraded; fail-fast stays the default; the location cache is never
//       populated from a degraded answer.
//   F8. Degraded reads are tombstone-aware: after a quorum-committed ERASE
//       they report absence even when a lagging live replica still serves
//       the pre-erase value.
//   F9. Degraded reads never roll back: an answer below the client's own
//       quorumed version floor is refused, not returned.
//  F10. Under quorum loss, degraded-on clients answer strictly more GETs
//       than fail-fast clients (the availability-dip ordering the bench
//       measures at scale).
//  F11. Domain-outage chaos soak (5 seeds): kill one domain mid-load under
//       link faults — zero wrong-value GETs, zero version rollbacks, every
//       shard regains full health with zero operator calls.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cliquemap/cell.h"
#include "cliquemap/doctor.h"
#include "cliquemap/resharder.h"
#include "net/faults.h"

namespace cm::cliquemap {
namespace {

void DriveUntil(sim::Simulator& sim, const bool* flag) {
  while (!*flag && !sim.empty()) sim.RunSteps(256);
}

template <typename Cond>
void DriveUntilCond(sim::Simulator& sim, sim::Time limit, Cond cond) {
  while (!cond() && sim.now() < limit && !sim.empty()) sim.RunSteps(256);
}

DoctorOptions FastDoctor() {
  DoctorOptions d;
  d.probe_interval = sim::Milliseconds(5);
  d.probe_timeout = sim::Milliseconds(2);
  d.suspect_after_misses = 2;
  d.dead_after_misses = 4;
  d.heartbeat_interval = sim::Milliseconds(5);
  d.lease_duration = sim::Milliseconds(25);
  d.cooldown = sim::Milliseconds(300);
  return d;
}

// ---------------------------------------------------------------------------
// F1: codec round-trip + byte-identity when domains are unset.
// ---------------------------------------------------------------------------

CellView MakeView(uint32_t n, ReplicationMode mode,
                  std::vector<std::string> domains = {}) {
  CellView v;
  v.mode = mode;
  v.generation = 3;
  for (uint32_t s = 0; s < n; ++s) {
    v.shard_hosts.push_back(100 + s);
    v.shard_config_ids.push_back(1000 + s);
  }
  v.shard_domains = std::move(domains);
  return v;
}

TEST(DomainCodecTest, RoundTripAndByteIdentityWhenUnset) {
  const CellView plain = MakeView(4, ReplicationMode::kR32);
  const Bytes base = EncodeCellView(plain);

  // All-empty labels are "unconfigured": byte-identical to no labels at all,
  // so pre-domain determinism fingerprints hold.
  CellView empties = plain;
  empties.shard_domains.assign(4, "");
  EXPECT_EQ(EncodeCellView(empties), base);

  // A mis-sized label vector is never emitted (it could not be validated on
  // decode).
  CellView missized = plain;
  missized.shard_domains = {"rackA"};
  EXPECT_EQ(EncodeCellView(missized), base);

  // Labeled views round-trip, preserving slot order and empty slots.
  CellView labeled = MakeView(4, ReplicationMode::kR32,
                              {"rackA", "", "rackB", "rackC"});
  const Bytes wire = EncodeCellView(labeled);
  EXPECT_NE(wire, base);
  auto decoded = DecodeCellView(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard_domains,
            (std::vector<std::string>{"rackA", "", "rackB", "rackC"}));
  EXPECT_EQ(decoded->shard_hosts, labeled.shard_hosts);

  // A pre-domain consumer of a labeled view (decoder ignoring unknown tags)
  // is exercised implicitly: the label block rides at the tail, after every
  // pre-existing tag.
  auto base_decoded = DecodeCellView(base);
  ASSERT_TRUE(base_decoded.ok());
  EXPECT_TRUE(base_decoded->shard_domains.empty());
}

// ---------------------------------------------------------------------------
// F2: the violation count.
// ---------------------------------------------------------------------------

TEST(DomainSpreadTest, ViolationCountsReplicaWindows) {
  // Perfect spread: every window of 3 consecutive slots spans 3 domains.
  EXPECT_EQ(DomainSpreadViolations(MakeView(
                6, ReplicationMode::kR32, {"A", "B", "C", "A", "B", "C"})),
            0);
  // Pairwise-adjacent layout: every one of the 6 windows spans only 2.
  EXPECT_EQ(DomainSpreadViolations(MakeView(
                6, ReplicationMode::kR32, {"A", "A", "B", "B", "C", "C"})),
            6);
  // One domain cell-wide: nothing better is achievable, so no violations.
  EXPECT_EQ(DomainSpreadViolations(MakeView(
                6, ReplicationMode::kR32, {"A", "A", "A", "A", "A", "A"})),
            0);
  // Two domains, R=3: achievable spread is min(3, 2) = 2 per window.
  EXPECT_EQ(DomainSpreadViolations(
                MakeView(4, ReplicationMode::kR32, {"A", "B", "A", "B"})),
            0);
  EXPECT_EQ(DomainSpreadViolations(
                MakeView(4, ReplicationMode::kR32, {"A", "A", "B", "B"})),
            0);  // every cyclic 3-window still touches both domains
  EXPECT_EQ(DomainSpreadViolations(
                MakeView(4, ReplicationMode::kR32, {"A", "A", "A", "B"})),
            1);  // only the window at p=0 (A,A,A) misses domain B
  // Unlabeled slots are wildcards (they may live anywhere).
  EXPECT_EQ(DomainSpreadViolations(
                MakeView(3, ReplicationMode::kR32, {"A", "", "B"})),
            0);
  // R=1 has no spread to violate; unconfigured views have none either.
  EXPECT_EQ(DomainSpreadViolations(
                MakeView(3, ReplicationMode::kR1, {"A", "A", "A"})),
            0);
  EXPECT_EQ(DomainSpreadViolations(MakeView(3, ReplicationMode::kR32)), 0);
}

// ---------------------------------------------------------------------------
// F3: online domain rebalance through the dual-version window.
// ---------------------------------------------------------------------------

TEST(DomainSpreadTest, RebalanceRestoresSpreadOnline) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 128;
  // Slot s takes failure_domains[s % 6]: the pairwise-adjacent worst case.
  o.failure_domains = {"A", "A", "B", "B", "C", "C"};
  Cell cell(sim, std::move(o));
  cell.Start();

  ConfigService& cfg = cell.config_service();
  ASSERT_EQ(DomainSpreadViolations(cfg.view()), 6);

  constexpr int kKeys = 40;
  Client* client = cell.AddClient();
  auto loaded = std::make_shared<bool>(false);
  sim.Spawn([](Client* client, std::shared_ptr<bool> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set("dom-" + std::to_string(k),
                                      Bytes(256, std::byte{uint8_t(k + 1)}));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    *loaded = true;
  }(client, loaded));
  DriveUntil(sim, loaded.get());
  ASSERT_TRUE(*loaded);

  Resharder resharder(cell);
  auto rebalanced = std::make_shared<bool>(false);
  sim.Spawn([](Resharder* r, std::shared_ptr<bool> done) -> sim::Task<void> {
    Status s = co_await r->RebalanceDomains();
    EXPECT_TRUE(s.ok()) << s.ToString();
    *done = true;
  }(&resharder, rebalanced));
  DriveUntil(sim, rebalanced.get());
  ASSERT_TRUE(*rebalanced);

  EXPECT_EQ(DomainSpreadViolations(cfg.view()), 0)
      << "committed view still violates domain spread";
  EXPECT_FALSE(cfg.in_transition());
  EXPECT_EQ(resharder.stats().domain_rebalances, 1);
  EXPECT_GT(resharder.stats().domain_slots_moved, 0);
  // The view's labels track the permuted backends.
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    EXPECT_EQ(cfg.view().shard_domains[s],
              cell.backend(s).config().failure_domain)
        << "slot " << s;
  }

  // Every record survived the move (clients chase fresh config ids).
  auto verified = std::make_shared<bool>(false);
  sim.Spawn([](Client* client, std::shared_ptr<bool> verified) -> sim::Task<void> {
    for (int k = 0; k < kKeys; ++k) {
      auto r = co_await client->Get("dom-" + std::to_string(k));
      EXPECT_TRUE(r.ok()) << "key " << k << ": " << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->value[0], std::byte{uint8_t(k + 1)});
      }
    }
    *verified = true;
  }(client, verified));
  DriveUntil(sim, verified.get());
  EXPECT_TRUE(*verified);

  // Already spread: the second pass is a clean no-op.
  auto again = std::make_shared<bool>(false);
  sim.Spawn([](Resharder* r, std::shared_ptr<bool> done) -> sim::Task<void> {
    Status s = co_await r->RebalanceDomains();
    EXPECT_TRUE(s.ok()) << s.ToString();
    *done = true;
  }(&resharder, again));
  DriveUntil(sim, again.get());
  EXPECT_EQ(resharder.stats().domain_rebalances, 1);
  sim.Run();
}

// ---------------------------------------------------------------------------
// F4: replacement-storm regression — simultaneous crashes, budget > 1.
// ---------------------------------------------------------------------------

TEST(DoctorStormTest, ThreeSimultaneousCrashesHealWithoutStorm) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();

  DoctorOptions d = FastDoctor();
  d.max_concurrent_recoveries = 3;  // the storm-prone configuration
  CellDoctor doctor(cell, d);
  doctor.Start();

  constexpr int kKeys = 24;
  Client* client = cell.AddClient();
  auto loaded = std::make_shared<bool>(false);
  sim.Spawn([](Client* client, std::shared_ptr<bool> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set("storm-" + std::to_string(k),
                                      Bytes(512, std::byte{uint8_t(k + 1)}));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    *loaded = true;
  }(client, loaded));
  DriveUntil(sim, loaded.get());
  ASSERT_TRUE(*loaded);

  // Alternating victims: every replica set keeps at least one live member.
  cell.CrashShard(0);
  cell.CrashShard(2);
  cell.CrashShard(4);

  DriveUntilCond(sim, sim.now() + sim::Seconds(20), [&] {
    return doctor.stats().recoveries_succeeded >= 3;
  });

  EXPECT_EQ(doctor.stats().recoveries_succeeded, 3);
  EXPECT_EQ(doctor.stats().recoveries_failed, 0)
      << "concurrent Recovers raced the single resharder (the storm bug)";
  EXPECT_EQ(doctor.stats().flap_suppressed, 0)
      << "a bounced recovery burned its cooldown and flapped";
  EXPECT_EQ(doctor.stats().recoveries_started, 3);
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    EXPECT_EQ(doctor.health(s), BackendHealth::kHealthy) << "shard " << s;
  }

  // Every acked record survived the triple rebuild.
  auto verified = std::make_shared<bool>(false);
  sim.Spawn([](Client* client, std::shared_ptr<bool> verified) -> sim::Task<void> {
    for (int k = 0; k < kKeys; ++k) {
      auto r = co_await client->Get("storm-" + std::to_string(k));
      EXPECT_TRUE(r.ok()) << "key " << k << ": " << r.status().ToString();
      if (r.ok()) {
        EXPECT_EQ(r->value[0], std::byte{uint8_t(k + 1)});
      }
    }
    *verified = true;
  }(client, verified));
  DriveUntil(sim, verified.get());
  EXPECT_TRUE(*verified);

  doctor.Stop();
  sim.Run();
}

// ---------------------------------------------------------------------------
// F5: DOMAIN_DOWN classification + per-domain liveness gauges.
// ---------------------------------------------------------------------------

TEST(DoctorDomainTest, DomainDownClassifiedGaugedAndCleared) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  o.failure_domains = {"A", "A", "B", "B", "C", "C"};
  Cell cell(sim, std::move(o));
  cell.Start();

  DoctorOptions d = FastDoctor();
  d.max_concurrent_recoveries = 2;
  CellDoctor doctor(cell, d);
  doctor.Start();

  // Settle, then lose all of domain A at once (rack power event).
  DriveUntilCond(sim, sim::Milliseconds(100), [] { return false; });
  cell.CrashShard(0);
  cell.CrashShard(1);

  DriveUntilCond(sim, sim.now() + sim::Seconds(5), [&] {
    return doctor.domain_down("A");
  });
  EXPECT_TRUE(doctor.domain_down("A"));
  EXPECT_FALSE(doctor.domain_down("B"));
  EXPECT_GE(doctor.stats().domain_down_events, 1);
  {
    const metrics::Snapshot snap = cell.metrics().TakeSnapshot();
    EXPECT_EQ(snap.value("cm.doctor.domain_alive{domain=A}"), 0);
    EXPECT_EQ(snap.value("cm.doctor.domain_alive{domain=B}"), 2);
    EXPECT_EQ(snap.value("cm.doctor.domain_alive{domain=C}"), 2);
  }

  // The doctor rebuilds the domain (replacements inherit the victims'
  // domain — the rebuilt rack members land in the same rack) and the
  // episode clears exactly once.
  DriveUntilCond(sim, sim.now() + sim::Seconds(20), [&] {
    return doctor.stats().recoveries_succeeded >= 2 &&
           !doctor.domain_down("A");
  });
  EXPECT_FALSE(doctor.domain_down("A"));
  EXPECT_EQ(doctor.stats().domain_down_events, 1);
  EXPECT_EQ(doctor.stats().domain_down_cleared, 1);
  EXPECT_EQ(cell.backend(0).config().failure_domain, "A");
  EXPECT_EQ(cell.backend(1).config().failure_domain, "A");
  {
    const metrics::Snapshot snap = cell.metrics().TakeSnapshot();
    EXPECT_EQ(snap.value("cm.doctor.domain_alive{domain=A}"), 2);
  }

  doctor.Stop();
  sim.Run();
}

// ---------------------------------------------------------------------------
// F6: majority-dead brake.
// ---------------------------------------------------------------------------

TEST(DoctorBrakeTest, MajorityDeadHoldsReconfiguration) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 5;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();

  DoctorOptions d = FastDoctor();
  // High miss threshold so all three DEAD verdicts land in the same tick
  // (misses advance in lockstep; every lease is long-lapsed by then).
  d.dead_after_misses = 10;
  CellDoctor doctor(cell, d);
  doctor.Start();

  DriveUntilCond(sim, sim::Milliseconds(100), [] { return false; });

  // 3 of 5 shards go dark at once: to this observer that is
  // indistinguishable from its own partition — reconfiguration must hold.
  cell.CrashShard(0);
  // Shards 1 and 2 are operator-restarted later; shard 0 stays dead.
  sim.Spawn([](Cell* cell) -> sim::Task<void> {
    (void)co_await cell->CrashAndRestart(1, sim::Milliseconds(600));
  }(&cell));
  sim.Spawn([](Cell* cell) -> sim::Task<void> {
    (void)co_await cell->CrashAndRestart(2, sim::Milliseconds(600));
  }(&cell));

  DriveUntilCond(sim, sim.now() + sim::Seconds(2), [&] {
    return doctor.majority_hold();
  });
  EXPECT_TRUE(doctor.majority_hold());
  EXPECT_GE(doctor.stats().majority_dead_holds, 1);
  EXPECT_EQ(doctor.stats().recoveries_started, 0)
      << "the doctor reconfigured while a majority of verdicts read DEAD";

  // Once the restarted shards answer probes again the verdict share drops,
  // the brake releases, and the one genuinely-dead shard is rebuilt.
  DriveUntilCond(sim, sim.now() + sim::Seconds(20), [&] {
    return doctor.stats().recoveries_succeeded >= 1;
  });
  EXPECT_FALSE(doctor.majority_hold());
  EXPECT_EQ(doctor.stats().majority_dead_holds, 1);
  EXPECT_GE(doctor.stats().recoveries_succeeded, 1);
  EXPECT_EQ(doctor.health(0), BackendHealth::kHealthy);

  doctor.Stop();
  sim.Run();
}

// ---------------------------------------------------------------------------
// Degraded reads. Helper: a 3-shard kR32 cell (every shard replicates every
// key) with two backends crashed leaves exactly one live replica — quorum is
// impossible by construction.
// ---------------------------------------------------------------------------

TEST(DegradedReadTest, ServesBestSubQuorumAnswerOptInOnly) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.degraded_reads = true;
  Client* client = cell.AddClient(cc);

  auto done = std::make_shared<bool>(false);
  sim.Spawn([](Cell* cell, Client* client,
               std::shared_ptr<bool> done) -> sim::Task<void> {
    (void)co_await client->Connect();
    Status s = co_await client->Set("deg-key", Bytes(256, std::byte{0x6B}));
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) co_return;

    cell->CrashShard(1);
    cell->CrashShard(2);

    const int64_t insertions_before = client->loccache().stats().insertions;

    // Fail-fast (per-op override wins over the config): no quorum, no
    // answer — the inquorate vote maps to a miss, never a flagged value.
    auto off = co_await client->Get("deg-key", {.degraded = false});
    EXPECT_FALSE(off.ok());
    EXPECT_EQ(client->stats().degraded_attempts, 0);

    // Degraded (the config default for this client): the one live replica's
    // answer comes back flagged.
    auto on = co_await client->Get("deg-key");
    EXPECT_TRUE(on.ok()) << on.status().ToString();
    if (on.ok()) {
      EXPECT_TRUE(on->degraded);
      EXPECT_EQ(on->value.size(), 256u);
      EXPECT_EQ(on->value[0], std::byte{0x6B});
    }
    EXPECT_GE(client->stats().degraded_attempts, 1);
    EXPECT_EQ(client->stats().degraded_hits, 1);
    EXPECT_GE(cell->AggregateBackendStats().degraded_gets_served, 1);

    // A degraded answer is not quorum-backed: the location cache must not
    // have learned anything from it.
    EXPECT_EQ(client->loccache().stats().insertions, insertions_before);
    *done = true;
  }(&cell, client, done));
  DriveUntil(sim, done.get());
  EXPECT_TRUE(*done);
  sim.Run();
}

TEST(DegradedReadTest, TombstoneAwareAbsenceAfterQuorumErase) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 4;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.degraded_reads = true;
  Client* client = cell.AddClient(cc);

  const std::string key = "tomb-key";
  const uint32_t n = cell.num_shards();
  const uint32_t p = PrimaryShard(HashKey(key), n);
  const uint32_t lagging = ReplicaShard(p, 2, n);  // last replica of the set

  auto done = std::make_shared<bool>(false);
  sim.Spawn([](sim::Simulator& sim, Cell* cell, Client* client,
               std::string key, uint32_t p, uint32_t lagging,
               std::shared_ptr<bool> done) -> sim::Task<void> {
    (void)co_await client->Connect();
    Status s = co_await client->Set(key, Bytes(256, std::byte{0x2A}));
    EXPECT_TRUE(s.ok()) << s.ToString();
    if (!s.ok()) co_return;

    // Partition the client away from the last replica for the ERASE: the
    // tombstone quorum-commits on the other two, while `lagging` keeps the
    // pre-erase value (no repair loops run to converge it).
    auto plan = std::make_shared<net::FaultPlan>(5);
    plan->AddPartition(client->host(), cell->backend(lagging).host(),
                       sim.now(), sim.now() + sim::Milliseconds(50));
    cell->fabric().InstallFaults(plan);
    Status erased = co_await client->Erase(key);
    EXPECT_TRUE(erased.ok()) << erased.ToString();
    if (!erased.ok()) co_return;
    co_await sim.WaitUntil(sim.now() + sim::Milliseconds(60));  // heal

    // Disaster: the primary (tombstoned) dies. Live replicas: one with the
    // tombstone, one lagging with the stale value.
    cell->CrashShard(p);

    auto r = co_await client->Get(key);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound)
        << r.status().ToString();
    EXPECT_GE(client->stats().degraded_attempts, 1);
    EXPECT_GE(client->stats().degraded_misses, 1);
    EXPECT_EQ(client->stats().degraded_hits, 0)
        << "degraded read served a stale value past a quorum-committed ERASE";
    *done = true;
  }(sim, &cell, client, key, p, lagging, done));
  DriveUntil(sim, done.get());
  EXPECT_TRUE(*done);
  sim.Run();
}

TEST(DegradedReadTest, RefusesVersionRollbackBelowQuorumedFloor) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 4;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 64;
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.degraded_reads = true;
  Client* client = cell.AddClient(cc);

  const std::string key = "roll-key";
  const uint32_t n = cell.num_shards();
  const uint32_t p = PrimaryShard(HashKey(key), n);
  const uint32_t r1 = ReplicaShard(p, 1, n);
  const uint32_t lagging = ReplicaShard(p, 2, n);

  auto done = std::make_shared<bool>(false);
  sim.Spawn([](sim::Simulator& sim, Cell* cell, Client* client,
               std::string key, uint32_t p, uint32_t r1, uint32_t lagging,
               std::shared_ptr<bool> done) -> sim::Task<void> {
    (void)co_await client->Connect();
    Status s1 = co_await client->Set(key, Bytes(256, std::byte{0x01}));
    EXPECT_TRUE(s1.ok()) << s1.ToString();
    if (!s1.ok()) co_return;

    // v2 quorum-commits everywhere except `lagging` (partitioned away).
    auto plan = std::make_shared<net::FaultPlan>(6);
    plan->AddPartition(client->host(), cell->backend(lagging).host(),
                       sim.now(), sim.now() + sim::Milliseconds(50));
    cell->fabric().InstallFaults(plan);
    Status s2 = co_await client->Set(key, Bytes(256, std::byte{0x02}));
    EXPECT_TRUE(s2.ok()) << s2.ToString();
    if (!s2.ok()) co_return;

    // Quorum-read v2: this is the client's version floor (and it populates
    // the location cache, whose floor the degraded path consults).
    auto v2 = co_await client->Get(key);
    EXPECT_TRUE(v2.ok()) << v2.status().ToString();
    if (!v2.ok()) co_return;
    EXPECT_EQ(v2->value[0], std::byte{0x02});
    const VersionNumber floor = v2->version;
    co_await sim.WaitUntil(sim.now() + sim::Milliseconds(60));  // heal

    // Disaster: both v2 holders die; the only live replica serves v1.
    cell->CrashShard(p);
    cell->CrashShard(r1);

    // speculate=false keeps the failing attempt off the cached pointer (a
    // failed speculative read would invalidate the entry — and with it the
    // floor this test is about).
    auto r = co_await client->Get(key, {.speculate = false});
    EXPECT_FALSE(r.ok() && !r->degraded) << "quorum read should be impossible";
    if (r.ok()) {
      // If anything is returned it must not be the rolled-back v1.
      EXPECT_FALSE(r->version < floor);
      EXPECT_NE(r->value[0], std::byte{0x01});
    } else {
      EXPECT_GE(client->stats().degraded_rollback_refused, 1)
          << r.status().ToString();
    }
    EXPECT_EQ(client->stats().degraded_hits, 0);
    *done = true;
  }(sim, &cell, client, key, p, r1, lagging, done));
  DriveUntil(sim, done.get());
  EXPECT_TRUE(*done);
  sim.Run();
}

// ---------------------------------------------------------------------------
// F10: degraded-on answers strictly more GETs under quorum loss.
// ---------------------------------------------------------------------------

int CountOkGets(bool degraded) {
  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 3;
  o.mode = ReplicationMode::kR32;
  o.backend.initial_buckets = 128;
  Cell cell(sim, std::move(o));
  cell.Start();

  ClientConfig cc;
  cc.degraded_reads = degraded;
  Client* client = cell.AddClient(cc);

  constexpr int kKeys = 20;
  auto ok = std::make_shared<int>(0);
  auto done = std::make_shared<bool>(false);
  sim.Spawn([](Cell* cell, Client* client, std::shared_ptr<int> ok,
               std::shared_ptr<bool> done) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      Status s = co_await client->Set("dip-" + std::to_string(k),
                                      Bytes(128, std::byte{uint8_t(k + 1)}));
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
    cell->CrashShard(0);
    cell->CrashShard(2);
    for (int k = 0; k < kKeys; ++k) {
      auto r = co_await client->Get("dip-" + std::to_string(k));
      if (r.ok() && r->value[0] == std::byte{uint8_t(k + 1)}) ++*ok;
    }
    *done = true;
  }(&cell, client, ok, done));
  DriveUntil(sim, done.get());
  EXPECT_TRUE(*done);
  sim.Run();
  return *ok;
}

TEST(DegradedReadTest, DegradedAnswersMoreThanFailFastUnderQuorumLoss) {
  const int fail_fast = CountOkGets(false);
  const int degraded = CountOkGets(true);
  EXPECT_EQ(fail_fast, 0) << "quorum loss must fail fail-fast reads";
  EXPECT_GT(degraded, fail_fast);
  EXPECT_EQ(degraded, 20) << "one live replica held every value";
}

// ---------------------------------------------------------------------------
// F11: domain-outage chaos soak — one whole domain dies mid-load under link
// faults; only the doctor may bring the cell back.
// ---------------------------------------------------------------------------

struct DisasterOutcome {
  int wrong_values = 0;
  int rollbacks = 0;
  int unreadable = 0;
  bool healed = false;
  int64_t domain_down_events = 0;
};

DisasterOutcome RunDomainOutageSoak(uint64_t seed) {
  constexpr int kKeys = 16;
  constexpr int kClients = 2;
  constexpr int kOps = 60;
  constexpr size_t kValueBytes = 512;

  sim::Simulator sim;
  CellOptions o;
  o.num_shards = 6;
  o.mode = ReplicationMode::kR32;
  o.seed = seed;
  o.backend.initial_buckets = 128;
  // Slot s % 3: A B C A B C — every replica set spans all three domains, so
  // killing one domain leaves every set at exactly quorum.
  o.failure_domains = {"A", "B", "C"};
  Cell cell(sim, std::move(o));
  cell.Start();

  DoctorOptions d = FastDoctor();
  d.max_concurrent_recoveries = 2;
  CellDoctor doctor(cell, d);
  doctor.Start();

  Rng prng(seed * 0x9E3779B97F4A7C15ull + 0xD15A57E5ull);
  auto plan = std::make_shared<net::FaultPlan>(seed);
  net::LinkFaultRates rates;
  rates.drop = 0.002 + prng.NextDouble() * 0.006;
  rates.corrupt = prng.NextDouble() * 0.003;
  rates.delay = prng.NextDouble() * 0.02;
  rates.delay_mean = sim::Microseconds(int64_t(20 + prng.NextBounded(60)));
  plan->SetDefaultRates(rates);
  plan->SetActiveWindow(sim::Milliseconds(20), sim::Milliseconds(200));
  // The correlated failure: domain A (shards 0 and 3) dies at t=60ms and is
  // never restarted — healing is the doctor's job alone.
  net::DomainOutageEvent outage;
  outage.domain = "A";
  outage.shards = {0, 3};
  outage.at = sim::Milliseconds(60);
  plan->ScheduleDomainOutage(outage);
  cell.fabric().InstallFaults(plan);

  for (const net::DomainOutageEvent& ev : plan->domain_outage_schedule()) {
    sim.Spawn([](sim::Simulator& sim, Cell* cell,
                 net::DomainOutageEvent ev) -> sim::Task<void> {
      co_await sim.WaitUntil(ev.at);
      for (uint32_t s : ev.shards) cell->CrashShard(s);
    }(sim, &cell, ev));
  }

  std::vector<Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    ClientConfig cc;
    cc.client_id = uint32_t(c + 1);
    cc.degraded_reads = true;  // survival mode: serve what the cell still has
    clients.push_back(cell.AddClient(cc));
  }

  auto written = std::make_shared<std::vector<std::set<uint8_t>>>(kKeys);
  auto max_seen = std::make_shared<std::vector<VersionNumber>>(kKeys);
  auto next_fill = std::make_shared<uint8_t>(1);
  auto wrong = std::make_shared<int>(0);
  auto rollbacks = std::make_shared<int>(0);

  auto loaded = std::make_shared<bool>(false);
  sim.Spawn([](Client* client, decltype(written) written,
               std::shared_ptr<bool> loaded) -> sim::Task<void> {
    (void)co_await client->Connect();
    for (int k = 0; k < kKeys; ++k) {
      (*written)[size_t(k)].insert(1);
      Status s = co_await client->Set("dis-" + std::to_string(k),
                                      Bytes(kValueBytes, std::byte{1}));
      EXPECT_TRUE(s.ok()) << "preload " << k << ": " << s.ToString();
    }
    *loaded = true;
  }(clients[0], written, loaded));

  auto done = std::make_shared<int>(0);
  for (int c = 0; c < kClients; ++c) {
    sim.Spawn([](sim::Simulator& sim, Client* client, uint64_t seed,
                 decltype(written) written, decltype(max_seen) max_seen,
                 decltype(next_fill) next_fill, std::shared_ptr<int> wrong,
                 std::shared_ptr<int> rollbacks, std::shared_ptr<bool> loaded,
                 std::shared_ptr<int> done) -> sim::Task<void> {
      (void)co_await client->Connect();
      while (!*loaded) co_await sim.Delay(sim::Milliseconds(1));
      Rng rng(seed);
      for (int op = 0; op < kOps; ++op) {
        co_await sim.Delay(sim::Microseconds(int64_t(rng.NextBounded(2000))));
        const int k = int(rng.NextBounded(kKeys));
        if (rng.NextBool(0.6)) {
          auto got = co_await client->Get("dis-" + std::to_string(k));
          if (!got.ok()) continue;  // availability, not integrity
          bool valid = got->value.size() == kValueBytes;
          if (valid) {
            const auto fill = static_cast<uint8_t>(got->value[0]);
            for (std::byte bb : got->value) valid &= (bb == std::byte{fill});
            valid &= (*written)[size_t(k)].count(fill) != 0;
          }
          if (!valid) ++*wrong;
          // A *quorum-backed* answer must never regress past one we
          // observed; degraded answers are best-effort and excluded from
          // the floor (they are flagged precisely so callers can tell).
          if (!got->degraded) {
            if (got->version < (*max_seen)[size_t(k)]) ++*rollbacks;
            if ((*max_seen)[size_t(k)] < got->version) {
              (*max_seen)[size_t(k)] = got->version;
            }
          }
        } else {
          uint8_t fill = (*next_fill)++;
          if (fill == 0) fill = (*next_fill)++;
          (*written)[size_t(k)].insert(fill);
          (void)co_await client->Set("dis-" + std::to_string(k),
                                     Bytes(kValueBytes, std::byte{fill}));
        }
      }
      ++*done;
    }(sim, clients[size_t(c)], seed * 131 + uint64_t(c) + 1, written, max_seen,
      next_fill, wrong, rollbacks, loaded, done));
  }

  while (*done < kClients && !sim.empty()) sim.RunSteps(256);

  // Zero operator calls from here: the doctor must rebuild both lost shards.
  DriveUntilCond(sim, sim.now() + sim::Seconds(30), [&] {
    if (doctor.stats().recoveries_succeeded < 2) return false;
    for (uint32_t s = 0; s < cell.num_shards(); ++s) {
      if (doctor.health(s) != BackendHealth::kHealthy) return false;
    }
    return true;
  });
  for (int round = 0; round < 2; ++round) {
    for (uint32_t s = 0; s < cell.num_shards(); ++s) {
      auto scanned = std::make_shared<bool>(false);
      sim.Spawn([](Backend* b, std::shared_ptr<bool> scanned) -> sim::Task<void> {
        co_await b->RepairScanOnce(/*all_shards=*/true);
        *scanned = true;
      }(&cell.backend(s), scanned));
      DriveUntil(sim, scanned.get());
    }
  }

  DisasterOutcome out;
  out.healed = doctor.stats().recoveries_succeeded >= 2;
  for (uint32_t s = 0; s < cell.num_shards(); ++s) {
    out.healed = out.healed && doctor.health(s) == BackendHealth::kHealthy;
  }
  out.domain_down_events = doctor.stats().domain_down_events;

  auto verified = std::make_shared<bool>(false);
  auto unreadable = std::make_shared<int>(0);
  sim.Spawn([](Client* client, decltype(written) written,
               decltype(max_seen) max_seen, std::shared_ptr<int> wrong,
               std::shared_ptr<int> rollbacks, std::shared_ptr<int> unreadable,
               std::shared_ptr<bool> verified) -> sim::Task<void> {
    for (int k = 0; k < kKeys; ++k) {
      auto got = co_await client->Get("dis-" + std::to_string(k));
      if (!got.ok()) {
        ++*unreadable;
        continue;
      }
      bool valid = got->value.size() == kValueBytes;
      if (valid) {
        const auto fill = static_cast<uint8_t>(got->value[0]);
        for (std::byte bb : got->value) valid &= (bb == std::byte{fill});
        valid &= (*written)[size_t(k)].count(fill) != 0;
      }
      if (!valid) ++*wrong;
      if (!got->degraded && got->version < (*max_seen)[size_t(k)]) {
        ++*rollbacks;
      }
    }
    *verified = true;
  }(clients[0], written, max_seen, wrong, rollbacks, unreadable, verified));
  DriveUntil(sim, verified.get());
  EXPECT_TRUE(*verified);

  out.wrong_values = *wrong;
  out.rollbacks = *rollbacks;
  out.unreadable = *unreadable;
  doctor.Stop();
  sim.Run();
  return out;
}

TEST(DisasterSoakTest, DomainOutageChaosSoak) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const DisasterOutcome out = RunDomainOutageSoak(seed);
    EXPECT_TRUE(out.healed)
        << "doctor never rebuilt the lost domain unattended";
    EXPECT_GE(out.domain_down_events, 1);
    EXPECT_EQ(out.wrong_values, 0);
    EXPECT_EQ(out.rollbacks, 0);
    EXPECT_EQ(out.unreadable, 0);
  }
}

}  // namespace
}  // namespace cm::cliquemap
