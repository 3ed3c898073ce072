#include "cliquemap/doctor.h"

#include <algorithm>

#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "sim/sync.h"

namespace cm::cliquemap {
namespace {
// Gray-failure (slow) classification: a backend whose probe-latency EWMA
// exceeds kSlowFactor x the cell median (with >= 3 samples) is SLOW. The
// doctor does not rebuild slow backends — client-side hedging and outlier
// ejection defend the tail — it only classifies and counts them.
constexpr double kEwmaAlpha = 0.2;
constexpr double kSlowFactor = 4.0;
// A failure domain whose every member is SUSPECT/DEAD, and which has at
// least this many members, is declared DOMAIN_DOWN: one event, not N
// independent ones.
constexpr int kDomainDownThreshold = 2;
}  // namespace

const char* BackendHealthName(BackendHealth h) {
  if (h == BackendHealth::kHealthy) return "healthy";
  if (h == BackendHealth::kSuspect) return "suspect";
  if (h == BackendHealth::kDead) return "dead";
  return "slow";
}

CellDoctor::CellDoctor(Cell& cell, DoctorOptions options)
    : cell_(cell),
      sim_(cell.simulator()),
      options_(options),
      resharder_(cell),
      exports_(&cell.metrics()) {
  metrics::ExportCounters(exports_, "cm.doctor.", {}, stats_);
  exports_.ExportGauge("cm.doctor.active_recoveries", {}, [this] {
    return static_cast<int64_t>(active_recoveries_);
  });
  exports_.ExportGauge("cm.doctor.majority_hold", {}, [this] {
    return static_cast<int64_t>(majority_hold_ ? 1 : 0);
  });
  exports_.ExportHistogram("cm.doctor.mttr_ns", {}, &mttr_ns_);
  exports_.ExportHistogram("cm.doctor.detect_ns", {}, &detect_ns_);
}

CellDoctor::~CellDoctor() { *alive_ = false; }

void CellDoctor::Start() {
  if (running_) return;
  running_ = true;
  started_at_ = sim_.now();
  cell_.config_service().SetLeaseDuration(options_.lease_duration);
  shards_.assign(cell_.num_shards(), ShardState{});
  for (uint32_t s = 0; s < cell_.num_shards(); ++s) {
    cell_.backend(s).StartHeartbeats(options_.heartbeat_interval);
  }
  // Per-domain liveness gauges (healthy + slow members), exported once per
  // doctor even across Stop/Start cycles. Domains ride the backends, so the
  // count stays right through slot permutations and replacements.
  if (!domain_gauges_exported_) {
    std::map<std::string, bool> seen;
    for (uint32_t s = 0; s < cell_.num_shards(); ++s) {
      const std::string& d = cell_.backend(s).config().failure_domain;
      if (d.empty() || seen[d]) continue;
      seen[d] = true;
      domain_gauges_exported_ = true;
      exports_.ExportGauge("cm.doctor.domain_alive", {{"domain", d}},
                           [this, d] {
                             int64_t alive = 0;
                             for (uint32_t s = 0; s < shards_.size(); ++s) {
                               if (s >= cell_.num_shards()) break;
                               if (cell_.backend(s).config().failure_domain !=
                                   d) {
                                 continue;
                               }
                               const BackendHealth h = shards_[s].health;
                               if (h == BackendHealth::kHealthy ||
                                   h == BackendHealth::kSlow) {
                                 ++alive;
                               }
                             }
                             return alive;
                           });
    }
  }
  sim_.Spawn(ControlLoop(alive_));
}

void CellDoctor::Stop() {
  if (!running_) return;
  running_ = false;
  // Kill every coroutine spawned under the old flag, then mint a fresh one
  // so Start() can be called again.
  *alive_ = false;
  alive_ = std::make_shared<bool>(true);
  for (uint32_t s = 0; s < cell_.num_shards(); ++s) {
    cell_.backend(s).StopHeartbeats();
  }
  for (const auto& b : cell_.retired()) b->StopHeartbeats();
}

BackendHealth CellDoctor::health(uint32_t shard) const {
  if (shard >= shards_.size()) return BackendHealth::kHealthy;
  return shards_[shard].health;
}

sim::Task<void> CellDoctor::ControlLoop(std::shared_ptr<bool> alive) {
  while (true) {
    co_await sim_.Delay(options_.probe_interval);
    if (!*alive || !running_) co_return;

    auto lapsed = cell_.config_service().ExpireLeases(sim_.now());
    stats_.leases_expired += static_cast<int64_t>(lapsed.size());

    // The cell may have grown (elastic resize) since the last tick.
    if (shards_.size() < cell_.num_shards()) shards_.resize(cell_.num_shards());

    std::vector<sim::Task<void>> probes;
    probes.reserve(shards_.size());
    for (uint32_t s = 0; s < shards_.size(); ++s) {
      probes.push_back(ProbeShard(s, alive));
    }
    co_await sim::JoinAll(sim_, std::move(probes));
    if (!*alive || !running_) co_return;

    Classify();
    MaybeRecover();
  }
}

sim::Task<void> CellDoctor::ProbeShard(uint32_t shard,
                                       std::shared_ptr<bool> alive) {
  ++stats_.probes;
  const sim::Time start = sim_.now();
  rpc::WireWriter w;
  w.PutU32(proto::kTagHeartbeatShard, shard);
  rpc::RpcChannel ch(cell_.rpc_network(), cell_.config_service().host(),
                     cell_.backend(shard).host());
  auto resp =
      co_await ch.Call(proto::kMethodPing, std::move(w).Take(),
                       options_.probe_timeout);
  if (!*alive) co_return;
  ShardState& st = shards_[shard];
  if (resp.ok()) {
    st.misses = 0;
    st.last_ok = sim_.now();
    const double sample = static_cast<double>(sim_.now() - start);
    st.ewma_ns = st.ewma_ns == 0.0
                     ? sample
                     : kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * st.ewma_ns;
  } else {
    ++st.misses;
    ++stats_.probe_failures;
  }
}

void CellDoctor::Classify() {
  // Cell-median probe EWMA, the baseline for gray-failure (slow) verdicts.
  std::vector<double> ewmas;
  for (const ShardState& st : shards_) {
    if (st.ewma_ns > 0.0) ewmas.push_back(st.ewma_ns);
  }
  double median = 0.0;
  if (ewmas.size() >= 3) {
    std::sort(ewmas.begin(), ewmas.end());
    median = ewmas[ewmas.size() / 2];
  }

  const ConfigService& cfg = cell_.config_service();
  const sim::Time now = sim_.now();
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    ShardState& st = shards_[s];
    if (st.recovering) continue;  // verdict frozen while the heal runs

    // A missing lease only counts once heartbeats have had time to establish
    // one: a full lease duration plus two heartbeat intervals past doctor
    // start (or past this shard's last recovery, whose fresh backend starts
    // leaseless too).
    const sim::Time grace_from =
        std::max(started_at_, st.last_recovery) + options_.lease_duration +
        2 * options_.heartbeat_interval;
    const bool lease_lapsed =
        now >= grace_from && !cfg.LeaseLiveAt(cell_.backend(s).host(), now);

    BackendHealth next = st.health;
    if (st.misses >= options_.dead_after_misses && lease_lapsed) {
      next = BackendHealth::kDead;
    } else if (st.misses >= options_.suspect_after_misses) {
      next = BackendHealth::kSuspect;  // unreachable, but lease still live
    } else if (st.misses == 0) {
      if (lease_lapsed) {
        // Reachable but unable to renew: one-way partition between the
        // backend and the membership service. Never a rebuild trigger.
        next = BackendHealth::kSuspect;
      } else if (median > 0.0 && st.ewma_ns > kSlowFactor * median) {
        next = BackendHealth::kSlow;
      } else {
        next = BackendHealth::kHealthy;
      }
    }
    // 0 < misses < suspect threshold: hold the previous verdict.

    if (next == st.health) continue;
    if (next == BackendHealth::kSuspect) ++stats_.suspect_transitions;
    if (next == BackendHealth::kSlow) ++stats_.slow_transitions;
    if (next == BackendHealth::kDead) {
      ++stats_.dead_transitions;
      st.detected_dead_at = now;
      detect_ns_.Record(now - (st.last_ok ? st.last_ok : started_at_));
    }
    if (next == BackendHealth::kHealthy &&
        st.health == BackendHealth::kDead) {
      // Came back without our help (e.g. operator restart while replacement
      // capacity was unavailable).
      st.detected_dead_at = 0;
      st.down_replicated = false;
      st.suppression_counted = false;
    }
    st.health = next;
  }

  // Correlated-failure roll-up: a failure domain whose every member reads
  // SUSPECT/DEAD is one DOMAIN_DOWN event, not N independent losses. Only
  // domains big enough for "all of them at once" to be signal (threshold)
  // are classified.
  std::map<std::string, std::pair<int, int>> domains;  // domain -> {members, bad}
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (s >= cell_.num_shards()) break;
    const std::string& d = cell_.backend(s).config().failure_domain;
    if (d.empty()) continue;
    auto& [members, bad] = domains[d];
    ++members;
    const BackendHealth h = shards_[s].health;
    if (h == BackendHealth::kSuspect || h == BackendHealth::kDead) ++bad;
  }
  for (const auto& [d, counts] : domains) {
    const bool down = counts.second == counts.first &&
                      counts.first >= kDomainDownThreshold;
    bool& was_down = domain_down_[d];
    if (down && !was_down) ++stats_.domain_down_events;
    if (!down && was_down) ++stats_.domain_down_cleared;
    was_down = down;
  }
}

void CellDoctor::MaybeRecover() {
  const sim::Time now = sim_.now();
  const uint32_t n = static_cast<uint32_t>(shards_.size());

  // Majority-dead brake: when most of the cell reads DEAD at once, the far
  // likelier explanation is that *we* are partitioned from it — mass
  // rebuilds here would shred a healthy cell. Hold all reconfiguration
  // until the verdict share drops below a majority. Only cells of >= 3
  // shards engage it, where "majority" means something.
  int dead = 0;
  for (const ShardState& st : shards_) {
    if (st.health == BackendHealth::kDead) ++dead;
  }
  if (n >= 3 && 2 * dead > static_cast<int>(n)) {
    if (!majority_hold_) {
      majority_hold_ = true;
      ++stats_.majority_dead_holds;
    }
    return;
  }
  majority_hold_ = false;

  // Gather the actionable dead shards, then heal the most exposed first:
  // a shard whose worst replica set is down to quorum-1 live members is one
  // more loss from unavailability, so it outranks shards with healthier
  // cohorts. The recovery budget (max_concurrent_recoveries) bounds the
  // blast radius of a mass failure — no replacement storms.
  struct Candidate {
    int worst_live;
    uint32_t shard;
  };
  std::vector<Candidate> queue;
  for (uint32_t s = 0; s < n; ++s) {
    ShardState& st = shards_[s];
    if (st.health != BackendHealth::kDead || st.recovering) continue;
    if (st.ever_recovered && now - st.last_recovery < options_.cooldown) {
      // Anti-flap: this shard was already rebuilt inside the cooldown
      // window. Count the episode once and wait it out.
      if (!st.suppression_counted) {
        st.suppression_counted = true;
        ++stats_.flap_suppressed;
      }
      continue;
    }
    if (!options_.allow_replacement) {
      // No spare capacity: the surviving cohort keeps serving quorum reads
      // at reduced redundancy; replacement retries when capacity returns.
      if (!st.down_replicated) {
        st.down_replicated = true;
        ++stats_.down_replications;
      }
      continue;
    }
    // Worst-case live count over every replica set containing this shard.
    const int r = ReplicaCount(cell_.config_service().view().mode);
    int worst = std::numeric_limits<int>::max();
    for (int i = 0; i < r; ++i) {
      const uint32_t p = (s + n - static_cast<uint32_t>(i)) % n;
      int live = 0;
      for (int j = 0; j < r; ++j) {
        const uint32_t m = ReplicaShard(p, j, n);
        if (shards_[m].health != BackendHealth::kDead) ++live;
      }
      worst = std::min(worst, live);
    }
    queue.push_back({worst, s});
  }
  std::sort(queue.begin(), queue.end(), [](const Candidate& a,
                                           const Candidate& b) {
    return a.worst_live != b.worst_live ? a.worst_live < b.worst_live
                                        : a.shard < b.shard;
  });

  for (const Candidate& c : queue) {
    if (active_recoveries_ >= options_.max_concurrent_recoveries) {
      ++stats_.recoveries_deferred;
      continue;  // stays DEAD; re-queued next tick with a fresh ordering
    }
    ShardState& st = shards_[c.shard];
    st.recovering = true;
    st.suppression_counted = false;
    st.down_replicated = false;
    st.last_recovery = now;
    st.ever_recovered = true;
    ++active_recoveries_;
    ++stats_.recoveries_started;
    sim_.Spawn(Recover(c.shard, alive_));
  }
}

sim::Task<void> CellDoctor::Recover(uint32_t shard,
                                    std::shared_ptr<bool> alive) {
  RecoveryRecord rec;
  rec.shard = shard;
  rec.last_ok = shards_[shard].last_ok;
  rec.detected_at = shards_[shard].detected_dead_at;

  // One resharder per cell: admissions beyond the first (budget > 1, or an
  // operator-driven reconfiguration already in flight) wait their turn here
  // instead of bouncing off FailedPrecondition, burning their cooldown, and
  // flapping — the replacement-storm fix.
  while (*alive && resharder_.in_progress()) {
    co_await sim_.Delay(options_.probe_interval);
  }
  if (!*alive) co_return;

  Status s = co_await resharder_.ReplaceBackend(shard);
  if (!*alive) co_return;

  --active_recoveries_;
  ShardState& st = shards_[shard];
  st.recovering = false;
  if (s.ok()) {
    ++stats_.recoveries_succeeded;
    rec.converged_at = sim_.now();
    rec.ok = true;
    mttr_ns_.Record(sim_.now() - rec.detected_at);
    // The replacement backend joins the membership plane.
    cell_.backend(shard).StartHeartbeats(options_.heartbeat_interval);
    st.health = BackendHealth::kHealthy;
    st.misses = 0;
    st.ewma_ns = 0.0;
    st.last_ok = sim_.now();
    st.detected_dead_at = 0;
    st.down_replicated = false;
  } else {
    // Still dead; MaybeRecover retries after the cooldown.
    ++stats_.recoveries_failed;
  }
  recoveries_.push_back(rec);
}

}  // namespace cm::cliquemap
