// CellDoctor: the self-healing control plane (§5.4, §7.2.3).
//
// Production CliqueMap survives unplanned backend loss because clients
// quorum-read around the dead replica while repair re-converges state from
// healthy cohorts — but something has to *notice* the loss and *decide* to
// heal. The doctor closes that loop:
//
//   detection   A deadline/EWMA failure detector probes every backend
//               (CliqueMap.Ping) and combines probe outcomes with the
//               lease state held by the ConfigService:
//
//                 probes OK   lease live    -> HEALTHY (or SLOW by EWMA)
//                 probes OK   lease lapsed  -> SUSPECT (one-way partition:
//                                             reachable but fenced)
//                 probes miss lease live    -> SUSPECT (detector-side
//                                             partition; don't act yet)
//                 probes miss lease lapsed  -> DEAD
//
//               Requiring *both* signals before declaring death means a
//               one-way partition can never trigger a spurious rebuild.
//
//   membership  Backends heartbeat the ConfigService; leases grant/renew/
//               expire on sim time and every change bumps the membership
//               epoch. A backend that cannot renew self-fences its RMA
//               windows (Backend::FenceRma) — stale one-sided readers fail
//               fast with PERMISSION_DENIED instead of silently reading.
//
//   recovery    On DEAD, the doctor drives the existing Resharder
//               (ReplaceBackend: fresh backend, cohort-repair seeding)
//               with bounded concurrency and a per-shard cool-down so a
//               flapping backend cannot induce a reconfiguration storm.
//               When no replacement capacity exists (allow_replacement is
//               false) the cell stays *temporarily down-replicated* — the
//               remaining cohort members keep serving quorum reads — and
//               replacement is retried once capacity returns.
//
// The doctor is entirely opt-in: constructing and starting it adds probe
// and heartbeat traffic, so deployments that pin determinism fingerprints
// simply never start one.
#ifndef CM_CLIQUEMAP_DOCTOR_H_
#define CM_CLIQUEMAP_DOCTOR_H_

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cliquemap/cell.h"
#include "cliquemap/resharder.h"
#include "common/histogram.h"
#include "common/metrics.h"

namespace cm::cliquemap {

enum class BackendHealth { kHealthy, kSuspect, kDead, kSlow };

const char* BackendHealthName(BackendHealth h);

struct DoctorOptions {
  // Detection.
  sim::Duration probe_interval = sim::Milliseconds(10);
  sim::Duration probe_timeout = sim::Milliseconds(5);
  int suspect_after_misses = 2;
  int dead_after_misses = 5;

  // Membership.
  sim::Duration heartbeat_interval = sim::Milliseconds(20);
  sim::Duration lease_duration = sim::Milliseconds(100);

  // Recovery orchestration.
  // Models spare capacity: when false a dead shard is left temporarily
  // down-replicated (counted) instead of replaced.
  bool allow_replacement = true;
  sim::Duration cooldown = sim::Seconds(5);  // per-shard, anti-flap
  int max_concurrent_recoveries = 1;
};

// Doctor counters, exported as cm.doctor.<field>.
#define CM_DOCTOR_STATS(X)                                                  \
  X(probes)                                                                 \
  X(probe_failures)                                                         \
  X(leases_expired)                                                         \
  X(suspect_transitions)                                                    \
  X(dead_transitions)                                                       \
  X(slow_transitions)                                                       \
  X(recoveries_started)                                                     \
  X(recoveries_succeeded)                                                   \
  X(recoveries_failed)                                                      \
  X(flap_suppressed)      /* dead verdicts ignored inside a cooldown */     \
  X(down_replications)    /* dead shards left to the surviving cohort */    \
  X(domain_down_events)   /* whole failure domain lost (one per episode) */ \
  X(domain_down_cleared)                                                    \
  X(majority_dead_holds)  /* majority-brake engagements (per episode) */    \
  X(recoveries_deferred)  /* actionable shards queued behind budget */

struct DoctorStats {
  CM_METRICS_COUNTERS(DoctorStats, CM_DOCTOR_STATS)
};

// One automated recovery, for MTTR accounting: `last_ok` is the final
// successful probe before the failure, `detected_at` the DEAD verdict,
// `converged_at` the resharder commit (0 if the recovery failed).
struct RecoveryRecord {
  uint32_t shard = 0;
  sim::Time last_ok = 0;
  sim::Time detected_at = 0;
  sim::Time converged_at = 0;
  bool ok = false;
};

class CellDoctor {
 public:
  explicit CellDoctor(Cell& cell, DoctorOptions options = {});
  ~CellDoctor();

  CellDoctor(const CellDoctor&) = delete;
  CellDoctor& operator=(const CellDoctor&) = delete;

  // Configures the ConfigService lease duration, starts heartbeats on every
  // backend, and spawns the probe/orchestration loop.
  void Start();
  // Stops the loop and every heartbeat it started (so tests and benches can
  // drain the event queue).
  void Stop();
  bool running() const { return running_; }

  // Flips replacement capacity at runtime (capacity loss / return).
  void SetAllowReplacement(bool allowed) { options_.allow_replacement = allowed; }

  BackendHealth health(uint32_t shard) const;
  // Correlated-failure observability: is the majority-dead brake engaged /
  // is this failure domain currently classified DOMAIN_DOWN?
  bool majority_hold() const { return majority_hold_; }
  bool domain_down(const std::string& domain) const {
    auto it = domain_down_.find(domain);
    return it != domain_down_.end() && it->second;
  }
  const DoctorStats& stats() const { return stats_; }
  const std::vector<RecoveryRecord>& recoveries() const { return recoveries_; }
  const Resharder& resharder() const { return resharder_; }
  const Histogram& mttr_ns() const { return mttr_ns_; }
  const Histogram& detect_ns() const { return detect_ns_; }

 private:
  struct ShardState {
    BackendHealth health = BackendHealth::kHealthy;
    int misses = 0;
    double ewma_ns = 0;
    sim::Time last_ok = 0;
    sim::Time detected_dead_at = 0;
    sim::Time last_recovery = 0;
    bool ever_recovered = false;
    bool recovering = false;
    bool down_replicated = false;
    bool suppression_counted = false;  // one flap_suppressed per episode
  };

  sim::Task<void> ControlLoop(std::shared_ptr<bool> alive);
  sim::Task<void> ProbeShard(uint32_t shard, std::shared_ptr<bool> alive);
  void Classify();
  void MaybeRecover();
  sim::Task<void> Recover(uint32_t shard, std::shared_ptr<bool> alive);

  Cell& cell_;
  sim::Simulator& sim_;
  DoctorOptions options_;
  Resharder resharder_;
  bool running_ = false;
  int active_recoveries_ = 0;
  bool majority_hold_ = false;
  std::map<std::string, bool> domain_down_;
  bool domain_gauges_exported_ = false;
  sim::Time started_at_ = 0;
  std::vector<ShardState> shards_;
  std::vector<RecoveryRecord> recoveries_;
  DoctorStats stats_;
  Histogram mttr_ns_;    // DEAD verdict -> resharder commit
  Histogram detect_ns_;  // last good probe -> DEAD verdict
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  metrics::ExportGroup exports_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_DOCTOR_H_
