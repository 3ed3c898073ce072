// Deterministic fault injection for the fabric and everything above it.
//
// CliqueMap's productionization story (§4–§5) is carried by client-side
// validation/retry, quorum degradation, and en-masse repair. Those paths
// are only load-bearing if failures actually occur, so a `FaultPlan`
// attached to the Fabric injects them on purpose: message loss, payload
// bit-flips (backend-memory/DMA corruption that must be caught by the
// client's end-to-end checksum, §5.1), duplication, delay spikes,
// asymmetric partitions with a scheduled heal, host pauses (a GC-like
// stall of CPU + NIC), and a crash/restart schedule consumed by the chaos
// harness.
//
// Determinism: every probabilistic decision draws from one seeded Rng, and
// the simulator is single-threaded, so a (code, seed) pair replays the
// identical fault sequence. Each injected fault is appended to an event
// trace (bounded log + rolling fingerprint) so a failing chaos seed can be
// diagnosed from its log and a re-run can be checked for identity.
//
// Where each fault surfaces (the "never silent success" rule):
//  * RMA command or completion lost/corrupted -> the op times out after the
//    transport's op_timeout (NIC-level CRC drops corrupted frames).
//  * RMA read/SCAR *payload* corrupted -> a bit flips in the delivered copy;
//    only the client's checksum/key/version validation stands between that
//    and a wrong-value GET.
//  * RPC request/response lost or corrupted -> the call burns its deadline
//    (transport checksums reject corrupted frames; nothing is delivered).
//  * Partitioned RPC -> connect timeout, surfaced as UNAVAILABLE, which
//    feeds the client's replica backoff ("await reconnect", §7.2.3).
//  * Host pause -> traffic into/out of the host stalls until the pause ends.
#ifndef CM_NET_FAULTS_H_
#define CM_NET_FAULTS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "sim/time.h"

namespace cm::net {

using HostId = uint32_t;  // mirrors fabric.h (no include cycle)

// Per-message fault probabilities for one link/host/plan scope.
struct LinkFaultRates {
  double drop = 0;       // P(message silently lost in the fabric)
  double corrupt = 0;    // P(payload bit flip / CRC-dropped frame)
  double duplicate = 0;  // P(message delivered twice)
  double delay = 0;      // P(delay spike)
  sim::Duration delay_mean = sim::Microseconds(50);  // exp-distributed spike
};

// Outcome of one message's roll against the plan.
struct MessageFate {
  bool delivered = true;    // false: dropped or partition-blocked
  bool corrupt = false;     // payload bit flip (only when delivered)
  bool duplicate = false;   // delivered twice (extra wire bytes both sides)
  bool partitioned = false; // when !delivered: blocked by a partition rule
  sim::Duration extra_delay = 0;
};

// Fault-injection counters, exported as cm.faults.<field>.
#define CM_FAULT_STATS(X)                                         \
  X(messages)          /* rolls performed */                      \
  X(drops)                                                        \
  X(corruptions)                                                  \
  X(duplicates)                                                   \
  X(delays)                                                       \
  X(partition_blocks)  /* messages blocked by a partition rule */ \
  X(pause_stalls)      /* transfers stalled by a host pause */

struct FaultStats {
  CM_METRICS_COUNTERS(FaultStats, CM_FAULT_STATS)
};

// A scheduled backend crash/restart; the plan only records the schedule —
// the chaos harness maps shards to backends and performs the restarts.
struct CrashEvent {
  uint32_t shard = 0;
  sim::Time at = 0;
  sim::Duration downtime = 0;
};

// A scheduled correlated failure: every shard in one failure domain goes
// down at once (rack power event, ToR switch death). Like CrashEvent the
// plan only records the schedule; the chaos harness maps the domain to
// backends and performs the crashes (or, with `partition` set, severs the
// hosts instead of killing them).
struct DomainOutageEvent {
  std::string domain;           // label, for logs/metrics
  std::vector<uint32_t> shards; // every shard slot in the domain at schedule time
  sim::Time at = 0;
  sim::Duration downtime = 0;   // 0 = no scheduled restart
  bool partition = false;       // sever instead of crash (observer-side view)
};

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed);

  uint64_t seed() const { return seed_; }

  // Rate configuration. Precedence per message: exact (src,dst) link rule,
  // else per-host rules (field-wise max over src and dst), else defaults.
  void SetDefaultRates(const LinkFaultRates& rates) { default_rates_ = rates; }
  const LinkFaultRates& default_rates() const { return default_rates_; }
  void SetHostRates(HostId host, const LinkFaultRates& rates);
  void SetLinkRates(HostId src, HostId dst, const LinkFaultRates& rates);

  // Asymmetric partition: messages src->dst are blocked for
  // now in [from, heal). The reverse direction is unaffected.
  void AddPartition(HostId src, HostId dst, sim::Time from, sim::Time heal);
  void AddSymmetricPartition(HostId a, HostId b, sim::Time from,
                             sim::Time heal);

  // GC-like stall: the host's NIC stops moving bytes for the window; CPU
  // work behind those messages stalls with it.
  void AddHostPause(HostId host, sim::Time from, sim::Duration length);

  // Crash/restart schedule (consumed by the chaos harness).
  void ScheduleCrash(uint32_t shard, sim::Time at, sim::Duration downtime);
  const std::vector<CrashEvent>& crash_schedule() const {
    return crash_schedule_;
  }
  // Domain-outage schedule (consumed by the chaos harness, same contract
  // as the crash schedule).
  void ScheduleDomainOutage(DomainOutageEvent ev) {
    domain_outage_schedule_.push_back(std::move(ev));
  }
  const std::vector<DomainOutageEvent>& domain_outage_schedule() const {
    return domain_outage_schedule_;
  }

  // Probabilistic faults fire only while now is in [from, until); until = 0
  // means "no end". Partitions and pauses follow their own windows.
  void SetActiveWindow(sim::Time from, sim::Time until);

  // Queries -----------------------------------------------------------
  bool PartitionedAt(sim::Time now, HostId src, HostId dst) const;
  // Returns the time the host's current pause ends (== now if not paused).
  sim::Time PausedUntil(sim::Time now, HostId host) const;
  // Called by the fabric when a transfer actually stalled on a pause.
  void NotePauseStall(sim::Time now, HostId host);

  // Rolls the dice for one src->dst message. Records injected faults in
  // the trace. Partition rules win over probabilistic delivery.
  MessageFate Roll(sim::Time now, HostId src, HostId dst);

  // Flips one uniformly-chosen bit of `payload` (no-op when empty).
  void CorruptBytes(Bytes& payload);
  // Copy-on-write variant for shared payload views: returns a corrupted
  // private copy, leaving other holders of the same buffer (retries,
  // duplicate deliveries) with the pristine bytes. Draws exactly the same
  // single rng value as CorruptBytes, so fault traces are unchanged.
  BufferView CorruptCow(BufferView payload);

  // Observability ------------------------------------------------------
  const FaultStats& stats() const { return stats_; }
  // Rolling FNV-1a over every injected fault (time, kind, src, dst): two
  // runs of the same seed must produce identical fingerprints.
  uint64_t trace_fingerprint() const { return fingerprint_; }
  int64_t trace_events() const { return trace_events_; }
  // Bounded human-readable log of injected faults (diagnosing a failing
  // chaos seed from its output).
  const std::vector<std::string>& trace() const { return trace_; }
  std::string Summary() const;

  // Exports FaultStats and the trace fingerprint into `registry` under
  // cm.faults.* (nullptr unbinds). The Fabric calls this on InstallFaults
  // and unbinds in its destructor, so the registry reference never dangles
  // regardless of plan/fabric destruction order.
  void BindMetrics(metrics::Registry* registry);

 private:
  struct Partition {
    HostId src, dst;
    sim::Time from, heal;
  };
  struct Pause {
    HostId host;
    sim::Time from, until;
  };

  const LinkFaultRates& RatesFor(HostId src, HostId dst,
                                 LinkFaultRates& scratch) const;
  void Record(sim::Time now, char kind, HostId src, HostId dst);

  uint64_t seed_;
  Rng rng_;
  LinkFaultRates default_rates_;
  std::unordered_map<HostId, LinkFaultRates> host_rates_;
  std::unordered_map<uint64_t, LinkFaultRates> link_rates_;  // src<<32|dst
  std::vector<Partition> partitions_;
  std::vector<Pause> pauses_;
  std::vector<CrashEvent> crash_schedule_;
  std::vector<DomainOutageEvent> domain_outage_schedule_;
  sim::Time active_from_ = 0;
  sim::Time active_until_ = 0;  // 0 = no end

  FaultStats stats_;
  uint64_t fingerprint_ = 1469598103934665603ull;  // FNV-1a offset basis
  int64_t trace_events_ = 0;
  std::vector<std::string> trace_;
  metrics::ExportGroup exports_;
};

}  // namespace cm::net

#endif  // CM_NET_FAULTS_H_
