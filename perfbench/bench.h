// The repo benchmark: open-loop cache workloads against a full Cell,
// measured on two clocks (simulated time from the cost models, wall time
// from the C++ itself), with per-layer attribution taken from outside the
// library through public calls only.
#ifndef CM_PERFBENCH_BENCH_H_
#define CM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cliquemap/cell.h"
#include "common/metrics.h"
#include "workload/workload.h"

namespace cmb {

using cm::sim::Duration;
using cm::sim::Time;

// One named traffic mix and the cell it runs against.
struct Workload {
  std::string name;  // BENCHMARK.json says why each workload exists
  cm::cliquemap::TransportKind transport;
  cm::cliquemap::ReplicationMode mode;
  uint32_t shards;
  uint64_t data_max_bytes;
  uint64_t data_initial_bytes;
  uint64_t initial_buckets;
  uint64_t slab_bytes;
  uint64_t num_keys;
  // Keys k with k % absent_every == 0 are not preloaded: reads of them miss
  // until a write creates them (0 = preload every key).
  uint32_t absent_every;
  double zipf_theta;
  cm::workload::SizeDistribution sizes;
  cm::workload::BatchDistribution batches;
  // Per-client open-loop rates (ops/s; a MultiGet is one op). Clients whose
  // get_fraction is 0 are pure writers.
  std::vector<double> client_qps;
  std::vector<double> client_get_fraction;
  Duration loccache_ttl;
  // Sim length of the nominal-rate phase whose metrics are reported.
  Duration nominal;
  // Sim length of the warm-up charged to set-up.
  Duration warmup;
  // Sim length of each SLO-ladder rung, and the rate multipliers above the
  // nominal rate that the ladder climbs (the nominal phase is rung x1).
  Duration rung;
  std::vector<double> ladder;
  // get_p99_us limit that a ladder rung must meet.
  double latency_limit_us;
  // Writes rewrite a key's preloaded bytes (content is read-only).
  bool refresh_only_writes;
  // Root-span sampling of the traced run (1 in k client calls).
  uint32_t trace_sample_every;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// Everything one phase of open-loop traffic measured.
struct PhaseStats {
  std::vector<int64_t> get_ns;  // per GET op, from scheduled arrival
  std::vector<int64_t> set_ns;
  int64_t ops_attempted = 0;
  int64_t ops_failed = 0;  // errors, deadlines, sheds and wrong values
  int64_t shed = 0;
  int64_t wrong = 0;
  // GET keys that missed after a completed write of them, and the GET ops
  // (not otherwise failed) they belong to; wrong values and failed ops when
  // the cell has evicted nothing.
  int64_t lost_keys = 0;
  int64_t lost_ops = 0;
  int64_t get_keys = 0;
  int64_t get_found = 0;
  int64_t set_keys = 0;
  // Ladder rungs: GETs over the latency limit, and whether the rung was cut
  // short because it could no longer pass.
  int64_t over_limit = 0;
  bool aborted = false;
  uint64_t events = 0;
  double wall_s = 0;
  // Wall seconds the simulator took for each 50 us slice of sim time
  // (phases run with measure_slices only).
  std::vector<double> slice_wall_s;
  // Registry at the phase's start and end, and the counter delta between.
  cm::metrics::Snapshot before, after, delta;
  int64_t bytes_copied = 0;             // buffer-layer copies (process-wide)

  int64_t kv() const { return get_keys + set_keys; }
};

class Probe;

// One deployed cell, its clients, and the write log every read is checked
// against.
class Rig {
 public:
  Rig(const Workload& w, uint64_t seed, Probe* probe);
  ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  // Start + connect + preload + warm-up.
  void Setup();
  // Open-loop traffic at `rate_mult` x the nominal rates for `duration` of
  // sim time, then a drain. `stream` picks an independent arrival stream.
  // With a `limit_ns`, arrivals stop once the phase has failed an op or put
  // more than 1% of its planned GETs over the limit.
  PhaseStats RunPhase(double rate_mult, Duration duration, uint64_t stream,
                      bool measure_slices, int64_t limit_ns = 0);

  cm::cliquemap::Cell& cell() { return *cell_; }

  struct Op;
  struct Shared;

 private:
  const Workload& w_;
  uint64_t seed_;
  Probe* probe_;
  std::unique_ptr<cm::sim::Simulator> sim_;
  std::unique_ptr<cm::cliquemap::Cell> cell_;
  std::vector<std::unique_ptr<cm::cliquemap::Client>> clients_;
  std::unique_ptr<Shared> shared_;
  std::vector<uint32_t> batch_pool_;
};

// Mean of the middle half (25th-75th percentile) of the samples.
double InterquartileMean(std::vector<int64_t> v);

// Exact percentile of raw samples (nearest-rank); 0 when empty.
double Percentile(std::vector<int64_t> v, double q);

}  // namespace cmb

#endif  // CM_PERFBENCH_BENCH_H_
