// Online reconfiguration engine (§4.1 reshaping, §6.1 maintenance).
//
// Production CliqueMap cells change shape continuously — capacity grows and
// shrinks, backends are replaced, replication modes change — while clients
// keep serving. The resharder drives every such change through a
// ConfigService *dual-version window*:
//
//   1. BeginTransition installs the next topology with the previous one
//      preserved (prev_*) and bumps the cell generation. Because mutations
//      are generation-stamped and the simulator is single-threaded, no
//      write addressed under the old topology can be acked after this
//      point — the fence that makes the subsequent record sweep lossless.
//   2. Retiring backends drain: reads keep being served, writes bounce.
//   3. Records stream placement-filtered from old owners to new owners via
//      InstallBulk (version monotonicity + keyed tombstones make the sweep
//      convergent even against concurrent new-generation writes).
//   4. A quorum-read + repair pass seeds replicas the stream cannot (e.g.
//      up-replication, which adds copies without moving primaries).
//   5. CommitTransition closes the window; continuing shards whose
//      ownership changed get fresh config ids (forcing lagging clients to
//      refresh), then GC drops records the new placement no longer maps
//      here, and retirees are stopped after a linger for stale readers.
//
// Clients ride through because reads consult the previous owners whenever
// the new ones miss during the window (Client::PrevWindowGet), and writes
// bounced by the generation fence retry against the refreshed view.
#ifndef CM_CLIQUEMAP_RESHARDER_H_
#define CM_CLIQUEMAP_RESHARDER_H_

#include <vector>

#include "cliquemap/cell.h"
#include "cliquemap/config_service.h"
#include "cliquemap/types.h"

namespace cm::cliquemap {

struct ResharderOptions {
  // Record streaming.
  size_t batch_bytes = kBulkBatchBytes;
  // How long retirees keep answering dual-version reads after commit, so
  // clients holding the window view drain off them gracefully.
  sim::Duration release_linger = sim::Milliseconds(100);
};

struct ResharderStats {
  int64_t transitions_started = 0;
  int64_t transitions_committed = 0;
  int64_t backends_added = 0;
  int64_t backends_retired = 0;
  int64_t records_streamed = 0;
  int64_t bytes_streamed = 0;
  int64_t batches_sent = 0;
  int64_t batch_retries = 0;
  int64_t repair_passes = 0;
  int64_t entries_dropped = 0;
  // Domain-spread rebalancing: passes committed and slots they moved.
  int64_t domain_rebalances = 0;
  int64_t domain_slots_moved = 0;
};

class Resharder {
 public:
  explicit Resharder(Cell& cell, ResharderOptions options = {})
      : cell_(cell), options_(options) {}

  Resharder(const Resharder&) = delete;
  Resharder& operator=(const Resharder&) = delete;

  // Shard split/merge: grows or shrinks the cell to `new_num_shards`
  // backends, re-placing every record under the new shard count. New
  // backends (grow) use `config_override` when non-null; shrink retires
  // the tail slots after draining them.
  sim::Task<Status> Resize(uint32_t new_num_shards,
                           const BackendConfig* config_override = nullptr);

  // Up-/down-replication (e.g. R=1 -> R=3.2 and back). New replicas are
  // seeded by a quorum-read + repair pass; down-replication consolidates
  // onto the surviving copies *before* the window opens, then GCs the rest.
  sim::Task<Status> SetReplication(ReplicationMode mode);

  // Zero-downtime backend replacement: a fresh backend takes over `shard`
  // (records streamed from the incumbent), the incumbent drains and stops.
  sim::Task<Status> ReplaceBackend(
      uint32_t shard, const BackendConfig* config_override = nullptr);

  // Failure-domain spread repair: permutes which backend serves which shard
  // slot so that every replica set spans as many distinct failure domains as
  // the cell allows, then streams records through the standard dual-version
  // window (no capacity change, no restarts). No-op when domains are
  // unconfigured or placement is already spread; FailedPrecondition when a
  // violation exists but no improving permutation was found.
  sim::Task<Status> RebalanceDomains();

  bool in_progress() const { return in_progress_; }
  const ResharderStats& stats() const { return stats_; }

 private:
  // A fully-specified topology change, executed by Run().
  struct Transition {
    CellView next;                      // target topology (no prev_* yet)
    std::vector<Backend*> sources;      // old-topology holders to stream from
    std::vector<Backend*> retiring;     // drain during window, stop after
    std::vector<Backend*> continuing;   // serve in both topologies
    std::vector<uint32_t> dest_shards;  // shards whose contents must stream
    bool stream_records = false;
    bool post_repair = false;  // seed/converge under the window view
    // Ownership changed for continuing shards: mint fresh config ids at
    // commit (lagging clients hard-fail into a refresh) and GC non-owned
    // records after.
    bool bump_and_gc = false;
  };

  sim::Task<Status> Run(Transition t);
  // Streams `src`'s records to every dest shard in `dest_shards` whose new
  // owner is a different host, filtered by new-topology placement.
  sim::Task<Status> StreamFrom(Backend* src, const Transition& t);
  sim::Task<Status> SendBatch(net::HostId from, net::HostId to, Bytes batch);

  Cell& cell_;
  ResharderOptions options_;
  bool in_progress_ = false;
  ResharderStats stats_;
};

}  // namespace cm::cliquemap

#endif  // CM_CLIQUEMAP_RESHARDER_H_
