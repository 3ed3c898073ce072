// Per-layer attribution for the traced run, taken from outside the library:
//  * a decorator over the public rma::RmaTransport interface (op counts,
//    sim latency, a child span per transport call, delivered DataEntries);
//  * a counting wrapper passed as the cell's HashFn;
//  * a timing wrapper re-installed around every backend's ScarExecutor;
//  * the cell tracer's span tree (client roots, rpc and fabric spans);
//  * replays of public functions (HashKey, ComputeCrc32c, LocationCache)
//    over the run's actual inputs, timed on the wall clock.
// Task resumes by symmetric transfer, so none of this adds simulator events:
// a traced run's sim-time results equal the untraced run's bit for bit.
#ifndef CM_PERFBENCH_LAYERS_H_
#define CM_PERFBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"

namespace cmb {

class TracingTransport;

class Probe {
 public:
  explicit Probe(const Workload& w);
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  cm::HashFn hash_fn() const;
  // Wraps the cell's transport and every backend's SCAR executor; the
  // returned transport is what the rig's clients are built with.
  cm::rma::RmaTransport* Attach(cm::cliquemap::Cell& cell);

  // Recording is gated to the measured phase.
  void BeginMeasure(cm::cliquemap::Cell& cell);
  void EndMeasure(cm::cliquemap::Cell& cell);

  // Inputs the rig generates.
  void NoteGetKey(const std::string& key, Time now);
  void NoteWrite(size_t key_len, size_t value_len, int replicas);

  // Per-layer metrics of the traced phase; `untraced` is the same phase run
  // without probes (for wall-clock ratios and the tracing overhead).
  std::map<std::string, double> LayerMetrics(const PhaseStats& traced,
                                             const PhaseStats& untraced,
                                             cm::cliquemap::Cell& cell);

 private:
  struct ScarTiming {
    int64_t calls = 0;
    int64_t wall_ns = 0;
  };

  const Workload& w_;
  bool measuring_ = false;
  std::unique_ptr<TracingTransport> transport_;
  std::shared_ptr<ScarTiming> scar_;
  std::vector<cm::trace::Span> spans_;  // tracer spans of the measured phase
  std::vector<std::pair<cm::Hash128, Time>> get_keys_;
  std::vector<uint32_t> written_entries_;  // DataEntry bytes, per replica
};

}  // namespace cmb

#endif  // CM_PERFBENCH_LAYERS_H_
