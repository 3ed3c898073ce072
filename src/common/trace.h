// Deterministic per-op trace spans over sim time.
//
// A span is a named [start, end] interval with a parent link, an actor (host
// id), and one op-specific argument. The layers thread span ids explicitly —
// there is no implicit "current span" because coroutines interleave across
// co_await points in the single-threaded simulator — producing trees like:
//
//   get                         (client root)
//   ├─ quorum_fetch[r]          (one per replica)
//   │  └─ rma_read / rma_scar   (transport op)
//   │     ├─ fabric_tx          (serialization + propagation at src)
//   │     └─ fabric_rx          (delivery at dst)
//   └─ validate                 (client-side hit conditions)
//
//   multiget                    (client root, batched pipeline)
//   └─ rma_readv / rma_scarv    (one vectored op per backend and phase)
//
// Transport ops end with the payload bytes they delivered as the argument,
// or -1 when they failed. SoftNIC's two-sided `rma_msg` (the MSG lookup
// strategy of Fig 7) ends with the response size.
//
// Determinism: completed spans fold into a rolling FNV-1a fingerprint (the
// same construction as net::FaultPlan's fault fingerprint), so two runs with
// the same seed must produce bit-identical fingerprints — chaos tests assert
// exactly that. The tracer only *observes* (it never advances sim time or
// charges CPU), so enabling it cannot perturb the run it is tracing.
//
// Bounding: completed spans land in a fixed-capacity ring buffer (oldest
// evicted); the fingerprint and counters cover every span regardless of
// eviction. Root sampling (SetSampleEvery) drops whole trees cheaply:
// unsampled roots return kNoSpan and children inherit the drop by passing
// the parent id through.
//
// Disabled (the default), Begin*() is a single branch returning kNoSpan and
// every other call is a no-op on kNoSpan — near-zero overhead.
#ifndef CM_COMMON_TRACE_H_
#define CM_COMMON_TRACE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cm::trace {

using SpanId = uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  const char* name = "";  // call sites pass string literals
  int64_t start = 0;      // sim-time ns
  int64_t end = 0;
  uint32_t actor = 0;     // typically the acting HostId
  int64_t arg = 0;        // op-specific (bytes, replica index, ...)
};

class Tracer {
 public:
  // Time source (the owning Fabric installs the simulator's clock). Spans
  // started before a clock is set get timestamp 0.
  using Clock = std::function<int64_t()>;
  void SetClock(Clock clock) { clock_ = std::move(clock); }

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  // Keep 1-in-k root spans (and their subtrees); k=1 keeps everything.
  void SetSampleEvery(uint32_t k) { sample_every_ = k == 0 ? 1 : k; }
  void SetRingCapacity(size_t cap);

  // Starts a root span; kNoSpan when disabled or sampled out.
  SpanId BeginRoot(const char* name, uint32_t actor = 0);
  // Starts a child; kNoSpan when disabled or the parent was dropped.
  SpanId Begin(const char* name, SpanId parent, uint32_t actor = 0);
  // Completes a span (no-op on kNoSpan or an already-completed id).
  void End(SpanId id, int64_t arg = 0);
  // Records an already-timed span (fabric tx/rx segments measured inside a
  // transfer). No-op when the parent was dropped.
  void AddSpan(const char* name, SpanId parent, int64_t start, int64_t end,
               uint32_t actor = 0, int64_t arg = 0);

  // Rolling fingerprint over every completed span, in completion order.
  uint64_t fingerprint() const { return fingerprint_; }
  int64_t spans_completed() const { return completed_; }
  int64_t roots_started() const { return roots_; }

  // Ring contents, oldest first.
  std::vector<Span> Completed() const;
  // Human-readable dump of (up to max) ring spans, indented by depth.
  std::string Dump(size_t max = 64) const;

  // Drops all spans and restarts the fingerprint; keeps configuration.
  void Reset();

 private:
  void Complete(const Span& s);

  bool enabled_ = false;
  uint32_t sample_every_ = 1;
  Clock clock_;

  SpanId next_id_ = 1;
  uint64_t root_seq_ = 0;
  int64_t roots_ = 0;
  int64_t completed_ = 0;
  uint64_t fingerprint_ = 1469598103934665603ull;  // FNV-1a offset basis

  std::unordered_map<SpanId, Span> open_;
  std::vector<Span> ring_;
  size_t ring_cap_ = 4096;
  size_t ring_next_ = 0;
  bool ring_wrapped_ = false;
};

// RAII closer: ends the span (with the tracer's clock time) when destroyed,
// including on early co_return paths of a coroutine frame. Safe on kNoSpan.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanId id) : tracer_(&tracer), id_(id) {}
  ~ScopedSpan() { tracer_->End(id_, arg_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanId id() const { return id_; }
  void set_arg(int64_t arg) { arg_ = arg; }

 private:
  Tracer* tracer_;
  SpanId id_;
  int64_t arg_ = 0;
};

}  // namespace cm::trace

#endif  // CM_COMMON_TRACE_H_
