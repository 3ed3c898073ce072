// Process-wide metrics registry: named counters, gauges, and Histograms with
// label sets, snapshot/delta/merge, and stable text + JSON exporters.
//
// Two registration styles, one namespace of metrics:
//
//  * Registry-owned instruments (AddCounter/AddGauge/AddHistogram) hand back
//    a pre-resolved handle; the hot path is a single pointer-chase
//    (`c->Inc()`), never a name lookup.
//  * Exported slots (ExportCounter/ExportGauge/ExportHistogram) bind an
//    *existing* `int64_t` field, callback, or `cm::Histogram` into the
//    registry under a name. The struct field stays the storage —
//    `++stats_.gets` IS the pre-resolved handle — and the registry only
//    reads it at snapshot time. No parallel recording system.
//
// The component stats structs (ClientStats, BackendStats, RmaStats, ...)
// declare their counters once, in a field table (CM_METRICS_COUNTERS below)
// that generates the fields, their exports and their field-wise sum.
//
// Components bundle their exports in an ExportGroup so destruction
// deregisters everything they published (clients and backends die before the
// Fabric that owns the registry, so the reads are always safe). Rebinding a
// name (e.g. a replacement FaultPlan) is an overwrite; removal is
// owner-checked so a stale group cannot tear down its successor's entries.
//
// Naming scheme (see DESIGN.md "Observability"):
//   cm.<component>.<metric>{label=value,...}   e.g. cm.client.gets{host=4}
#ifndef CM_COMMON_METRICS_H_
#define CM_COMMON_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"

namespace cm::metrics {

enum class Kind { kCounter, kGauge, kHistogram };

// Label set, rendered sorted-by-key into the metric name:
// "cm.rma.reads" + {{"transport","softnic"}} -> "cm.rma.reads{transport=softnic}"
using Labels = std::vector<std::pair<std::string, std::string>>;
std::string RenderName(std::string_view base, const Labels& labels);

// Registry-owned monotonic counter.
class Counter {
 public:
  void Inc() { ++v_; }
  void Add(int64_t n) { v_ += n; }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

// Registry-owned point-in-time value.
class Gauge {
 public:
  void Set(int64_t v) { v_ = v; }
  void Add(int64_t n) { v_ += n; }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

// Point-in-time copy of every registered metric. Counters/gauges flatten to
// int64; histograms are copied whole so deltas keep full percentile shape.
struct Snapshot {
  static constexpr std::string_view kSchema = "cm.metrics.v1";

  struct Metric {
    Kind kind = Kind::kCounter;
    int64_t value = 0;  // counters and gauges
    Histogram hist;     // histograms only
  };

  std::map<std::string, Metric> metrics;

  bool Has(const std::string& name) const;
  // 0 / nullptr when absent. For histograms, value() returns the count.
  int64_t value(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;
  // Sum of `value` over all metrics whose name starts with `prefix`
  // (aggregating a labeled family, e.g. "cm.client.gets{").
  int64_t SumPrefix(const std::string& prefix) const;

  // this - earlier: counters and histograms subtract; gauges keep this
  // snapshot's (later) value. Metrics absent from `earlier` pass through.
  Snapshot DeltaFrom(const Snapshot& earlier) const;
  // Accumulate: counters/histograms add; gauges add too (merging is used to
  // aggregate across hosts/cells, where summing gauges is the useful thing).
  void MergeFrom(const Snapshot& other);

  // Stable exporters: one metric per line / one JSON member, sorted by name.
  std::string ToText() const;
  std::string ToJson() const;
  static std::optional<Snapshot> FromJson(std::string_view json);
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Registry-owned instruments. Calling again with the same rendered name
  // returns the same handle (handle reuse); a kind mismatch returns nullptr.
  // Handles stay valid for the life of the Registry.
  Counter* AddCounter(std::string_view name, const Labels& labels = {});
  Gauge* AddGauge(std::string_view name, const Labels& labels = {});
  Histogram* AddHistogram(std::string_view name, const Labels& labels = {});

  // Exported slots: the registry reads the given storage at snapshot time.
  // The storage must outlive the export (remove via owner / ExportGroup).
  // Re-exporting an existing name rebinds it to the new slot and owner.
  void ExportCounter(std::string_view name, const Labels& labels,
                     const int64_t* slot, uint64_t owner);
  void ExportGauge(std::string_view name, const Labels& labels,
                   std::function<int64_t()> fn, uint64_t owner);
  void ExportHistogram(std::string_view name, const Labels& labels,
                       const Histogram* hist, uint64_t owner);

  // Removes `name` only if it is still bound to `owner` (a rebound entry
  // belongs to its new owner and survives the old owner's teardown).
  void RemoveOwned(const std::string& name, uint64_t owner);

  // Fresh owner token for an ExportGroup.
  uint64_t NextOwner() { return ++owner_seq_; }

  size_t size() const { return entries_.size(); }
  Snapshot TakeSnapshot() const;

 private:
  struct Entry {
    Kind kind = Kind::kCounter;
    uint64_t owner = 0;  // 0 = registry-owned instrument
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    const int64_t* slot = nullptr;
    std::function<int64_t()> fn;
    const Histogram* ext_hist = nullptr;
  };

  Entry* Upsert(std::string_view name, const Labels& labels, Kind kind,
                uint64_t owner);

  std::map<std::string, Entry, std::less<>> entries_;
  uint64_t owner_seq_ = 0;
};

// RAII bundle of exported slots; destruction (or Clear) deregisters every
// name this group published. Constructed with a null registry it becomes a
// no-op, so components can run unregistered (unit tests, standalone use).
class ExportGroup {
 public:
  explicit ExportGroup(Registry* registry = nullptr);
  ~ExportGroup();
  ExportGroup(const ExportGroup&) = delete;
  ExportGroup& operator=(const ExportGroup&) = delete;

  // Binds this group to `registry` (idempotent teardown of any previous
  // binding). Passing nullptr just unbinds.
  void Bind(Registry* registry);

  void ExportCounter(std::string_view name, const Labels& labels,
                     const int64_t* slot);
  void ExportGauge(std::string_view name, const Labels& labels,
                   std::function<int64_t()> fn);
  void ExportHistogram(std::string_view name, const Labels& labels,
                       const Histogram* hist);

  void Clear();
  Registry* registry() const { return registry_; }

 private:
  Registry* registry_ = nullptr;
  uint64_t owner_ = 0;
  std::vector<std::string> names_;
};

// Counter field tables. A stats struct lists its counters once, as an
// X-macro table, one line per counter with its help text as a /* comment */:
//
//   #define CM_FOO_STATS(X) X(reads) /* ops issued */ X(bytes, "bytes.read")
//   struct FooStats {
//     CM_METRICS_COUNTERS(FooStats, CM_FOO_STATS)
//   };
//   ExportCounters(group, "cm.foo.", labels, stats);  // cm.foo.reads{...}
//
// X(field) names the metric <prefix><field>; X(field, "name") names it
// <prefix><name>; X(field, nullptr) leaves the export to the owner.
// CM_METRICS_COUNTERS expands the table into zero-initialised `int64_t`
// fields in table order, a field-wise `operator+=`, and ForEachCounter,
// which calls f(metric name or nullptr, &field) for each counter in order.
#define CM_METRICS_COUNTERS(Struct, TABLE)                        \
  TABLE(CM_METRICS_FIELD_)                                        \
  Struct& operator+=(const Struct& o) {                           \
    TABLE(CM_METRICS_ADD_)                                        \
    return *this;                                                 \
  }                                                               \
  template <typename F>                                           \
  void ForEachCounter(F&& f) const {                              \
    TABLE(CM_METRICS_VISIT_)                                      \
  }
#define CM_METRICS_FIELD_(field, ...) int64_t field = 0;
#define CM_METRICS_ADD_(field, ...) field += o.field;
#define CM_METRICS_VISIT_(field, ...) \
  f(CM_METRICS_FIRST_(__VA_ARGS__ __VA_OPT__(, ) #field), &field);
#define CM_METRICS_FIRST_(first, ...) first

// Exports every named counter of `stats` into `group` as <prefix><name>.
template <typename Stats>
void ExportCounters(ExportGroup& group, std::string_view prefix,
                    const Labels& labels, const Stats& stats) {
  stats.ForEachCounter([&](const char* name, const int64_t* slot) {
    if (name != nullptr) {
      group.ExportCounter(std::string(prefix) + name, labels, slot);
    }
  });
}

}  // namespace cm::metrics

#endif  // CM_COMMON_METRICS_H_
