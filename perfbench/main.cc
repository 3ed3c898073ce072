// cmbench: runs one workload of the repo benchmark and prints its metrics.
//
//   cmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   cmbench --selftest
//
// --trace 0 reports the end-to-end metrics: sim-time latency, hit ratio, RMA
// ops and modelled CPU from a fixed-length nominal-rate phase (bit-identical
// per seed), the SLO rate from a ladder of offered rates, and wall-clock
// throughput, set-up time and peak RSS. --trace 1 runs the nominal phase
// twice, untraced and traced, checks that every sim-time metric agrees bit
// for bit, and reports the per-layer metrics of the traced run. The last
// line of output is one JSON object; perfbench/run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <unordered_map>

#include "bench.h"
#include "common/json.h"
#include "layers.h"

namespace cmb {
namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

// The end-to-end run sets up and runs the nominal phase at least this many
// times: setup_s is the median over them, kv_per_wall_s the fastest replay
// of each chunk of kChunkSlices 50 us sim slices (5 ms).
constexpr int kMinReplays = 3;
constexpr size_t kChunkSlices = 100;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// The sim-time end-to-end metrics of one phase (deterministic per seed).
Metrics SimMetrics(const PhaseStats& p) {
  Metrics m;
  m["get_p50_us"] = Percentile(p.get_ns, 0.50) / 1e3;
  m["get_p99_us"] = Percentile(p.get_ns, 0.99) / 1e3;
  m["get_p999_us"] = Percentile(p.get_ns, 0.999) / 1e3;
  m["set_p50_us"] = Percentile(p.set_ns, 0.50) / 1e3;
  m["get_iqm_us"] = InterquartileMean(p.get_ns) / 1e3;
  m["set_iqm_us"] = InterquartileMean(p.set_ns) / 1e3;
  m["set_p99_us"] = Percentile(p.set_ns, 0.99) / 1e3;
  m["get_hit_ratio"] = Ratio(double(p.get_found), double(p.get_keys));
  m["failed_frac"] = Ratio(double(p.ops_failed), double(p.ops_attempted));
  const auto& d = p.delta;
  m["rma_ops_per_get_key"] =
      Ratio(double(d.SumPrefix("cm.rma.reads") + d.SumPrefix("cm.rma.scars") +
                   d.SumPrefix("cm.rma.vector_reads") +
                   d.SumPrefix("cm.rma.vector_scars")),
            double(p.get_keys));
  // Host CPU is a gauge per host: sum each host's movement.
  int64_t cpu = 0;
  const std::string prefix = "cm.host.cpu_busy_ns";
  for (const auto& [name, metric] : p.after.metrics) {
    if (name.rfind(prefix, 0) == 0) cpu += metric.value - p.before.value(name);
  }
  cpu += d.SumPrefix("cm.rma.initiator_nic_ns") +
         d.SumPrefix("cm.rma.target_nic_ns");
  m["cpu_ns_per_kv"] = Ratio(double(cpu), double(p.kv()));
  m["get_samples"] = double(p.get_ns.size());
  m["set_samples"] = double(p.set_ns.size());
  m["sim_events"] = double(p.events);
  return m;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> notes;
};

void Emit(const Workload& wl, uint64_t seed, int trace, const Report& r) {
  cm::json::Writer w;
  w.BeginObject();
  w.Key("workload");
  w.String(wl.name);
  w.Key("latency_limit_us");
  w.Double(wl.latency_limit_us);
  w.Key("seed");
  w.UInt(seed);
  w.Key("trace");
  w.Int(trace);
  w.Key("correct");
  w.Bool(r.correct);
  w.Key("attempted");
  w.Int(r.attempted);
  w.Key("failed");
  w.Int(r.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [k, v] : r.metrics) {
    w.Key(k);
    w.Double(v);
  }
  w.EndObject();
  w.Key("notes");
  w.BeginArray();
  for (const auto& n : r.notes) w.String(n);
  w.EndArray();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

void PrintTable(const char* title, const Metrics& m) {
  std::printf("# %s\n", title);
  for (const auto& [k, v] : m) std::printf("#   %-36s %.6g\n", k.c_str(), v);
}

bool SameSim(const Metrics& a, const Metrics& b, std::string* diff) {
  for (const auto& [k, v] : a) {
    auto it = b.find(k);
    if (it == b.end() || std::memcmp(&v, &it->second, sizeof v) != 0) {
      *diff = k;
      return false;
    }
  }
  return a.size() == b.size();
}

// Wall seconds of the nominal phase with host interference filtered out.
// The replays run the same simulation, so each chunk of sim time is the same
// work in each; the fastest replay of every chunk is summed.
double QuietWallS(const std::vector<std::vector<double>>& replays) {
  size_t n = replays.front().size();
  for (const auto& r : replays) n = std::min(n, r.size());
  double total = 0;
  for (size_t i = 0; i < n; i += kChunkSlices) {
    double best = HUGE_VAL;
    for (const auto& r : replays) {
      double sum = 0;
      for (size_t k = i; k < std::min(n, i + kChunkSlices); ++k) sum += r[k];
      best = std::min(best, sum);
    }
    total += best;
  }
  return total;
}

// A fixed workload that does not touch the library: integer mixing, a
// dependent walk over a 32 MB table, and string-keyed hash map inserts and
// lookups with their allocations, the kinds of work the simulator does. It
// is timed beside every replay, so kv_per_ref can divide out how fast the
// shared host happens to be running the benchmark.
class Reference {
 public:
  Reference() : next_(size_t(1) << 23) {
    // Sattolo's shuffle: one cycle through every slot.
    for (size_t i = 0; i < next_.size(); ++i) next_[i] = uint32_t(i);
    uint64_t x = 0x5EED;
    for (size_t i = next_.size() - 1; i > 0; --i) {
      x = Mix(x);
      std::swap(next_[i], next_[x % i]);
    }
  }

  // Wall seconds of one pass.
  double RunS() {
    const auto t0 = Clock::now();
    uint64_t acc = 0, x = 1;
    for (int i = 0; i < 20'000'000; ++i) acc += Mix(x += 0x9E3779B97F4A7C15ull);
    uint32_t at = 0;
    for (int i = 0; i < 1'000'000; ++i) at = next_[at];
    acc += at;
    std::unordered_map<std::string, std::string> map;
    for (int i = 0; i < 50'000; ++i) {
      map.emplace("k/" + std::to_string(i * 7919), std::string(64 + i % 512, 'x'));
    }
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 50'000; ++i) {
        acc += map.find("k/" + std::to_string(i * 7919))->second.size();
      }
    }
    sink_ = acc;
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

 private:
  static uint64_t Mix(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::vector<uint32_t> next_;
  volatile uint64_t sink_ = 0;
};

// End-to-end run: set up and run the nominal phase at least kMinReplays
// times and until `seconds` of it have been measured, each replay followed
// by a pass of the reference workload, then climb the SLO ladder.
Report RunEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  Report r;
  std::unique_ptr<Rig> rig;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> replays;
  PhaseStats nominal;
  Metrics sim;
  std::unique_ptr<Reference> reference;
  double ref_s = HUGE_VAL;
  double measured = 0;
  while (replays.size() < size_t(kMinReplays) || measured < seconds) {
    rig.reset();
    rig = std::make_unique<Rig>(w, seed, nullptr);
    const auto t0 = Clock::now();
    rig->Setup();
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    PhaseStats p = rig->RunPhase(1.0, w.nominal, /*stream=*/1, true);
    measured += p.wall_s;
    replays.push_back(std::move(p.slice_wall_s));
    if (replays.size() == 1) {
      nominal = std::move(p);
      sim = SimMetrics(nominal);
      r.metrics = sim;
      // Read before later set-ups fragment the heap and the ladder's
      // overload rungs grow the buffers.
      r.metrics["peak_rss_mb"] = PeakRssMb();
      reference = std::make_unique<Reference>();
    } else {
      std::string diff;
      if (!SameSim(sim, SimMetrics(p), &diff)) {
        r.correct = false;
        r.notes.push_back("replay's sim-time metric differs: " + diff);
      }
      nominal.ops_attempted += p.ops_attempted;
      nominal.ops_failed += p.ops_failed;
      nominal.wrong += p.wrong;
    }
    ref_s = std::min(ref_s, reference->RunS());
  }
  const double kv_per_wall_s =
      Ratio(double(nominal.kv()), QuietWallS(replays));
  r.metrics["kv_per_wall_s"] = kv_per_wall_s;
  r.metrics["ref_s"] = ref_s;
  r.metrics["kv_per_ref"] = kv_per_wall_s * ref_s;
  r.metrics["setup_s"] = Median(setup_s);
  // SLO ladder: rung x1 is the nominal phase; each higher rung runs at a
  // multiple of the nominal rates and passes when no op failed and
  // get_p99_us met the workload's limit. The reported rate interpolates
  // (log p99 against log rate) where the limit falls between the last
  // passing rung and the first failing one, so it moves smoothly instead
  // of in whole rungs.
  const double limit = w.latency_limit_us;
  auto p99_us = [](const PhaseStats& p) {
    return Percentile(p.get_ns, 0.99) / 1e3;
  };
  auto passes = [&](const PhaseStats& p) {
    return p.ops_failed == 0 && !p.aborted && p99_us(p) <= limit;
  };
  double slo = 0, slo_rate = 0;
  if (passes(nominal)) {
    slo_rate = 1;
    double pass_p99 = p99_us(nominal);
    for (size_t i = 0; i < w.ladder.size(); ++i) {
      PhaseStats rung = rig->RunPhase(w.ladder[i], w.rung, 100 + i, false,
                                      int64_t(limit * 1e3));
      nominal.wrong += rung.wrong;
      const double p99 = p99_us(rung);
      const bool pass = passes(rung);
      std::printf("# ladder x%-4g p99=%9.1fus failed=%lld%s %s\n",
                  w.ladder[i], p99, static_cast<long long>(rung.ops_failed),
                  rung.aborted ? " (cut short)" : "", pass ? "pass" : "FAIL");
      if (!pass) {
        if (p99 > limit && pass_p99 > 0) {
          const double f = std::log(limit / pass_p99) / std::log(p99 / pass_p99);
          slo_rate *= std::pow(w.ladder[i] / slo_rate, f);
        }
        break;
      }
      slo_rate = w.ladder[i];
      pass_p99 = p99;
    }
    // Offered key rate at the interpolated multiple of the nominal rates.
    slo = slo_rate * Ratio(double(nominal.kv()), cm::sim::ToSeconds(w.nominal));
  }
  r.metrics["slo_kv_per_s"] = slo;
  r.metrics["slo_rate_mult"] = slo_rate;
  r.metrics["nominal_wall_s"] = nominal.wall_s;
  r.attempted = nominal.ops_attempted;
  r.failed = nominal.ops_failed;
  if (nominal.wrong != 0) {
    r.correct = false;
    r.notes.push_back("wrong values read");
  }
  return r;
}

// Traced run: the nominal phase untraced, then traced; the sim-time
// metrics must agree bit for bit.
Report RunTraced(const Workload& w, uint64_t seed, Metrics* untraced_sim) {
  Report r;
  PhaseStats untraced;
  {
    Rig rig(w, seed, nullptr);
    rig.Setup();
    untraced = rig.RunPhase(1.0, w.nominal, /*stream=*/1, true);
  }
  *untraced_sim = SimMetrics(untraced);
  Probe probe(w);
  Rig rig(w, seed, &probe);
  rig.Setup();
  probe.BeginMeasure(rig.cell());
  PhaseStats traced = rig.RunPhase(1.0, w.nominal, /*stream=*/1, true);
  probe.EndMeasure(rig.cell());
  const Metrics traced_sim = SimMetrics(traced);
  std::string diff;
  if (!SameSim(*untraced_sim, traced_sim, &diff)) {
    r.correct = false;
    r.notes.push_back("traced sim-time metric differs from untraced: " + diff);
  }
  r.metrics = probe.LayerMetrics(traced, untraced, rig.cell());
  r.attempted = traced.ops_attempted;
  r.failed = traced.ops_failed;
  if (traced.wrong != 0 || untraced.wrong != 0) {
    r.correct = false;
    r.notes.push_back("wrong values read");
  }
  return r;
}

// The per-layer metrics that must be nonzero on each workload, from
// metrics.json: every metric of a layer on the workloads it is heavy on
// ("all" = every workload), except those its zero_ok table lets be 0 there.
std::map<std::string, std::vector<std::string>> HeavyMetrics() {
  std::ifstream in(CMB_METRICS_JSON);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = cm::json::Parse(text.str());
  const cm::json::Value* layers = doc ? doc->Find("layers") : nullptr;
  const cm::json::Value* zero_ok = doc ? doc->Find("zero_ok") : nullptr;
  if (layers == nullptr || zero_ok == nullptr) {
    std::fprintf(stderr, "cmbench: cannot read %s\n", CMB_METRICS_JSON);
    std::exit(2);
  }
  auto may_be_zero = [&](const std::string& metric, const std::string& wl) {
    const cm::json::Value* z = zero_ok->Find(metric);
    const cm::json::Value* on = z ? z->Find("on") : nullptr;
    if (on == nullptr) return false;
    for (const auto& v : on->arr) {
      if (v.s == "all" || v.s == wl) return true;
    }
    return false;
  };
  std::map<std::string, std::vector<std::string>> heavy;
  for (const auto& [layer, spec] : layers->obj) {
    const std::string on = spec.GetString("heavy_on");
    const cm::json::Value* metrics = spec.Find("metrics");
    if (on.empty() || metrics == nullptr) continue;
    for (const Workload& w : Workloads()) {
      if (on != "all" && on != w.name) continue;
      for (const auto& m : metrics->arr) {
        if (!may_be_zero(m.s, w.name)) heavy[w.name].push_back(m.s);
      }
    }
  }
  return heavy;
}

// Small-size self-test: same-seed determinism, traced == untraced, and
// every per-layer metric that is heavy on a workload is nonzero there.
int SelfTest() {
  // Share of each workload's nominal phase the self-test runs.
  constexpr double kScale = 0.1;
  const auto heavy = HeavyMetrics();
  int failures = 0;
  for (const Workload& base : Workloads()) {
    Workload w = base;
    w.nominal = cm::sim::Duration(double(w.nominal) * kScale);
    const uint64_t seed = 7;
    Metrics first, second;
    Report traced = RunTraced(w, seed, &first);
    {
      Rig rig(w, seed, nullptr);
      rig.Setup();
      second = SimMetrics(rig.RunPhase(1.0, w.nominal, 1, false));
    }
    std::string diff;
    auto check = [&](bool ok, const std::string& what) {
      std::printf("%s %s: %s\n", ok ? "ok  " : "FAIL", w.name.c_str(),
                  what.c_str());
      if (!ok) ++failures;
    };
    check(SameSim(first, second, &diff),
          "same seed gives bit-identical sim metrics " + diff);
    check(traced.correct, "traced run agrees with untraced, no wrong values");
    check(first["failed_frac"] == 0, "no failed ops at the nominal rate");
    const auto it = heavy.find(w.name);
    check(it != heavy.end(), "metrics.json lists metrics heavy here");
    if (it == heavy.end()) continue;
    for (const auto& name : it->second) {
      const auto m = traced.metrics.find(name);
      check(m != traced.metrics.end() && m->second > 0, name + " is nonzero");
    }
  }
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace cmb

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::atof(next().c_str());
    } else if (a == "--trace") {
      trace = std::atoi(next().c_str());
    } else if (a == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (selftest) return cmb::SelfTest();
  const cmb::Workload* w = cmb::FindWorkload(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  cmb::Report r;
  if (trace) {
    cmb::Metrics untraced_sim;
    r = cmb::RunTraced(*w, seed, &untraced_sim);
    cmb::PrintTable("sim-time metrics (untraced)", untraced_sim);
    cmb::PrintTable("per-layer metrics (traced)", r.metrics);
  } else {
    r = cmb::RunEndToEnd(*w, seed, seconds);
    cmb::PrintTable("end-to-end metrics", r.metrics);
  }
  cmb::Emit(*w, seed, trace, r);
  return r.correct ? 0 : 1;
}
