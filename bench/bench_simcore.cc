// bench_simcore: simulator-core hot-path throughput.
//
// Unlike the figure benches (which reproduce paper shapes in *simulated*
// time), this bench measures the harness itself in *wall-clock* time: how
// many scheduler events, coroutine spawns, and fabric/RMA payload bytes per
// real second the simulator core sustains. scripts/perf_gate.sh diffs these
// scalars against the committed BENCH_simcore.json baseline so scheduler or
// buffer regressions are caught at check time.
//
//   --selftest   small sizes + ordering assertions, for the `perf` ctest label
//   --json       cm.bench.v1 document on stdout
#include <chrono>
#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "common/buffer.h"
#include "common/rng.h"
#include "net/fabric.h"
#include "rma/softnic.h"
#include "sim/simulator.h"

namespace cm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Steady-state timer churn: a working set of self-rescheduling timers with
// pseudo-random offsets, the dominant event pattern of the NIC/CPU busy-until
// models. Offsets are precomputed so the measured loop is scheduler work,
// not RNG work. Each firing validates that virtual time never runs
// backwards.
double TimerEventsPerSec(uint64_t working_set, uint64_t total_events) {
  sim::Simulator sim;
  Rng rng(0x51c0deULL);
  // Mix of near (sub-microsecond) and far (up to ~1ms) offsets so both the
  // calendar's near wheel and its upper levels see traffic.
  std::vector<sim::Duration> offsets(1 << 16);
  for (auto& off : offsets) {
    off = static_cast<sim::Duration>(
        (rng.NextU64() & 1) ? rng.NextBounded(800)
                            : rng.NextBounded(1'000'000));
  }

  struct State {
    sim::Simulator& sim;
    const std::vector<sim::Duration>& offsets;
    size_t cursor = 0;
    uint64_t remaining;
    sim::Time last_t = 0;
    bool ordered = true;
  } state{sim, offsets, 0, total_events};

  struct Churn {
    State* s;
    void operator()() const {
      if (s->sim.now() < s->last_t) s->ordered = false;
      s->last_t = s->sim.now();
      if (s->remaining == 0) return;
      --s->remaining;
      const auto off = s->offsets[s->cursor++ & 0xFFFF];
      s->sim.PostAfter(off, Churn{s});
    }
  };

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < working_set; ++i) {
    sim.PostAt(static_cast<sim::Time>(rng.NextBounded(1'000'000)),
               Churn{&state});
  }
  sim.Run();
  double secs = SecondsSince(start);
  if (!state.ordered) {
    std::fprintf(stderr, "bench_simcore: virtual time ran backwards\n");
    std::abort();
  }
  return static_cast<double>(sim.events_processed()) / secs;
}

// Detached-coroutine churn: Spawn cost plus the ScheduleAt resume fast path.
std::pair<double, double> SpawnsAndResumesPerSec(uint64_t spawns,
                                                 int yields_per_task) {
  sim::Simulator sim;
  uint64_t completed = 0;

  auto actor = [](sim::Simulator& sim, int yields,
                  uint64_t& completed) -> sim::Task<void> {
    for (int i = 0; i < yields; ++i) co_await sim.Yield();
    ++completed;
  };

  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < spawns; ++i) {
    sim.Spawn(actor(sim, yields_per_task, completed));
  }
  sim.Run();
  double secs = SecondsSince(start);
  if (completed != spawns) {
    std::fprintf(stderr, "bench_simcore: %llu of %llu tasks completed\n",
                 static_cast<unsigned long long>(completed),
                 static_cast<unsigned long long>(spawns));
    std::abort();
  }
  return {static_cast<double>(spawns) / secs,
          static_cast<double>(sim.events_processed()) / secs};
}

// End-to-end RMA payload path: back-to-back one-sided reads of a registered
// region through the software NIC. Reports wall-clock payload bytes/sec and
// the number of buffer-layer byte copies each read cost.
std::pair<double, double> FabricBytesPerSec(uint64_t reads,
                                            uint32_t read_bytes) {
  sim::Simulator sim;
  net::Fabric fabric(sim, {});
  net::HostId client = fabric.AddHost({});
  net::HostId server = fabric.AddHost({});

  Bytes backing(read_bytes, std::byte{0x5a});
  rma::VectorSource source(&backing);
  rma::MemoryRegistry registry;
  rma::RegionId region = registry.Register(&source, backing.size());
  rma::RmaNetwork rma_net;
  rma_net.Attach(server, &registry);
  rma::SoftNicTransport transport(fabric, rma_net);

  uint64_t ok = 0;
  int64_t copied_before = BufferStats::bytes_copied();
  auto driver = [](sim::Simulator&, rma::SoftNicTransport& t,
                   net::HostId client, net::HostId server,
                   rma::RegionId region, uint32_t len, uint64_t reads,
                   uint64_t& ok) -> sim::Task<void> {
    for (uint64_t i = 0; i < reads; ++i) {
      auto r = co_await t.Read(client, server, region, 0, len);
      if (r.ok() && r->size() == len) ++ok;
    }
  };

  auto start = std::chrono::steady_clock::now();
  sim.Spawn(driver(sim, transport, client, server, region, read_bytes, reads,
                   ok));
  sim.Run();
  double secs = SecondsSince(start);
  if (ok != reads) {
    std::fprintf(stderr, "bench_simcore: %llu of %llu reads ok\n",
                 static_cast<unsigned long long>(ok),
                 static_cast<unsigned long long>(reads));
    std::abort();
  }
  double copies_per_read =
      static_cast<double>(BufferStats::bytes_copied() - copied_before) /
      (static_cast<double>(reads) * read_bytes);
  return {static_cast<double>(reads) * read_bytes / secs, copies_per_read};
}

// Wall-clock cost of one simulated second of a busy small topology: RMA
// reads under an antagonist plus periodic timers — the chaos-soak profile.
double WallMsPerSimSecond(sim::Duration sim_horizon) {
  sim::Simulator sim;
  net::Fabric fabric(sim, {});
  net::HostId client = fabric.AddHost({});
  net::HostId server = fabric.AddHost({});

  Bytes backing(4096, std::byte{0x7e});
  rma::VectorSource source(&backing);
  rma::MemoryRegistry registry;
  rma::RegionId region = registry.Register(&source, backing.size());
  rma::RmaNetwork rma_net;
  rma_net.Attach(server, &registry);
  rma::SoftNicTransport transport(fabric, rma_net);
  const int antagonist = fabric.StartAntagonist(server, 10.0, true, true);

  auto driver = [](sim::Simulator& sim, rma::SoftNicTransport& t,
                   net::HostId client, net::HostId server,
                   rma::RegionId region, sim::Time until) -> sim::Task<void> {
    while (sim.now() < until) {
      (void)co_await t.Read(client, server, region, 0, 4096);
    }
  };

  auto start = std::chrono::steady_clock::now();
  sim.Spawn(driver(sim, transport, client, server, region, sim_horizon));
  sim.RunUntil(sim_horizon);
  double secs = SecondsSince(start);
  // Untimed: let the driver's last read and the antagonist finish, so no
  // coroutine frame is left suspended (and leaked) at teardown.
  fabric.StopAntagonist(antagonist);
  sim.Run();
  return secs * 1e3 /
         (static_cast<double>(sim_horizon) / 1e9);  // wall ms per sim s
}

// Ordering selftest: same-time events must fire in insertion order across a
// time span wide enough to exercise every calendar level plus overflow.
void OrderingSelftest() {
  sim::Simulator sim;
  std::vector<int> fired;
  // Times chosen to straddle 256ns / 64KB / 16MB / 4GB block boundaries.
  const sim::Time times[] = {0,       1,          255,         256,
                             65535,   65536,      1 << 24,     (1 << 24) + 7,
                             1 << 30, 1ll << 32,  (1ll << 32) + 1,
                             1ll << 40};
  int id = 0;
  for (sim::Time t : times) {
    for (int k = 0; k < 3; ++k) {
      sim.PostAt(t, [&fired, id] { fired.push_back(id); });
      ++id;
    }
  }
  sim.Run();
  for (int i = 0; i < id; ++i) {
    if (fired[static_cast<size_t>(i)] != i) {
      std::fprintf(stderr, "bench_simcore: ordering selftest failed at %d\n",
                   i);
      std::abort();
    }
  }
}

}  // namespace
}  // namespace cm

int main(int argc, char** argv) {
  using namespace cm;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--selftest") == 0) selftest = true;
  }
  bench::JsonReport report(argc, argv, "simcore");

  const uint64_t timer_events = selftest ? 20'000 : 4'000'000;
  const uint64_t spawns = selftest ? 5'000 : 400'000;
  const uint64_t reads = selftest ? 2'000 : 100'000;
  const sim::Duration mixed_horizon =
      selftest ? sim::Milliseconds(50) : sim::Seconds(1);

  OrderingSelftest();

  double events_per_sec = TimerEventsPerSec(/*working_set=*/4096,
                                            timer_events);
  auto [spawns_per_sec, resumes_per_sec] =
      SpawnsAndResumesPerSec(spawns, /*yields_per_task=*/8);
  auto [fabric_bytes_per_sec, copies_per_byte] =
      FabricBytesPerSec(reads, /*read_bytes=*/4096);
  double wall_ms_per_sim_s = WallMsPerSimSecond(mixed_horizon);

  if (!report.enabled()) {
    bench::Banner("bench_simcore: simulator-core wall-clock throughput");
    std::printf("timer events/sec        %12.0f\n", events_per_sec);
    std::printf("coroutine spawns/sec    %12.0f\n", spawns_per_sec);
    std::printf("scheduler resumes/sec   %12.0f\n", resumes_per_sec);
    std::printf("fabric payload bytes/s  %12.0f\n", fabric_bytes_per_sec);
    std::printf("buffer copies per byte  %12.3f\n", copies_per_byte);
    std::printf("wall ms per sim second  %12.2f\n", wall_ms_per_sim_s);
    if (selftest) std::printf("selftest: ok\n");
  }
  report.AddScalar("timers.events_per_sec", events_per_sec);
  report.AddScalar("coro.spawns_per_sec", spawns_per_sec);
  report.AddScalar("coro.resumes_per_sec", resumes_per_sec);
  report.AddScalar("fabric.payload_bytes_per_sec", fabric_bytes_per_sec);
  report.AddScalar("fabric.copies_per_byte", copies_per_byte);
  report.AddScalar("mixed.wall_ms_per_sim_s", wall_ms_per_sim_s);
  if (report.enabled()) report.Emit();
  return 0;
}
