// Microbenchmarks (google-benchmark, real wall-clock): the hot primitives
// every simulated op exercises — hashing, checksums, entry codecs, slab
// allocation, eviction policy updates. These bound how fast the simulator
// itself can push ops, and document the real cost of the data structures.
//
// `--json` replaces the console table with one cm.bench.v1 document
// (per-benchmark real/cpu ns-per-iteration scalars), matching every other
// bench binary's machine-readable mode; remaining flags still reach
// google-benchmark (e.g. --benchmark_filter).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "cliquemap/eviction.h"
#include "cliquemap/layout.h"
#include "cliquemap/slab.h"
#include "common/checksum.h"
#include "common/hash.h"
#include "common/rng.h"

namespace {

using namespace cm;
using namespace cm::cliquemap;

void BM_HashKey(benchmark::State& state) {
  std::string key(size_t(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(HashKey(key));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashKey)->Arg(16)->Arg(64)->Arg(256);

void BM_Crc32c(benchmark::State& state) {
  Bytes data(size_t(state.range(0)), std::byte{0xAB});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCrc32c(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

// The slicing-by-8 kernel that BM_Crc32c runs on CPUs without SSE4.2.
void BM_Crc32cPortable(benchmark::State& state) {
  std::vector<uint8_t> data(size_t(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crc32c_internal::ExtendPortable(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32cPortable)->Arg(64)->Arg(4096)->Arg(65536);

void BM_EncodeDataEntry(benchmark::State& state) {
  const std::string key = "bench-key";
  Bytes value(size_t(state.range(0)), std::byte{1});
  Bytes buf(DataEntryBytes(key.size(), value.size()));
  const Hash128 hash = HashKey(key);
  const VersionNumber version{1, 2, 3};
  for (auto _ : state) {
    EncodeDataEntry(buf, key, value, hash, version);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeDataEntry)->Arg(64)->Arg(4096);

void BM_DecodeDataEntry(benchmark::State& state) {
  const std::string key = "bench-key";
  Bytes value(size_t(state.range(0)), std::byte{1});
  Bytes buf(DataEntryBytes(key.size(), value.size()));
  EncodeDataEntry(buf, key, value, HashKey(key), VersionNumber{1, 2, 3});
  for (auto _ : state) {
    auto view = DecodeDataEntry(buf);
    benchmark::DoNotOptimize(view);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeDataEntry)->Arg(64)->Arg(4096);

void BM_SlabAllocFree(benchmark::State& state) {
  SlabAllocator slab(64 << 20, 64 << 20);
  const auto size = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    auto off = slab.Allocate(size);
    benchmark::DoNotOptimize(off);
    slab.Free(*off, size);
  }
}
BENCHMARK(BM_SlabAllocFree)->Arg(100)->Arg(4000);

void BM_EvictionPolicyTouch(benchmark::State& state) {
  auto policy = MakeEvictionPolicy(
      static_cast<EvictionPolicyKind>(state.range(0)), 10000, 1);
  std::vector<Hash128> keys;
  for (int i = 0; i < 10000; ++i) {
    keys.push_back(HashKey("k" + std::to_string(i)));
    policy->OnInsert(keys.back());
  }
  Rng rng(7);
  for (auto _ : state) {
    policy->OnTouch(keys[rng.NextBounded(keys.size())]);
  }
}
BENCHMARK(BM_EvictionPolicyTouch)
    ->Arg(int(EvictionPolicyKind::kLru))
    ->Arg(int(EvictionPolicyKind::kArc))
    ->Arg(int(EvictionPolicyKind::kClock));

void BM_BucketScan(benchmark::State& state) {
  // The SCAR hot loop: scan a 20-way bucket for a key hash.
  constexpr int kWays = 20;
  Bytes bucket(BucketBytes(kWays));
  EncodeBucketHeader(bucket, BucketHeader{1, false});
  for (int w = 0; w < kWays; ++w) {
    IndexEntry e;
    e.keyhash = HashKey("resident-" + std::to_string(w));
    e.version = {1, 1, 1};
    e.pointer = {1, 64, uint64_t(w) * 64};
    EncodeIndexEntry(MutableByteSpan(bucket).subspan(
                         kBucketHeaderSize + size_t(w) * kIndexEntrySize),
                     e);
  }
  const Hash128 want = HashKey("resident-19");  // worst case: last way
  for (auto _ : state) {
    for (int w = 0; w < kWays; ++w) {
      IndexEntry e = DecodeIndexEntry(ByteSpan(bucket).subspan(
          kBucketHeaderSize + size_t(w) * kIndexEntrySize));
      if (e.keyhash == want) {
        benchmark::DoNotOptimize(e);
        break;
      }
    }
  }
}
BENCHMARK(BM_BucketScan);

// Collects per-benchmark timings instead of printing the console table.
class CollectingReporter : public benchmark::BenchmarkReporter {
 public:
  struct Row {
    std::string name;
    double real_ns_per_iter;
    double cpu_ns_per_iter;
    int64_t iterations;
  };

  bool ReportContext(const Context&) override { return true; }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      rows.push_back(Row{run.benchmark_name(),
                         run.real_accumulated_time * 1e9 / run.iterations,
                         run.cpu_accumulated_time * 1e9 / run.iterations,
                         run.iterations});
    }
  }

  std::vector<Row> rows;
};

}  // namespace

int main(int argc, char** argv) {
  // Pull our --json flag out before google-benchmark sees (and rejects) it.
  bool json = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      json = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (!json) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  cm::json::Writer w;
  w.BeginObject();
  w.Key("schema");
  w.String("cm.bench.v1");
  w.Key("bench");
  w.String("micro");
  w.Key("scalars");
  w.BeginObject();
  for (const auto& row : reporter.rows) {
    w.Key(row.name + ".real_ns_per_iter");
    w.Double(row.real_ns_per_iter);
    w.Key(row.name + ".cpu_ns_per_iter");
    w.Double(row.cpu_ns_per_iter);
    w.Key(row.name + ".iterations");
    w.Double(static_cast<double>(row.iterations));
  }
  w.EndObject();
  w.Key("metrics");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
