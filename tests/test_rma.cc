#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "rma/hwrma.h"
#include "rma/memory.h"
#include "rma/softnic.h"
#include "sim/simulator.h"

namespace cm::rma {
namespace {

// ---------------------------------------------------------------------------
// MemoryRegistry
// ---------------------------------------------------------------------------

TEST(MemoryRegistry, RegisterAndResolve) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(128, std::byte{7});
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  auto copy = reg.ResolveCopy(id, 16, 32);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy->size(), 32u);
  EXPECT_EQ((*copy)[0], std::byte{7});
}

TEST(MemoryRegistry, OutOfBoundsRejected) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  EXPECT_EQ(reg.ResolveCopy(id, 60, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.ResolveCopy(id, 60, 4).ok());
}

TEST(MemoryRegistry, RevokedWindowDenied) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  EXPECT_TRUE(reg.IsLive(id));
  reg.Revoke(id);
  EXPECT_FALSE(reg.IsLive(id));
  EXPECT_EQ(reg.ResolveCopy(id, 0, 8).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(MemoryRegistry, UnknownWindowDenied) {
  MemoryRegistry reg;
  EXPECT_EQ(reg.ResolveCopy(42, 0, 8).status().code(),
            StatusCode::kPermissionDenied);
}

TEST(MemoryRegistry, OverlappingWindowsCoexist) {
  // Data-region growth registers a second, larger window over the same
  // pool (§4.1); both remain readable until the old one is revoked.
  MemoryRegistry reg;
  std::vector<std::byte> buf(256);
  VectorSource src(&buf);
  RegionId small = reg.Register(&src, 128);
  RegionId large = reg.Register(&src, 256);
  EXPECT_TRUE(reg.ResolveCopy(small, 0, 128).ok());
  EXPECT_TRUE(reg.ResolveCopy(large, 128, 128).ok());
  reg.Revoke(small);
  EXPECT_FALSE(reg.ResolveCopy(small, 0, 8).ok());
  EXPECT_TRUE(reg.ResolveCopy(large, 0, 8).ok());
  EXPECT_EQ(reg.registrations(), 2);
}

TEST(MemoryRegistry, WindowSeesLiveGrowth) {
  // The source may grow after registration; a window registered over the
  // larger size reads newly-populated bytes.
  MemoryRegistry reg;
  std::vector<std::byte> buf(64, std::byte{1});
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, 128);  // window larger than current pool
  EXPECT_FALSE(reg.ResolveCopy(id, 64, 8).ok());  // source rejects for now
  buf.resize(128, std::byte{2});
  auto copy = reg.ResolveCopy(id, 64, 8);
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ((*copy)[0], std::byte{2});
}

// ---------------------------------------------------------------------------
// Snapshot: deferred copies of a MemorySource
// ---------------------------------------------------------------------------

// A writable source that keeps the BeforeWrite contract, like the backend's
// data pool.
class WritableSource final : public MemorySource {
 public:
  explicit WritableSource(size_t n) : bytes_(n) {
    for (size_t i = 0; i < n; ++i) bytes_[i] = static_cast<std::byte>(i);
  }
  ~WritableSource() override { MaterializeAll(); }

  Status ReadAt(uint64_t offset, uint32_t length,
                std::byte* dst) const override {
    if (offset + length > bytes_.size()) {
      return InvalidArgumentError("read beyond source");
    }
    std::memcpy(dst, bytes_.data() + offset, length);
    return OkStatus();
  }
  uint64_t size() const override { return bytes_.size(); }

  void Fill(uint64_t offset, uint64_t length, std::byte v) {
    BeforeWrite(offset, length);
    std::memset(bytes_.data() + offset, static_cast<int>(v), length);
  }

 private:
  std::vector<std::byte> bytes_;
};

std::vector<std::byte> Expected(uint64_t offset, uint32_t length) {
  std::vector<std::byte> out(length);
  for (uint32_t i = 0; i < length; ++i) {
    out[i] = static_cast<std::byte>(offset + i);
  }
  return out;
}

bool Shows(const Snapshot& snap, const std::vector<std::byte>& want) {
  const BufferView& v = snap.view();
  return v.size() == want.size() &&
         std::equal(v.begin(), v.end(), want.begin());
}

TEST(Snapshot, OverlappingWriteKeepsTheOldBytes) {
  WritableSource src(256);
  Snapshot snap = src.Defer(64, 32);
  EXPECT_EQ(snap.size(), 32u);
  EXPECT_EQ(src.pending_snapshots(), 1u);
  const int64_t before = BufferStats::bytes_copied();
  src.Fill(80, 4, std::byte{0xEE});  // lands inside the snapshot
  EXPECT_EQ(src.pending_snapshots(), 0u);
  EXPECT_EQ(BufferStats::bytes_copied() - before, 32);
  EXPECT_TRUE(Shows(snap, Expected(64, 32)));
  EXPECT_EQ(BufferStats::bytes_copied() - before, 32);  // view() reuses it
}

TEST(Snapshot, AdjacentWritesLeaveItPending) {
  WritableSource src(256);
  Snapshot snap = src.Defer(64, 32);
  const int64_t before = BufferStats::bytes_copied();
  src.Fill(32, 32, std::byte{0xEE});  // ends exactly at the start
  src.Fill(96, 16, std::byte{0xEE});  // starts exactly at the end
  src.Fill(64, 0, std::byte{0xEE});   // empty write inside
  EXPECT_EQ(src.pending_snapshots(), 1u);
  EXPECT_EQ(BufferStats::bytes_copied(), before);
  EXPECT_TRUE(Shows(snap, Expected(64, 32)));
  EXPECT_EQ(BufferStats::bytes_copied() - before, 32);
  EXPECT_EQ(src.pending_snapshots(), 0u);
}

TEST(Snapshot, DroppedUnreadCopiesNothing) {
  WritableSource src(256);
  const int64_t before = BufferStats::bytes_copied();
  {
    Snapshot snap = src.Defer(0, 128);
    Snapshot copy = snap;  // shares the pending state
    EXPECT_EQ(copy.size(), 128u);
    EXPECT_FALSE(copy.empty());
    EXPECT_EQ(src.pending_snapshots(), 1u);
  }
  EXPECT_EQ(src.pending_snapshots(), 0u);
  src.Fill(0, 256, std::byte{0xEE});
  EXPECT_EQ(BufferStats::bytes_copied(), before);
}

TEST(Snapshot, RepeatedAndSharedViewsCopyOnce) {
  WritableSource src(256);
  Snapshot snap = src.Defer(16, 64);
  Snapshot copy = snap;
  const int64_t before = BufferStats::bytes_copied();
  const BufferView first = snap.view();
  const BufferView second = snap.view();
  EXPECT_EQ(first.data(), second.data());
  EXPECT_EQ(copy.view().data(), first.data());
  EXPECT_EQ(BufferStats::bytes_copied() - before, 64);
  EXPECT_TRUE(Shows(copy, Expected(16, 64)));
}

TEST(Snapshot, OneWriteMaterializesEveryOverlap) {
  // Three pending snapshots; one write overlaps the first and the last, so
  // the scan swap-removes the first and must still find the last, which
  // was moved into its slot.
  WritableSource src(256);
  Snapshot a = src.Defer(0, 16);
  Snapshot b = src.Defer(128, 16);
  Snapshot c = src.Defer(8, 16);
  const int64_t before = BufferStats::bytes_copied();
  src.Fill(0, 20, std::byte{0xEE});
  EXPECT_EQ(src.pending_snapshots(), 1u);
  EXPECT_EQ(BufferStats::bytes_copied() - before, 32);
  EXPECT_TRUE(Shows(a, Expected(0, 16)));
  EXPECT_TRUE(Shows(c, Expected(8, 16)));
  EXPECT_EQ(BufferStats::bytes_copied() - before, 32);
  src.Fill(128, 1, std::byte{0xEE});
  EXPECT_EQ(src.pending_snapshots(), 0u);
  EXPECT_TRUE(Shows(b, Expected(128, 16)));
}

TEST(Snapshot, OutlivesItsSource) {
  Snapshot snap;
  {
    WritableSource src(256);
    snap = src.Defer(200, 40);
  }
  EXPECT_TRUE(Shows(snap, Expected(200, 40)));
}

TEST(Snapshot, WrapsMaterializedBytesAndEmptyRanges) {
  const int64_t before = BufferStats::bytes_copied();
  Snapshot wrapped = BufferView(cm::ToBytes("abc"));
  EXPECT_EQ(cm::ToString(wrapped.view()), "abc");
  EXPECT_EQ(BufferStats::bytes_copied(), before);
  Snapshot none;
  EXPECT_TRUE(none.empty());
  EXPECT_TRUE(none.view().empty());
  WritableSource src(16);
  EXPECT_TRUE(src.Defer(4, 0).empty());
  EXPECT_TRUE(src.Defer(10, 8).empty());  // ends beyond the source
  EXPECT_EQ(src.pending_snapshots(), 0u);
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

struct RmaFixture : ::testing::Test {
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  RmaNetwork rma_network;
  MemoryRegistry registry;
  net::HostId client, server;
  std::vector<std::byte> server_mem;
  std::unique_ptr<VectorSource> source;
  RegionId region;

  void SetUp() override {
    client = fabric.AddHost(net::HostConfig{});
    server = fabric.AddHost(net::HostConfig{});
    server_mem.assign(4096, std::byte{0});
    for (size_t i = 0; i < server_mem.size(); ++i) {
      server_mem[i] = static_cast<std::byte>(i & 0xff);
    }
    source = std::make_unique<VectorSource>(&server_mem);
    region = registry.Register(source.get(), server_mem.size());
    rma_network.Attach(server, &registry);
  }

  StatusOr<cm::BufferView> RunRead(RmaTransport& t, RegionId r, uint64_t off,
                                   uint32_t len) {
    StatusOr<cm::BufferView> out = InternalError("never ran");
    sim.Spawn([](RmaTransport& t, net::HostId c, net::HostId s, RegionId r,
                 uint64_t off, uint32_t len,
                 StatusOr<cm::BufferView>& out) -> sim::Task<void> {
      out = co_await t.Read(c, s, r, off, len);
    }(t, client, server, r, off, len, out));
    sim.Run();
    return out;
  }
};

TEST_F(RmaFixture, SoftNicReadReturnsBytes) {
  SoftNicTransport t(fabric, rma_network);
  auto out = RunRead(t, region, 100, 16);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ((*out)[i], static_cast<std::byte>((100 + i) & 0xff));
  }
  EXPECT_EQ(t.stats().reads, 1);
}

TEST_F(RmaFixture, SoftNicReadOfRevokedRegionFails) {
  SoftNicTransport t(fabric, rma_network);
  registry.Revoke(region);
  auto out = RunRead(t, region, 0, 16);
  EXPECT_EQ(out.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(t.stats().failed_ops, 1);
}

TEST_F(RmaFixture, SoftNicReadIsFarCheaperThanRpc) {
  SoftNicTransport t(fabric, rma_network);
  (void)RunRead(t, region, 0, 64);
  // NIC processing on both sides is well under 2us combined, vs >50us for
  // a framework RPC.
  EXPECT_LT(t.stats().initiator_nic_ns + t.stats().target_nic_ns,
            sim::Microseconds(2));
  // No host CPU was consumed on the server: one-sided semantics.
  EXPECT_EQ(fabric.host(server).cpu().total_busy_ns(), 0);
}

TEST_F(RmaFixture, SoftNicScarExecutesInstalledExecutor) {
  SoftNicTransport t(fabric, rma_network);
  rma_network.InstallScar(
      server, [&](uint64_t hi, uint64_t lo, RegionId, uint64_t, uint32_t)
                  -> StatusOr<ScarResult> {
        EXPECT_EQ(hi, 0xAAu);
        EXPECT_EQ(lo, 0xBBu);
        return ScarResult{cm::ToBytes("bucket"), BufferView(cm::ToBytes("data"))};
      });
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, r, 0, 512, 0xAA, 0xBB);
  }(t, client, server, region, out));
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(cm::ToString(out->bucket), "bucket");
  EXPECT_EQ(cm::ToString(out->data.view()), "data");
  EXPECT_EQ(t.stats().scars, 1);
}

TEST_F(RmaFixture, ScarWithoutExecutorIsUnimplemented) {
  SoftNicTransport t(fabric, rma_network);
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, r, 0, 512, 1, 2);
  }(t, client, server, region, out));
  sim.Run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RmaFixture, EngineScaleOutUnderLoad) {
  SoftNicConfig cfg;
  cfg.max_engines = 4;
  SoftNicTransport t(fabric, rma_network);
  EngineGroup group(sim, cfg);
  EXPECT_EQ(group.active_engines(), 1);
  // Saturate: offered work far exceeds one engine over several windows.
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 4000; ++i) group.Reserve(sim::Nanoseconds(400));
    sim.RunUntil(sim.now() + sim::Milliseconds(1));
  }
  EXPECT_GT(group.active_engines(), 1);
}

TEST_F(RmaFixture, EngineScaleInWhenIdle) {
  SoftNicConfig cfg;
  EngineGroup group(sim, cfg);
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 4000; ++i) group.Reserve(sim::Nanoseconds(400));
    sim.RunUntil(sim.now() + sim::Milliseconds(1));
  }
  int peak = group.active_engines();
  ASSERT_GT(peak, 1);
  // Go idle for many windows: each Reserve drives a rescale check.
  for (int w = 0; w < 20; ++w) {
    sim.RunUntil(sim.now() + sim::Milliseconds(2));
    group.Reserve(sim::Nanoseconds(100));
  }
  EXPECT_EQ(group.active_engines(), 1);
}

TEST_F(RmaFixture, HwRmaReadWorksWithoutServerCpuOrEngines) {
  HwRmaTransport t(fabric, rma_network, HwRmaConfig::OneRma());
  auto out = RunRead(t, region, 8, 8);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], std::byte{8});
  EXPECT_EQ(fabric.host(server).cpu().total_busy_ns(), 0);
  EXPECT_EQ(t.hw_timestamps().count(), 1);
}

TEST_F(RmaFixture, HwRmaRefusesScar) {
  HwRmaTransport t(fabric, rma_network);
  EXPECT_FALSE(t.SupportsScar());
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](HwRmaTransport& t, net::HostId c, net::HostId s,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, 1, 0, 512, 1, 2);
  }(t, client, server, out));
  sim.Run();
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
}

TEST_F(RmaFixture, ClassicRdmaSlowerThanOneRma) {
  HwRmaTransport onerma(fabric, rma_network, HwRmaConfig::OneRma());
  HwRmaTransport rdma(fabric, rma_network, HwRmaConfig::ClassicRdma());
  sim::Time t0 = sim.now();
  (void)RunRead(onerma, region, 0, 64);
  sim::Time onerma_elapsed = sim.now() - t0;
  t0 = sim.now();
  (void)RunRead(rdma, region, 0, 64);
  sim::Time rdma_elapsed = sim.now() - t0;
  EXPECT_LT(onerma_elapsed, rdma_elapsed);
}

TEST_F(RmaFixture, TornReadIsObservable) {
  // The defining hazard of one-sided reads: a read that lands mid-mutation
  // sees intermediate bytes. Start a read, mutate the buffer while the
  // simulated op is in flight (before the copy), observe mixed state.
  SoftNicTransport t(fabric, rma_network);
  StatusOr<cm::BufferView> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<cm::BufferView>& out) -> sim::Task<void> {
    out = co_await t.Read(c, s, r, 0, 8);
  }(t, client, server, region, out));
  // The command takes ~2us to arrive; mutate at 1us (before server copy).
  sim.PostAt(sim::Microseconds(1), [&] {
    for (int i = 0; i < 8; ++i) server_mem[i] = std::byte{0xEE};
  });
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0], std::byte{0xEE});  // read observed the mutation
}

TEST_F(RmaFixture, MessageChargesServerCpu) {
  SoftNicTransport t(fabric, rma_network);
  StatusOr<cm::Bytes> out = InternalError("never ran");
  // Pass state as coroutine parameters: a capturing lambda's closure dies
  // at the end of this statement while the coroutine frame lives on.
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s,
               StatusOr<cm::Bytes>& out) -> sim::Task<void> {
    out = co_await t.Message(
        c, s, cm::ToBytes("req"),
        [](cm::ByteSpan req) -> sim::Task<StatusOr<cm::Bytes>> {
          co_return cm::Bytes(req.begin(), req.end());
        },
        sim::Microseconds(1));
  }(t, client, server, out));
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(cm::ToString(*out), "req");
  // Unlike one-sided reads, MSG wakes a server application thread.
  EXPECT_GT(fabric.host(server).cpu().total_busy_ns(), 0);
}

}  // namespace
}  // namespace cm::rma
