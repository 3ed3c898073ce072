#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "rma/hwrma.h"
#include "rma/memory.h"
#include "net/faults.h"
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
  auto view = reg.ResolveView(id, 16, 32);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->size(), 32u);
  EXPECT_EQ((*view)[0], std::byte{7});
}

TEST(MemoryRegistry, OutOfBoundsRejected) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  EXPECT_EQ(reg.ResolveView(id, 60, 10).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.ResolveView(id, 60, 4).ok());
}

TEST(MemoryRegistry, OffsetsNearTheTopOfTheRangeDoNotWrap) {
  // offset + length wraps past 2^64 to a small number; the window check
  // must still reject it rather than read before the buffer.
  MemoryRegistry reg;
  std::vector<std::byte> buf(4096);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  const uint64_t near_top = UINT64_MAX - 3;
  EXPECT_EQ(reg.ResolveView(id, near_top, 8).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.CheckAccess(id, near_top, 8).code(),
            StatusCode::kInvalidArgument);
  std::byte out[8];
  EXPECT_FALSE(src.ReadAt(near_top, 8, out).ok());
  EXPECT_TRUE(reg.CheckAccess(id, 4088, 8).ok());
}

TEST(MemoryRegistry, RevokedWindowDenied) {
  MemoryRegistry reg;
  std::vector<std::byte> buf(64);
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, buf.size());
  EXPECT_TRUE(reg.IsLive(id));
  reg.Revoke(id);
  EXPECT_FALSE(reg.IsLive(id));
  EXPECT_EQ(reg.ResolveView(id, 0, 8).status().code(),
            StatusCode::kPermissionDenied);
  // Lease renewal re-admits the window under its original id.
  reg.Restore(id);
  EXPECT_TRUE(reg.IsLive(id));
  EXPECT_TRUE(reg.ResolveView(id, 0, 8).ok());
}

TEST(MemoryRegistry, UnknownWindowDenied) {
  MemoryRegistry reg;
  EXPECT_EQ(reg.ResolveView(42, 0, 8).status().code(),
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
  EXPECT_TRUE(reg.ResolveView(small, 0, 128).ok());
  EXPECT_TRUE(reg.ResolveView(large, 128, 128).ok());
  reg.Revoke(small);
  EXPECT_FALSE(reg.ResolveView(small, 0, 8).ok());
  EXPECT_TRUE(reg.ResolveView(large, 0, 8).ok());
  EXPECT_EQ(reg.registrations(), 2);
}

TEST(MemoryRegistry, WindowSeesLiveGrowth) {
  // The source may grow after registration; a window registered over the
  // larger size reads newly-populated bytes.
  MemoryRegistry reg;
  std::vector<std::byte> buf(64, std::byte{1});
  VectorSource src(&buf);
  RegionId id = reg.Register(&src, 128);  // window larger than current pool
  EXPECT_FALSE(reg.ResolveView(id, 64, 8).ok());  // source rejects for now
  buf.resize(128, std::byte{2});
  auto view = reg.ResolveView(id, 64, 8);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)[0], std::byte{2});
}

// ---------------------------------------------------------------------------
// Snapshot: deferred copies of a MemorySource
// ---------------------------------------------------------------------------

// A writable source that keeps the BeforeWrite contract, like the backend's
// data pool.
class WritableSource final : public MemorySource {
 public:
  // A contiguous source lets borrows read its bytes in place.
  explicit WritableSource(size_t n, bool contiguous = true)
      : bytes_(n), contiguous_(contiguous) {
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
  ByteSpan Peek(uint64_t offset, uint32_t length) const override {
    if (!contiguous_) return {};
    return ByteSpan(bytes_).subspan(offset, length);
  }

  void Fill(uint64_t offset, uint64_t length, std::byte v) {
    BeforeWrite(offset, length);
    std::memset(bytes_.data() + offset, static_cast<int>(v), length);
  }

 private:
  std::vector<std::byte> bytes_;
  bool contiguous_;
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

TEST(Snapshot, DeferNearTheTopOfTheRangeIsEmpty) {
  WritableSource src(4096);
  EXPECT_TRUE(src.Defer(UINT64_MAX - 3, 8).empty());
  EXPECT_TRUE(src.Defer(UINT64_MAX, 1).empty());
  EXPECT_EQ(src.pending_snapshots(), 0u);
}

// Whether `bytes` holds Expected(offset, length).
bool Holds(ByteSpan bytes, uint64_t offset, uint32_t length) {
  const std::vector<std::byte> want = Expected(offset, length);
  return bytes.size() == want.size() &&
         std::equal(bytes.begin(), bytes.end(), want.begin());
}

TEST(Snapshot, BorrowOfAPendingSnapshotCopiesNothing) {
  WritableSource src(256);
  Snapshot snap = src.Defer(64, 32);
  const int64_t before = BufferStats::bytes_copied();
  EXPECT_TRUE(snap.Borrow([](ByteSpan b) { return Holds(b, 64, 32); }));
  EXPECT_EQ(BufferStats::bytes_copied(), before);
  EXPECT_EQ(src.pending_snapshots(), 1u);  // still pending
  // A write after the borrow still keeps the instant's bytes.
  src.Fill(64, 32, std::byte{0xEE});
  EXPECT_TRUE(snap.Borrow([](ByteSpan b) { return Holds(b, 64, 32); }));
}

TEST(Snapshot, BorrowAfterMaterializationReadsTheCopy) {
  WritableSource src(256);
  Snapshot snap = src.Defer(64, 32);
  src.Fill(70, 2, std::byte{0xEE});  // copies the snapshot out first
  const BufferView& copy = snap.view();
  const int64_t before = BufferStats::bytes_copied();
  snap.Borrow([&](ByteSpan b) {
    EXPECT_EQ(b.data(), copy.data());
    EXPECT_TRUE(Holds(b, 64, 32));
    return 0;
  });
  EXPECT_EQ(BufferStats::bytes_copied(), before);
}

TEST(Snapshot, BorrowOfANonContiguousSourceMaterializesOnce) {
  WritableSource src(256, /*contiguous=*/false);
  Snapshot snap = src.Defer(8, 16);
  const int64_t before = BufferStats::bytes_copied();
  EXPECT_TRUE(snap.Borrow([](ByteSpan b) { return Holds(b, 8, 16); }));
  EXPECT_EQ(BufferStats::bytes_copied() - before, 16);
  EXPECT_EQ(src.pending_snapshots(), 0u);
  EXPECT_TRUE(snap.Borrow([](ByteSpan b) { return Holds(b, 8, 16); }));
  EXPECT_EQ(BufferStats::bytes_copied() - before, 16);
}

TEST(Snapshot, SliceCopiesOnlyItsBytes) {
  WritableSource src(256);
  Snapshot snap = src.Defer(16, 64);
  const int64_t before = BufferStats::bytes_copied();
  const BufferView part = snap.Slice(8, 10);
  EXPECT_EQ(BufferStats::bytes_copied() - before, 10);
  EXPECT_TRUE(Holds(part, 24, 10));
  EXPECT_EQ(src.pending_snapshots(), 1u);
  EXPECT_TRUE(snap.Slice(3, 0).empty());
  // Once materialized, a slice shares the copy.
  const BufferView& whole = snap.view();
  EXPECT_EQ(BufferStats::bytes_copied() - before, 10 + 64);
  const BufferView shared = snap.Slice(8, 10);
  EXPECT_EQ(shared.data(), whole.data() + 8);
  EXPECT_EQ(BufferStats::bytes_copied() - before, 10 + 64);
}

#ifndef NDEBUG
TEST(SnapshotDeathTest, WriteInsideABorrowAsserts) {
  EXPECT_DEATH(
      {
        WritableSource src(64);
        Snapshot snap = src.Defer(0, 16);
        snap.Borrow([&](ByteSpan) {
          src.Fill(0, 4, std::byte{0xEE});
          return 0;
        });
      },
      "open_borrows_");
}
#endif

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
        return ScarResult{BufferView(cm::ToBytes("bucket")),
                          BufferView(cm::ToBytes("data"))};
      });
  StatusOr<ScarResult> out = InternalError("never ran");
  sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s, RegionId r,
               StatusOr<ScarResult>& out) -> sim::Task<void> {
    out = co_await t.ScanAndRead(c, s, r, 0, 512, 0xAA, 0xBB);
  }(t, client, server, region, out));
  sim.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(cm::ToString(out->bucket.view()), "bucket");
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

TEST_F(RmaFixture, ScarTargetStoppedDuringEngineWorkFails) {
  // A backend that stops or crashes while the target engine works on a SCAR
  // detaches its host state (and with it the executor). The scan must then
  // fail the op instead of running the destroyed executor.
  SoftNicTransport t(fabric, rma_network);
  for (bool vector : {false, true}) {
    rma_network.Attach(server, &registry);
    rma_network.InstallScar(
        server, [](uint64_t, uint64_t, RegionId, uint64_t,
                   uint32_t) -> StatusOr<ScarResult> {
          return ScarResult{BufferView(cm::ToBytes("bucket")), Snapshot()};
        });
    Status status = InternalError("never ran");
    sim.Spawn([](SoftNicTransport& t, net::HostId c, net::HostId s,
                 RegionId r, bool vector, Status& status) -> sim::Task<void> {
      if (vector) {
        std::vector<ScarVEntry> entries(1, ScarVEntry{r, 0, 512, 1, 2});
        status = (co_await t.ScanAndReadV(c, s, entries)).status();
      } else {
        status = (co_await t.ScanAndRead(c, s, r, 0, 512, 1, 2)).status();
      }
    }(t, client, server, region, vector, status));
    // Detach as soon as the target engine has been booked for the scan.
    sim.Spawn([](sim::Simulator& sim, const SoftNicTransport& t,
                 RmaNetwork& network, net::HostId s,
                 int64_t booked) -> sim::Task<void> {
      while (t.stats().target_nic_ns == booked) co_await sim.Delay(1);
      network.Detach(s);
    }(sim, t, rma_network, server, t.stats().target_nic_ns));
    sim.Run();
    EXPECT_FALSE(status.ok()) << (vector ? "ScanAndReadV" : "ScanAndRead");
  }
  EXPECT_EQ(t.stats().failed_ops, 2);
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

TEST_F(RmaFixture, ReadNearTheTopOfTheRangeIsOutOfBounds) {
  // A corrupt or hostile pointer carries a client-chosen offset into the
  // target's window check; offset + length must not wrap into range.
  SoftNicTransport soft(fabric, rma_network);
  HwRmaTransport hw(fabric, rma_network);
  for (RmaTransport* t : {static_cast<RmaTransport*>(&soft),
                          static_cast<RmaTransport*>(&hw)}) {
    auto out = RunRead(*t, region, UINT64_MAX - 3, 8);
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(t->stats().failed_ops, 1);
  }
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


// ---------------------------------------------------------------------------
// Golden per-op transport table
// ---------------------------------------------------------------------------
//
// Every op of both transports, and SoftNIC's two-sided Message, under every
// outcome a transport tells apart, each in a fresh world. A row records the
// op's completion sim time, its status code, each result slot (its size,
// with `*` when the delivered bytes differ from memory: the corrupt
// victim), every nonzero RmaStats counter, and the op's span name and End
// argument. Link faults are forced at rate 1 in one direction.

enum class Outcome {
  kOk,
  kCommandDropped,
  kCommandCorrupt,
  kNoHostState,
  kRevokedWindow,
  kCompletionDropped,
  kCompletionCorruptEmpty,
  kCompletionCorrupt,
};

constexpr const char* kOutcomeNames[] = {
    "ok",           "cmd_drop",   "cmd_corrupt",        "no_host",
    "revoked",      "cpl_drop",   "cpl_corrupt_empty",  "cpl_corrupt"};

enum class Op { kRead, kReadV0, kReadV1, kReadV3, kScar, kScarV0, kScarV1,
                kScarV3, kMessage };

constexpr const char* kOpNames[] = {"Read",  "ReadV0", "ReadV1",
                                    "ReadV3", "Scar",  "ScarV0",
                                    "ScarV1", "ScarV3", "Message"};

struct GoldenWorld {
  sim::Simulator sim;
  net::Fabric fabric{sim, net::FabricConfig{}};
  RmaNetwork rma_network;
  MemoryRegistry registry;
  std::vector<std::byte> mem;
  VectorSource source{&mem};
  net::HostId client = 0, server = 0;
  RegionId region = 0, revoked = 0;

  GoldenWorld() {
    client = fabric.AddHost(net::HostConfig{});
    server = fabric.AddHost(net::HostConfig{});
    mem.resize(4096);
    for (size_t i = 0; i < mem.size(); ++i) {
      mem[i] = static_cast<std::byte>(i & 0xff);
    }
    region = registry.Register(&source, mem.size());
    revoked = registry.Register(&source, mem.size());
    registry.Revoke(revoked);
    rma_network.Attach(server, &registry);
    // The bucket is the named window; the DataEntry is [hash_hi,
    // hash_hi + hash_lo) of the same memory, empty when hash_lo is 0.
    rma_network.InstallScar(
        server,
        [this](uint64_t hi, uint64_t lo, RegionId r, uint64_t off,
               uint32_t len) -> StatusOr<ScarResult> {
          StatusOr<BufferView> bucket = registry.ResolveView(r, off, len);
          if (!bucket.ok()) return bucket.status();
          if (lo == 0) return ScarResult{*std::move(bucket), Snapshot()};
          StatusOr<BufferView> data =
              registry.ResolveView(r, hi, static_cast<uint32_t>(lo));
          if (!data.ok()) return data.status();
          return ScarResult{*std::move(bucket), Snapshot(*std::move(data))};
        });
    tracer().Enable(true);
  }

  trace::Tracer& tracer() { return fabric.tracer(); }

  std::string Slot(const BufferView& v, uint64_t offset) const {
    const bool pristine =
        std::equal(v.begin(), v.begin() + v.size(), mem.begin() + offset);
    return std::to_string(v.size()) + (pristine ? "" : "*");
  }
  std::string Slot(const ScarResult& r, uint64_t bucket_offset,
                   uint64_t data_offset) const {
    return "b" + Slot(r.bucket.view(), bucket_offset) + "/d" +
           Slot(r.data.view(), data_offset);
  }
  template <class T, class F>
  static std::string Slots(const StatusOr<T>& out, F describe) {
    if (!out.ok()) return "";
    return " [" + describe(*out) + "]";
  }
};

std::string CodeOf(const Status& s) {
  return std::string(StatusCodeName(s.code()));
}

template <class T, class F>
std::string VectorSlots(const std::vector<StatusOr<T>>& v, F describe) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += v[i].ok() ? describe(*v[i], i) : CodeOf(v[i].status());
  }
  return out;
}

std::string GoldenRow(bool hw, Op op, Outcome outcome) {
  GoldenWorld w;
  std::unique_ptr<RmaTransport> transport;
  if (hw) {
    transport = std::make_unique<HwRmaTransport>(w.fabric, w.rma_network);
  } else {
    transport = std::make_unique<SoftNicTransport>(w.fabric, w.rma_network);
  }
  net::LinkFaultRates rates;
  switch (outcome) {
    case Outcome::kCommandDropped:
    case Outcome::kCompletionDropped:
      rates.drop = 1;
      break;
    case Outcome::kCommandCorrupt:
    case Outcome::kCompletionCorruptEmpty:
    case Outcome::kCompletionCorrupt:
      rates.corrupt = 1;
      break;
    default:
      break;
  }
  if (rates.drop > 0 || rates.corrupt > 0) {
    auto plan = std::make_shared<net::FaultPlan>(7);
    const bool command = outcome == Outcome::kCommandDropped ||
                         outcome == Outcome::kCommandCorrupt;
    if (command) {
      plan->SetLinkRates(w.client, w.server, rates);
    } else {
      plan->SetLinkRates(w.server, w.client, rates);
    }
    w.fabric.InstallFaults(plan);
  }
  if (outcome == Outcome::kNoHostState) w.rma_network.Detach(w.server);
  if (outcome == Outcome::kRevokedWindow) w.registry.Revoke(w.region);
  const uint32_t len = outcome == Outcome::kCompletionCorruptEmpty ? 0 : 16;
  const RegionId r = w.region;
  const trace::SpanId root = w.tracer().BeginRoot("test", w.client);

  // Each op runs in its own coroutine; it records its completion time and a
  // description of its result.
  sim::Time done = -1;
  std::string result;
  auto finish = [&](const Status& s, std::string slots) {
    done = w.sim.now();
    result = CodeOf(s) + slots;
  };
  using Finish = decltype(finish);
  const std::vector<ReadVEntry> reads = {
      {r, 0, 0}, {w.revoked, 0, len}, {r, 64, 2 * len}};
  const std::vector<ScarVEntry> scars = {{r, 0, 2 * len, 256, 0},
                                         {w.revoked, 0, 4 * len, 512, len},
                                         {r, 128, 4 * len, 1024, 2 * len}};
  switch (op) {
    case Op::kRead:
      w.sim.Spawn([](RmaTransport& t, GoldenWorld& w, RegionId r, uint32_t len,
                     trace::SpanId root, Finish& finish) -> sim::Task<void> {
        StatusOr<BufferView> out =
            co_await t.Read(w.client, w.server, r, 100, len, root);
        finish(out.status(), GoldenWorld::Slots(out, [&](const BufferView& v) {
                 return w.Slot(v, 100);
               }));
      }(*transport, w, r, len, root, finish));
      break;
    case Op::kReadV0:
    case Op::kReadV1:
    case Op::kReadV3: {
      std::vector<ReadVEntry> entries;
      if (op == Op::kReadV1) entries = {{r, 100, len}};
      if (op == Op::kReadV3) entries = reads;
      w.sim.Spawn([](RmaTransport& t, GoldenWorld& w,
                     std::vector<ReadVEntry> entries, trace::SpanId root,
                     Finish& finish) -> sim::Task<void> {
        auto out = co_await t.ReadV(w.client, w.server, entries, root);
        finish(out.status(),
               GoldenWorld::Slots(out, [&](const auto& v) {
                 return VectorSlots(v, [&](const BufferView& b, size_t i) {
                   return w.Slot(b, entries[i].offset);
                 });
               }));
      }(*transport, w, std::move(entries), root, finish));
      break;
    }
    case Op::kScar:
      w.sim.Spawn([](RmaTransport& t, GoldenWorld& w, RegionId r, uint32_t len,
                     trace::SpanId root, Finish& finish) -> sim::Task<void> {
        StatusOr<ScarResult> out = co_await t.ScanAndRead(
            w.client, w.server, r, 64, 4 * len, 1024, len, root);
        finish(out.status(), GoldenWorld::Slots(out, [&](const ScarResult& s) {
                 return w.Slot(s, 64, 1024);
               }));
      }(*transport, w, r, len, root, finish));
      break;
    case Op::kScarV0:
    case Op::kScarV1:
    case Op::kScarV3: {
      std::vector<ScarVEntry> entries;
      if (op == Op::kScarV1) entries = {{r, 64, 4 * len, 1024, len}};
      if (op == Op::kScarV3) entries = scars;
      w.sim.Spawn([](RmaTransport& t, GoldenWorld& w,
                     std::vector<ScarVEntry> entries, trace::SpanId root,
                     Finish& finish) -> sim::Task<void> {
        auto out = co_await t.ScanAndReadV(w.client, w.server, entries, root);
        finish(out.status(),
               GoldenWorld::Slots(out, [&](const auto& v) {
                 return VectorSlots(v, [&](const ScarResult& s, size_t i) {
                   return w.Slot(s, entries[i].bucket_offset,
                                 entries[i].hash_hi);
                 });
               }));
      }(*transport, w, std::move(entries), root, finish));
      break;
    }
    case Op::kMessage:
      // The handler echoes the request (or nothing, for the empty payload)
      // and fails while the window is revoked.
      w.sim.Spawn([](SoftNicTransport& t, GoldenWorld& w, uint32_t len,
                     trace::SpanId root, Finish& finish) -> sim::Task<void> {
        StatusOr<Bytes> out = co_await t.Message(
            w.client, w.server, ToBytes("request"),
            [&w, len](ByteSpan req) -> sim::Task<StatusOr<Bytes>> {
              if (!w.registry.IsLive(w.region)) {
                co_return PermissionDeniedError("window revoked");
              }
              co_return len == 0 ? Bytes() : Bytes(req.begin(), req.end());
            },
            sim::Microseconds(1), root);
        finish(out.status(), out.ok()
                                 ? " [" + std::to_string(out->size()) + "]"
                                 : "");
      }(static_cast<SoftNicTransport&>(*transport), w, len, root, finish));
      break;
  }
  w.sim.Run();
  w.tracer().End(root);

  std::string row = std::string(hw ? "hw " : "softnic ") +
                    kOpNames[static_cast<int>(op)] + " " +
                    kOutcomeNames[static_cast<int>(outcome)] +
                    ": t=" + std::to_string(done) + " " + result;
  const RmaStats& s = transport->stats();
#define CM_GOLDEN_STAT(f) \
  if (s.f != 0) row += " " #f "=" + std::to_string(s.f);
  CM_RMA_STATS(CM_GOLDEN_STAT)
#undef CM_GOLDEN_STAT
  for (const trace::Span& span : w.tracer().Completed()) {
    if (std::string(span.name).rfind("rma_", 0) == 0) {
      row += std::string(" span=") + span.name + ":" +
             std::to_string(span.arg);
    }
  }
  return row;
}

TEST(RmaGolden, PerOpTransportTable) {
  std::vector<std::string> rows;
  for (bool hw : {false, true}) {
    for (int op = 0; op <= static_cast<int>(Op::kMessage); ++op) {
      if (hw && static_cast<Op>(op) == Op::kMessage) continue;
      // An op that never reaches the wire (an empty vector, or SCAR on
      // hardware) has one row: no outcome can change it.
      const bool wireless = static_cast<Op>(op) == Op::kReadV0 ||
                            static_cast<Op>(op) == Op::kScarV0 ||
                            (hw && static_cast<Op>(op) >= Op::kScar);
      const int last =
          wireless ? 0 : static_cast<int>(Outcome::kCompletionCorrupt);
      for (int o = 0; o <= last; ++o) {
        rows.push_back(GoldenRow(hw, static_cast<Op>(op),
                                 static_cast<Outcome>(o)));
      }
    }
  }
  const std::vector<std::string> golden = {
      "softnic Read ok: t=4988 OK [16] reads=1 initiator_nic_ns=525 "
      "target_nic_ns=420 span=rma_read:16",
      "softnic Read cmd_drop: t=1000373 DEADLINE_EXCEEDED reads=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 span=rma_read:-1",
      "softnic Read cmd_corrupt: t=1002373 DEADLINE_EXCEEDED reads=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 span=rma_read:-1",
      "softnic Read no_host: t=4810 UNAVAILABLE reads=1 failed_ops=1 "
      "initiator_nic_ns=350 target_nic_ns=420 span=rma_read:-1",
      "softnic Read revoked: t=4810 PERMISSION_DENIED reads=1 "
      "failed_ops=1 initiator_nic_ns=350 target_nic_ns=420 "
      "span=rma_read:-1",
      "softnic Read cpl_drop: t=1002813 DEADLINE_EXCEEDED reads=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 "
      "target_nic_ns=420 span=rma_read:-1",
      "softnic Read cpl_corrupt_empty: t=4985 OK [0] reads=1 "
      "initiator_nic_ns=525 target_nic_ns=420 span=rma_read:0",
      "softnic Read cpl_corrupt: t=4988 OK [16*] reads=1 "
      "corrupt_deliveries=1 initiator_nic_ns=525 target_nic_ns=420 "
      "span=rma_read:16",
      "softnic ReadV0 ok: t=0 OK [] vector_reads=1 span=rma_readv:0",
      "softnic ReadV1 ok: t=4989 OK [16] vector_reads=1 "
      "vector_entries=1 initiator_nic_ns=525 target_nic_ns=420 "
      "span=rma_readv:16",
      "softnic ReadV1 cmd_drop: t=1000373 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_readv:-1",
      "softnic ReadV1 cmd_corrupt: t=1002373 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_readv:-1",
      "softnic ReadV1 no_host: t=4810 UNAVAILABLE vector_reads=1 "
      "vector_entries=1 failed_ops=1 initiator_nic_ns=350 "
      "target_nic_ns=420 span=rma_readv:-1",
      "softnic ReadV1 revoked: t=4986 OK [PERMISSION_DENIED] "
      "vector_reads=1 vector_entries=1 initiator_nic_ns=525 "
      "target_nic_ns=420 span=rma_readv:0",
      "softnic ReadV1 cpl_drop: t=1002814 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 target_nic_ns=420 span=rma_readv:-1",
      "softnic ReadV1 cpl_corrupt_empty: t=4986 OK [0] vector_reads=1 "
      "vector_entries=1 corrupt_deliveries=1 initiator_nic_ns=525 "
      "target_nic_ns=420 span=rma_readv:0",
      "softnic ReadV1 cpl_corrupt: t=4989 OK [16*] vector_reads=1 "
      "vector_entries=1 corrupt_deliveries=1 initiator_nic_ns=525 "
      "target_nic_ns=420 span=rma_readv:16",
      "softnic ReadV3 ok: t=5237 OK [0,PERMISSION_DENIED,32] "
      "vector_reads=1 vector_entries=3 initiator_nic_ns=525 "
      "target_nic_ns=660 span=rma_readv:32",
      "softnic ReadV3 cmd_drop: t=1000378 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_readv:-1",
      "softnic ReadV3 cmd_corrupt: t=1002378 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_readv:-1",
      "softnic ReadV3 no_host: t=5055 UNAVAILABLE vector_reads=1 "
      "vector_entries=3 failed_ops=1 initiator_nic_ns=350 "
      "target_nic_ns=660 span=rma_readv:-1",
      "softnic ReadV3 revoked: t=5232 OK "
      "[PERMISSION_DENIED,PERMISSION_DENIED,PERMISSION_DENIED] "
      "vector_reads=1 vector_entries=3 initiator_nic_ns=525 "
      "target_nic_ns=660 span=rma_readv:0",
      "softnic ReadV3 cpl_drop: t=1003062 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 target_nic_ns=660 span=rma_readv:-1",
      "softnic ReadV3 cpl_corrupt_empty: t=5232 OK "
      "[0,PERMISSION_DENIED,0] vector_reads=1 vector_entries=3 "
      "corrupt_deliveries=1 initiator_nic_ns=525 target_nic_ns=660 "
      "span=rma_readv:0",
      "softnic ReadV3 cpl_corrupt: t=5237 OK [0,PERMISSION_DENIED,32*] "
      "vector_reads=1 vector_entries=3 corrupt_deliveries=1 "
      "initiator_nic_ns=525 target_nic_ns=660 span=rma_readv:32",
      "softnic Scar ok: t=5106 OK [b64/d16] scars=1 "
      "initiator_nic_ns=525 target_nic_ns=528 span=rma_scar:80",
      "softnic Scar cmd_drop: t=1000373 DEADLINE_EXCEEDED scars=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 span=rma_scar:-1",
      "softnic Scar cmd_corrupt: t=1002373 DEADLINE_EXCEEDED scars=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 span=rma_scar:-1",
      "softnic Scar no_host: t=4390 UNIMPLEMENTED scars=1 failed_ops=1 "
      "initiator_nic_ns=350 span=rma_scar:-1",
      "softnic Scar revoked: t=4918 PERMISSION_DENIED scars=1 "
      "failed_ops=1 initiator_nic_ns=350 target_nic_ns=528 "
      "span=rma_scar:-1",
      "softnic Scar cpl_drop: t=1002931 DEADLINE_EXCEEDED scars=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 "
      "target_nic_ns=528 span=rma_scar:-1",
      "softnic Scar cpl_corrupt_empty: t=5085 OK [b0/d0] scars=1 "
      "corrupt_deliveries=1 initiator_nic_ns=525 target_nic_ns=520 "
      "span=rma_scar:0",
      "softnic Scar cpl_corrupt: t=5106 OK [b64/d16*] scars=1 "
      "corrupt_deliveries=1 initiator_nic_ns=525 target_nic_ns=528 "
      "span=rma_scar:80",
      "softnic ScarV0 ok: t=0 OK [] vector_scars=1 span=rma_scarv:0",
      "softnic ScarV1 ok: t=5107 OK [b64/d16] vector_scars=1 "
      "vector_entries=1 initiator_nic_ns=525 target_nic_ns=528 "
      "span=rma_scarv:80",
      "softnic ScarV1 cmd_drop: t=1000373 DEADLINE_EXCEEDED "
      "vector_scars=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_scarv:-1",
      "softnic ScarV1 cmd_corrupt: t=1002373 DEADLINE_EXCEEDED "
      "vector_scars=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_scarv:-1",
      "softnic ScarV1 no_host: t=4390 UNIMPLEMENTED vector_scars=1 "
      "vector_entries=1 failed_ops=1 initiator_nic_ns=350 "
      "span=rma_scarv:-1",
      "softnic ScarV1 revoked: t=5094 OK [PERMISSION_DENIED] "
      "vector_scars=1 vector_entries=1 initiator_nic_ns=525 "
      "target_nic_ns=528 span=rma_scarv:0",
      "softnic ScarV1 cpl_drop: t=1002932 DEADLINE_EXCEEDED "
      "vector_scars=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 target_nic_ns=528 span=rma_scarv:-1",
      "softnic ScarV1 cpl_corrupt_empty: t=5086 OK [b0/d0] "
      "vector_scars=1 vector_entries=1 corrupt_deliveries=1 "
      "initiator_nic_ns=525 target_nic_ns=520 span=rma_scarv:0",
      "softnic ScarV1 cpl_corrupt: t=5107 OK [b64/d16*] vector_scars=1 "
      "vector_entries=1 corrupt_deliveries=1 initiator_nic_ns=525 "
      "target_nic_ns=528 span=rma_scarv:80",
      "softnic ScarV3 ok: t=5369 OK [b32/d0,PERMISSION_DENIED,b64/d32] "
      "vector_scars=1 vector_entries=3 initiator_nic_ns=525 "
      "target_nic_ns=776 span=rma_scarv:128",
      "softnic ScarV3 cmd_drop: t=1000378 DEADLINE_EXCEEDED "
      "vector_scars=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_scarv:-1",
      "softnic ScarV3 cmd_corrupt: t=1002378 DEADLINE_EXCEEDED "
      "vector_scars=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 span=rma_scarv:-1",
      "softnic ScarV3 no_host: t=4395 UNIMPLEMENTED vector_scars=1 "
      "vector_entries=3 failed_ops=1 initiator_nic_ns=350 "
      "span=rma_scarv:-1",
      "softnic ScarV3 revoked: t=5348 OK "
      "[PERMISSION_DENIED,PERMISSION_DENIED,PERMISSION_DENIED] "
      "vector_scars=1 vector_entries=3 initiator_nic_ns=525 "
      "target_nic_ns=776 span=rma_scarv:0",
      "softnic ScarV3 cpl_drop: t=1003194 DEADLINE_EXCEEDED "
      "vector_scars=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=350 target_nic_ns=776 span=rma_scarv:-1",
      "softnic ScarV3 cpl_corrupt_empty: t=5332 OK "
      "[b0/d0,PERMISSION_DENIED,b0/d0] vector_scars=1 vector_entries=3 "
      "corrupt_deliveries=1 initiator_nic_ns=525 target_nic_ns=760 "
      "span=rma_scarv:0",
      "softnic ScarV3 cpl_corrupt: t=5369 OK "
      "[b32/d0,PERMISSION_DENIED,b64/d32*] vector_scars=1 "
      "vector_entries=3 corrupt_deliveries=1 initiator_nic_ns=525 "
      "target_nic_ns=776 span=rma_scarv:128",
      "softnic Message ok: t=7988 OK [7] messages=1 "
      "initiator_nic_ns=525 target_nic_ns=2420 span=rma_msg:7",
      "softnic Message cmd_drop: t=1000374 DEADLINE_EXCEEDED messages=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 span=rma_msg:-1",
      "softnic Message cmd_corrupt: t=1002374 DEADLINE_EXCEEDED "
      "messages=1 failed_ops=1 op_timeouts=1 initiator_nic_ns=350 "
      "span=rma_msg:-1",
      "softnic Message no_host: t=7988 OK [7] messages=1 "
      "initiator_nic_ns=525 target_nic_ns=2420 span=rma_msg:7",
      "softnic Message revoked: t=7811 PERMISSION_DENIED messages=1 "
      "failed_ops=1 initiator_nic_ns=350 target_nic_ns=2420 "
      "span=rma_msg:-1",
      "softnic Message cpl_drop: t=1005813 DEADLINE_EXCEEDED messages=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=350 "
      "target_nic_ns=2420 span=rma_msg:-1",
      "softnic Message cpl_corrupt_empty: t=1007811 DEADLINE_EXCEEDED "
      "messages=1 failed_ops=1 op_timeouts=1 initiator_nic_ns=350 "
      "target_nic_ns=2420 span=rma_msg:-1",
      "softnic Message cpl_corrupt: t=1007813 DEADLINE_EXCEEDED "
      "messages=1 failed_ops=1 op_timeouts=1 initiator_nic_ns=350 "
      "target_nic_ns=2420 span=rma_msg:-1",
      "hw Read ok: t=5244 OK [16] reads=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_read:16",
      "hw Read cmd_drop: t=1000323 DEADLINE_EXCEEDED reads=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=300 span=rma_read:-1",
      "hw Read cmd_corrupt: t=1002323 DEADLINE_EXCEEDED reads=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=300 span=rma_read:-1",
      "hw Read no_host: t=5241 UNAVAILABLE reads=1 failed_ops=1 "
      "initiator_nic_ns=300 target_nic_ns=300 span=rma_read:-1",
      "hw Read revoked: t=5241 PERMISSION_DENIED reads=1 failed_ops=1 "
      "initiator_nic_ns=300 target_nic_ns=300 span=rma_read:-1",
      "hw Read cpl_drop: t=1003244 DEADLINE_EXCEEDED reads=1 "
      "failed_ops=1 op_timeouts=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_read:-1",
      "hw Read cpl_corrupt_empty: t=5241 OK [0] reads=1 "
      "initiator_nic_ns=300 target_nic_ns=300 span=rma_read:0",
      "hw Read cpl_corrupt: t=5244 OK [16*] reads=1 "
      "corrupt_deliveries=1 initiator_nic_ns=300 target_nic_ns=300 "
      "span=rma_read:16",
      "hw ReadV0 ok: t=0 OK [] vector_reads=1 span=rma_readv:0",
      "hw ReadV1 ok: t=5245 OK [16] vector_reads=1 vector_entries=1 "
      "initiator_nic_ns=300 target_nic_ns=300 span=rma_readv:16",
      "hw ReadV1 cmd_drop: t=1000323 DEADLINE_EXCEEDED vector_reads=1 "
      "vector_entries=1 failed_ops=1 op_timeouts=1 initiator_nic_ns=300 "
      "span=rma_readv:-1",
      "hw ReadV1 cmd_corrupt: t=1002323 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=1 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=300 span=rma_readv:-1",
      "hw ReadV1 no_host: t=5241 UNAVAILABLE vector_reads=1 "
      "vector_entries=1 failed_ops=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:-1",
      "hw ReadV1 revoked: t=5242 OK [PERMISSION_DENIED] vector_reads=1 "
      "vector_entries=1 initiator_nic_ns=300 target_nic_ns=300 "
      "span=rma_readv:0",
      "hw ReadV1 cpl_drop: t=1003245 DEADLINE_EXCEEDED vector_reads=1 "
      "vector_entries=1 failed_ops=1 op_timeouts=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:-1",
      "hw ReadV1 cpl_corrupt_empty: t=5242 OK [0] vector_reads=1 "
      "vector_entries=1 corrupt_deliveries=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:0",
      "hw ReadV1 cpl_corrupt: t=5245 OK [16*] vector_reads=1 "
      "vector_entries=1 corrupt_deliveries=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:16",
      "hw ReadV3 ok: t=5255 OK [0,PERMISSION_DENIED,32] vector_reads=1 "
      "vector_entries=3 initiator_nic_ns=300 target_nic_ns=300 "
      "span=rma_readv:32",
      "hw ReadV3 cmd_drop: t=1000328 DEADLINE_EXCEEDED vector_reads=1 "
      "vector_entries=3 failed_ops=1 op_timeouts=1 initiator_nic_ns=300 "
      "span=rma_readv:-1",
      "hw ReadV3 cmd_corrupt: t=1002328 DEADLINE_EXCEEDED "
      "vector_reads=1 vector_entries=3 failed_ops=1 op_timeouts=1 "
      "initiator_nic_ns=300 span=rma_readv:-1",
      "hw ReadV3 no_host: t=5248 UNAVAILABLE vector_reads=1 "
      "vector_entries=3 failed_ops=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:-1",
      "hw ReadV3 revoked: t=5250 OK "
      "[PERMISSION_DENIED,PERMISSION_DENIED,PERMISSION_DENIED] "
      "vector_reads=1 vector_entries=3 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:0",
      "hw ReadV3 cpl_drop: t=1003255 DEADLINE_EXCEEDED vector_reads=1 "
      "vector_entries=3 failed_ops=1 op_timeouts=1 initiator_nic_ns=300 "
      "target_nic_ns=300 span=rma_readv:-1",
      "hw ReadV3 cpl_corrupt_empty: t=5248 OK [0,PERMISSION_DENIED,0] "
      "vector_reads=1 vector_entries=3 corrupt_deliveries=1 "
      "initiator_nic_ns=300 target_nic_ns=300 span=rma_readv:0",
      "hw ReadV3 cpl_corrupt: t=5255 OK [0,PERMISSION_DENIED,32*] "
      "vector_reads=1 vector_entries=3 corrupt_deliveries=1 "
      "initiator_nic_ns=300 target_nic_ns=300 span=rma_readv:32",
      "hw Scar ok: t=0 UNIMPLEMENTED failed_ops=1",
      "hw ScarV0 ok: t=0 UNIMPLEMENTED failed_ops=1",
      "hw ScarV1 ok: t=0 UNIMPLEMENTED failed_ops=1",
      "hw ScarV3 ok: t=0 UNIMPLEMENTED failed_ops=1",
  };
  ASSERT_EQ(rows.size(), golden.size());
  for (size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], golden[i]);
}

}  // namespace
}  // namespace cm::rma
