#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/checksum.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/recency_map.h"
#include "common/rng.h"
#include "common/status.h"

namespace cm {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "key missing");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: key missing");
}

TEST(Status, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOr, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(0), 42);
}

TEST(StatusOr, HoldsError) {
  StatusOr<int> v = AbortedError("race");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kAborted);
  EXPECT_EQ(v.value_or(-1), -1);
}

TEST(Hash, DeterministicAndSpread) {
  Hash128 a = HashKey("key-1");
  Hash128 b = HashKey("key-1");
  Hash128 c = HashKey("key-2");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_FALSE(a.is_zero());
}

TEST(Hash, NoCollisionsOnSmallCorpus) {
  std::set<std::pair<uint64_t, uint64_t>> seen;
  for (int i = 0; i < 100000; ++i) {
    Hash128 h = HashKey("key-" + std::to_string(i));
    EXPECT_TRUE(seen.emplace(h.hi, h.lo).second) << "collision at " << i;
  }
}

TEST(Hash, EmptyAndLongKeys) {
  EXPECT_NE(HashKey(""), HashKey("x"));
  std::string longkey(10000, 'a');
  EXPECT_NE(HashKey(longkey), HashKey(longkey + "a"));
}

TEST(Hash, BucketSelectionIsUniformish) {
  constexpr int kBuckets = 64;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < 64000; ++i) {
    Hash128 h = HashKey("uniform-" + std::to_string(i));
    counts[Mix64(h.lo) % kBuckets]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(Crc32c, KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (iSCSI test vector).
  EXPECT_EQ(ComputeCrc32c(AsByteSpan("123456789")), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(ComputeCrc32c(ByteSpan{}), 0u); }

TEST(Crc32c, IncrementalMatchesOneShot) {
  Crc32c inc;
  inc.Update(AsByteSpan("hello ")).Update(AsByteSpan("world"));
  EXPECT_EQ(inc.value(), ComputeCrc32c(AsByteSpan("hello world")));
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = ToBytes("the quick brown fox");
  uint32_t clean = ComputeCrc32c(data);
  data[5] ^= std::byte{0x01};
  EXPECT_NE(ComputeCrc32c(data), clean);
}

TEST(Crc32c, IntegerUpdatesMatchByteEncoding) {
  Crc32c a;
  a.UpdateU32(0xdeadbeef).UpdateU64(0x0123456789abcdefull);
  std::byte buf[12];
  StoreU32(buf, 0xdeadbeef);
  StoreU64(buf + 4, 0x0123456789abcdefull);
  EXPECT_EQ(a.value(), ComputeCrc32c(ByteSpan(buf, 12)));
}

// Bit-at-a-time CRC32C straight from the reflected polynomial: the
// definition both kernels must reproduce.
uint32_t BitwiseCrc32c(uint32_t crc, const uint8_t* p, size_t n) {
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0x82f63b78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

using Crc32cKernel = uint32_t (*)(uint32_t, const uint8_t*, size_t);

void ExpectKnownVectors(Crc32cKernel extend) {
  const auto* digits = reinterpret_cast<const uint8_t*>("123456789");
  EXPECT_EQ(extend(0, digits, 9), 0xE3069283u);
  EXPECT_EQ(extend(0, digits, 0), 0u);
  EXPECT_EQ(extend(0, nullptr, 0), 0u);
}

// Every length 0..4100 at every start offset 0..7 into one buffer (so the
// 8-byte word loop sees every alignment and every tail length), one-shot
// and fed in pieces at seeded random split points.
void ExpectMatchesBitwise(Crc32cKernel extend) {
  constexpr size_t kMaxLen = 4100;
  Rng rng(0xC5C32C);
  std::vector<uint8_t> buf(kMaxLen + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    uint32_t want = 0;  // bitwise CRC of p[0, len), extended a byte a time
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) want = BitwiseCrc32c(want, p + len - 1, 1);
      ASSERT_EQ(extend(0, p, len), want) << "offset " << offset << " len "
                                         << len;
      uint32_t crc = 0;
      for (size_t pos = 0; pos < len;) {
        size_t piece = 1 + rng.NextBounded(len - pos);
        crc = extend(crc, p + pos, piece);
        pos += piece;
      }
      ASSERT_EQ(crc, want) << "split: offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32cKernels, PortableKnownVectors) {
  ExpectKnownVectors(crc32c_internal::ExtendPortable);
}

TEST(Crc32cKernels, HwKnownVectors) {
  if (!crc32c_internal::HwAvailable()) GTEST_SKIP() << "no SSE4.2 crc32";
  ExpectKnownVectors(crc32c_internal::ExtendHw);
}

TEST(Crc32cKernels, PortableMatchesBitwiseReference) {
  ExpectMatchesBitwise(crc32c_internal::ExtendPortable);
}

TEST(Crc32cKernels, HwMatchesBitwiseReference) {
  if (!crc32c_internal::HwAvailable()) GTEST_SKIP() << "no SSE4.2 crc32";
  ExpectMatchesBitwise(crc32c_internal::ExtendHw);
}

// The hardware kernel's three-lane blocks against the portable kernel:
// every length 0..4096, every misaligned start, a nonzero starting CRC, and
// lengths one either side of each multiple of the lane and of the block.
TEST(Crc32cKernels, HwLanesMatchPortable) {
  if (!crc32c_internal::HwAvailable()) GTEST_SKIP() << "no SSE4.2 crc32";
  using crc32c_internal::ExtendHw;
  using crc32c_internal::ExtendPortable;
  using crc32c_internal::kHwLaneBytes;
  Rng rng(0x3A7E5);
  std::vector<uint8_t> buf(8 * 3 * kHwLaneBytes + 16);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t len = 0; len <= 4096; ++len) {
    ASSERT_EQ(ExtendHw(0, buf.data(), len), ExtendPortable(0, buf.data(), len))
        << "len " << len;
  }
  std::vector<size_t> edges;
  for (size_t k = 1; k <= 8 * 3; ++k) {
    for (size_t len : {k * kHwLaneBytes - 1, k * kHwLaneBytes,
                       k * kHwLaneBytes + 1}) {
      edges.push_back(len);
    }
  }
  for (size_t offset = 1; offset < 16; ++offset) {
    const uint8_t* p = buf.data() + offset;
    for (size_t len : edges) {
      if (offset + len > buf.size()) continue;
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(ExtendHw(seed, p, len), ExtendPortable(seed, p, len))
            << "offset " << offset << " len " << len << " seed " << seed;
      }
    }
  }
}

// Crc32c::Update chained over pieces that straddle lane and block edges
// equals one call over the whole.
TEST(Crc32cKernels, ChainedUpdatesAcrossLanesMatchOneShot) {
  using crc32c_internal::kHwLaneBytes;
  Rng rng(77);
  Bytes data(10 * 3 * kHwLaneBytes + 5);
  for (auto& b : data) b = static_cast<std::byte>(rng.NextU64());
  const uint32_t whole = ComputeCrc32c(data);
  EXPECT_EQ(whole, crc32c_internal::ExtendPortable(
                       0, reinterpret_cast<const uint8_t*>(data.data()),
                       data.size()));
  for (size_t first : {size_t{1}, kHwLaneBytes - 1, 3 * kHwLaneBytes - 1,
                       3 * kHwLaneBytes, 3 * kHwLaneBytes + 1,
                       7 * kHwLaneBytes + 3}) {
    Crc32c inc;
    inc.Update(ByteSpan(data).subspan(0, first));
    for (size_t pos = first; pos < data.size();) {
      const size_t piece = std::min<size_t>(data.size() - pos,
                                            1 + rng.NextBounded(2000));
      inc.Update(ByteSpan(data).subspan(pos, piece));
      pos += piece;
    }
    EXPECT_EQ(inc.value(), whole) << "first piece " << first;
  }
}

TEST(Crc32cKernels, KernelsAgreeWithEachOtherAndTheDispatcher) {
  Rng rng(42);
  Bytes data(70000);
  for (auto& b : data) b = static_cast<std::byte>(rng.NextU64());
  const auto* p = reinterpret_cast<const uint8_t*>(data.data());
  for (int trial = 0; trial < 200; ++trial) {
    size_t offset = rng.NextBounded(64);
    size_t len = rng.NextBounded(data.size() - offset + 1);
    uint32_t portable = crc32c_internal::ExtendPortable(0, p + offset, len);
    EXPECT_EQ(ComputeCrc32c(ByteSpan(data).subspan(offset, len)), portable);
    if (crc32c_internal::HwAvailable()) {
      EXPECT_EQ(crc32c_internal::ExtendHw(0, p + offset, len), portable);
    }
  }
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(11);
  Rng b = a.Fork();
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(Rng, NormalMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.NextNormal(100.0, 10.0);
  EXPECT_NEAR(sum / 20000, 100.0, 1.0);
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng(17);
  ZipfSampler z(100, 0.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) counts[z.Sample(rng)]++;
  for (int c : counts) EXPECT_GT(c, 500);
}

TEST(Zipf, SkewedWhenThetaHigh) {
  Rng rng(19);
  ZipfSampler z(10000, 0.99);
  int head = 0;
  for (int i = 0; i < 100000; ++i) {
    if (z.Sample(rng) < 100) ++head;
  }
  // With theta=0.99, the top 1% of keys should absorb a large share.
  EXPECT_GT(head, 40000);
}

TEST(Zipf, AlwaysInRange) {
  Rng rng(23);
  ZipfSampler z(50, 0.9);
  for (int i = 0; i < 50000; ++i) EXPECT_LT(z.Sample(rng), 50u);
}

TEST(Histogram, PercentilesOrdered) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Record(i);
  EXPECT_EQ(h.count(), 10000);
  int64_t p50 = h.Percentile(0.5);
  int64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_NEAR(double(p50), 5000.0, 500.0);
  EXPECT_NEAR(double(p99), 9900.0, 600.0);
}

TEST(Histogram, MinMaxMean) {
  Histogram h;
  h.Record(10);
  h.Record(20);
  h.Record(30);
  EXPECT_EQ(h.min(), 10);
  EXPECT_EQ(h.max(), 30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Record(1);
  for (int i = 0; i < 100; ++i) b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 1000000);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  h.Record(int64_t{1} << 40);
  EXPECT_GT(h.Percentile(0.5), int64_t{1} << 39);
}

TEST(Histogram, ResolvesTightLatencyDistributions) {
  // Regression for the fig07 percentile collapse: with 16 sub-buckets per
  // log2 range (~6.25% resolution), every sample of a realistic CPU-per-op
  // distribution clustered around ~11.5us landed in ONE bucket and
  // p50 == p90 == p99. 64 sub-buckets (~1.6%) must keep the tail separated.
  Histogram h;
  for (int i = 0; i < 9000; ++i) h.Record(11200 + (i % 400));   // body
  for (int i = 0; i < 800; ++i) h.Record(12400 + (i % 300));    // shoulder
  for (int i = 0; i < 200; ++i) h.Record(14000 + (i * 5) % 1000);  // tail
  const int64_t p50 = h.Percentile(0.5);
  const int64_t p90 = h.Percentile(0.9);
  const int64_t p99 = h.Percentile(0.99);
  EXPECT_LT(p50, p90);
  EXPECT_LT(p90, p99);
  // Bucket midpoints stay within ~2% of the true sample quantiles.
  EXPECT_NEAR(double(p50), 11400.0, 250.0);
  EXPECT_NEAR(double(p99), 14500.0, 350.0);
}

TEST(Histogram, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.99), 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

// ---------------------------------------------------------------------------
// RecencyMap, against a std::list + std::unordered_map reference
// ---------------------------------------------------------------------------

// The reference: front of `order` = most recent.
struct RefRecency {
  std::list<Hash128> order;
  std::unordered_map<Hash128, std::pair<int, std::list<Hash128>::iterator>>
      index;

  void Put(const Hash128& k, int v) {
    Erase(k);
    order.push_front(k);
    index[k] = {v, order.begin()};
  }
  bool MoveToFront(const Hash128& k) {
    auto it = index.find(k);
    if (it == index.end()) return false;
    order.splice(order.begin(), order, it->second.second);
    return true;
  }
  bool Erase(const Hash128& k) {
    auto it = index.find(k);
    if (it == index.end()) return false;
    order.erase(it->second.second);
    index.erase(it);
    return true;
  }
};

// The map's full front-to-back order (an EraseIf that erases nothing).
std::vector<Hash128> OrderOf(RecencyMap<int>& m) {
  std::vector<Hash128> keys;
  m.EraseIf([&keys](const Hash128& k, int) {
    keys.push_back(k);
    return false;
  });
  return keys;
}

void ExpectSame(RecencyMap<int>& m, const RefRecency& ref) {
  ASSERT_EQ(m.size(), ref.index.size());
  ASSERT_EQ(m.empty(), ref.index.empty());
  const std::vector<Hash128> want(ref.order.begin(), ref.order.end());
  ASSERT_EQ(OrderOf(m), want);
  if (!want.empty()) {
    ASSERT_EQ(m.Back(), want.back());
  }
  for (const auto& [k, entry] : ref.index) {
    const int* v = m.Find(k);
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(*v, entry.first);
  }
}

// Runs `ops` seeded operations over `universe` keys, checking every result
// and, every `check_every` ops, the whole map.
void RunRecencyStream(uint64_t seed, int universe, int ops, int check_every) {
  Rng rng(seed);
  RecencyMap<int> m;
  RefRecency ref;
  auto key = [&rng, universe] {
    return HashKey("k" + std::to_string(rng.NextBounded(universe)));
  };
  for (int op = 0; op < ops; ++op) {
    const uint64_t roll = rng.NextBounded(100);
    const Hash128 k = key();
    if (roll < 40) {
      const int v = static_cast<int>(rng.NextBounded(1000));
      ASSERT_EQ(m.Put(k, v), v);
      ref.Put(k, v);
    } else if (roll < 55) {
      const int* got = m.MoveToFront(k);
      ASSERT_EQ(got != nullptr, ref.MoveToFront(k)) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, ref.index.at(k).first);
      }
    } else if (roll < 85) {
      ASSERT_EQ(m.Erase(k), ref.Erase(k)) << "op " << op;
    } else if (roll < 95) {
      const int* got = m.Find(k);
      const auto it = ref.index.find(k);
      ASSERT_EQ(got != nullptr, it != ref.index.end()) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second.first);
      }
    } else if (roll < 99) {
      // Erase a value class mid-walk; the walk must still visit everything
      // else in order and return the exact count.
      const int parity = static_cast<int>(rng.NextBounded(2));
      std::vector<Hash128> visited;
      const size_t erased = m.EraseIf([&](const Hash128& kk, int v) {
        visited.push_back(kk);
        return v % 2 == parity;
      });
      const std::vector<Hash128> want(ref.order.begin(), ref.order.end());
      ASSERT_EQ(visited, want) << "op " << op;
      size_t want_erased = 0;
      for (const Hash128& kk : want) {
        if (ref.index.at(kk).first % 2 == parity) {
          ref.Erase(kk);
          ++want_erased;
        }
      }
      ASSERT_EQ(erased, want_erased);
    } else {
      m.Clear();
      ref.order.clear();
      ref.index.clear();
    }
    if (op % check_every == 0) ExpectSame(m, ref);
  }
  ExpectSame(m, ref);
}

TEST(RecencyMap, MatchesListAndHashMapReference) {
  // 8 keys never grow the 16-slot table past half full, so probe runs are
  // long and often wrap past the last slot; 5000 keys grow it to thousands
  // of slots.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunRecencyStream(seed, 8, 20000, 1);
    RunRecencyStream(seed, 5000, 60000, 997);
  }
}

// Keys whose home slot in a 16-slot table is known: the table's tag is the
// high half of (lo ^ hi * C) * K, so with hi = 0 a lo of (home << 60 | d) *
// K^-1 lands in `home`. (If the mix changes, these keys still test a valid
// table, just not this exact layout.)
Hash128 KeyWithHome16(uint64_t home, uint64_t d) {
  constexpr uint64_t kK = 0x9e3779b97f4a7c15ull;
  uint64_t inv = kK;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) inv *= 2 - kK * inv;
  return Hash128{0, ((home << 60) | d) * inv};
}

TEST(RecencyMap, WrapAroundRunDeletesCleanly) {
  RecencyMap<int> m;
  const Hash128 a = KeyWithHome16(15, 1);  // slot 15
  const Hash128 b = KeyWithHome16(15, 2);  // wraps to slot 0
  const Hash128 c = KeyWithHome16(0, 3);   // pushed to slot 1
  const Hash128 d = KeyWithHome16(14, 4);  // slot 14, ahead of the run
  m.Put(d, 4);
  m.Put(a, 1);
  m.Put(b, 2);
  m.Put(c, 3);
  // Deleting the head of the wrapped run shifts b and c back across the
  // boundary; d, before the run, stays put.
  ASSERT_TRUE(m.Erase(a));
  EXPECT_EQ(m.Find(a), nullptr);
  ASSERT_NE(m.Find(b), nullptr);
  EXPECT_EQ(*m.Find(b), 2);
  ASSERT_NE(m.Find(c), nullptr);
  EXPECT_EQ(*m.Find(c), 3);
  ASSERT_NE(m.Find(d), nullptr);
  ASSERT_TRUE(m.Erase(b));
  ASSERT_NE(m.Find(c), nullptr);
  m.Put(a, 5);
  EXPECT_EQ(*m.Find(a), 5);
  EXPECT_EQ(*m.Find(c), 3);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.Back(), d);
}

}  // namespace
}  // namespace cm
