#include "gpusim/l2_cache.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/random.h"

namespace biosim::gpusim {
namespace {

TEST(L2CacheTest, ColdMissThenHit) {
  L2Cache l2(4096, 128, 4);
  EXPECT_FALSE(l2.Access(0));
  EXPECT_TRUE(l2.Access(0));
  EXPECT_TRUE(l2.Access(64));  // same line
  EXPECT_FALSE(l2.Access(128));  // next line
}

TEST(L2CacheTest, LruEvictionWithinSet) {
  // 4-way set: fill a set with 4 lines, touch the first again, insert a
  // fifth; the least-recently-used (second) line must be the victim.
  L2Cache l2(/*capacity=*/128 * 4 * 8, /*line=*/128, /*assoc=*/4);  // 8 sets
  size_t sets = l2.num_sets();
  auto addr_for_set0 = [&](uint64_t k) { return k * sets * 128; };
  for (uint64_t k = 0; k < 4; ++k) {
    EXPECT_FALSE(l2.Access(addr_for_set0(k)));
  }
  EXPECT_TRUE(l2.Access(addr_for_set0(0)));   // refresh line 0
  EXPECT_FALSE(l2.Access(addr_for_set0(4)));  // evicts line 1
  EXPECT_TRUE(l2.Access(addr_for_set0(0)));   // still resident
  EXPECT_FALSE(l2.Access(addr_for_set0(1)));  // was evicted
}

TEST(L2CacheTest, DistinctSetsDoNotInterfere) {
  L2Cache l2(128 * 4 * 8, 128, 4);
  // Lines in different sets never evict each other.
  for (uint64_t s = 0; s < 8; ++s) {
    EXPECT_FALSE(l2.Access(s * 128));
  }
  for (uint64_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(l2.Access(s * 128));
  }
}

TEST(L2CacheTest, ResetEmptiesCache) {
  L2Cache l2(4096, 128, 4);
  l2.Access(0);
  l2.Reset();
  EXPECT_FALSE(l2.Access(0));
}

TEST(L2CacheTest, TinyCapacityStillWorks) {
  L2Cache l2(/*capacity=*/64, /*line=*/128, /*assoc=*/16);  // degenerate
  EXPECT_GE(l2.num_sets(), 1u);
  EXPECT_FALSE(l2.Access(0));
}

/// The stamp-scan LRU the recency-ordered cache replaced, kept as the
/// oracle: every way carries the clock of its last use, a probe scans the
/// whole set, and a miss fills the way with the oldest stamp (the first
/// such way on ties, so invalid ways fill in index order).
class StampLru {
 public:
  StampLru(size_t capacity_bytes, int line_bytes, int associativity)
      : line_bytes_(static_cast<uint64_t>(line_bytes)),
        ways_(static_cast<size_t>(associativity)) {
    num_sets_ = capacity_bytes / (line_bytes_ * ways_);
    if (num_sets_ == 0) {
      num_sets_ = 1;
    }
    Reset();
  }

  bool Access(uint64_t addr) { return AccessLine(addr / line_bytes_); }

  bool AccessLine(uint64_t line) {
    const size_t set = static_cast<size_t>(line % num_sets_);
    uint64_t* tags = &tags_[set * ways_];
    uint64_t* st = &stamps_[set * ways_];
    ++clock_;
    size_t victim = 0;
    uint64_t oldest = ~uint64_t{0};
    for (size_t w = 0; w < ways_; ++w) {
      if (tags[w] == line) {
        st[w] = clock_;
        return true;
      }
      if (st[w] < oldest) {
        oldest = st[w];
        victim = w;
      }
    }
    tags[victim] = line;
    st[victim] = clock_;
    return false;
  }

  void Reset() {
    tags_.assign(num_sets_ * ways_, ~uint64_t{0});
    stamps_.assign(num_sets_ * ways_, 0);
    clock_ = 0;
  }

  size_t num_sets() const { return num_sets_; }

 private:
  uint64_t line_bytes_;
  size_t ways_;
  size_t num_sets_;
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> stamps_;
  uint64_t clock_ = 0;
};

constexpr int kLine = 128;

/// Runs `addrs` through both caches and returns the index of the first
/// probe whose hit/miss differs (addrs.size() when none does), so a failure
/// names where the two diverged. Also counts hits, so a stream that never
/// hits (or never misses) cannot pass vacuously. With `lines`, the stream
/// holds line indices for AccessLine instead of byte addresses.
size_t FirstDivergence(L2Cache* cache, StampLru* oracle,
                       const std::vector<uint64_t>& addrs, size_t* hits,
                       bool lines = false) {
  for (size_t i = 0; i < addrs.size(); ++i) {
    const bool want = lines ? oracle->AccessLine(addrs[i])
                            : oracle->Access(addrs[i]);
    const bool got =
        lines ? cache->AccessLine(addrs[i]) : cache->Access(addrs[i]);
    if (got != want) {
      return i;
    }
    *hits += want ? 1 : 0;
  }
  return addrs.size();
}

/// Seeded random lines from [base, base + span).
std::vector<uint64_t> RandomStream(uint64_t seed, uint64_t base,
                                   uint64_t span, size_t n) {
  Random rng(seed);
  std::vector<uint64_t> addrs(n);
  for (uint64_t& a : addrs) {
    a = (base + rng.UniformInt(span)) * kLine + rng.UniformInt(kLine);
  }
  return addrs;
}

/// `passes` sweeps of `count` lines `stride` lines apart from `base`.
std::vector<uint64_t> StridedStream(uint64_t base, uint64_t stride,
                                    size_t count, int passes) {
  std::vector<uint64_t> addrs;
  for (int p = 0; p < passes; ++p) {
    for (size_t k = 0; k < count; ++k) {
      addrs.push_back((base + k * stride) * kLine);
    }
  }
  return addrs;
}

struct Geometry {
  int ways;
  size_t sets;  // requested set count; non-powers of two on purpose
};

class LruOracleTest : public ::testing::TestWithParam<Geometry> {
 protected:
  size_t Capacity() const {
    return GetParam().sets * static_cast<size_t>(GetParam().ways) * kLine;
  }
  /// Enough distinct lines to overflow the cache about twice, so streams
  /// mix hits, conflict misses and capacity misses.
  uint64_t Span() const {
    return 2 * GetParam().sets * static_cast<uint64_t>(GetParam().ways);
  }

  /// Checks the stream against the oracle on fresh caches; returns the
  /// number of hits.
  size_t ExpectSameSequence(const std::vector<uint64_t>& addrs,
                            const char* what, bool lines = false) {
    L2Cache cache(Capacity(), kLine, GetParam().ways);
    StampLru oracle(Capacity(), kLine, GetParam().ways);
    EXPECT_EQ(cache.num_sets(), oracle.num_sets());
    size_t hits = 0;
    EXPECT_EQ(FirstDivergence(&cache, &oracle, addrs, &hits, lines),
              addrs.size())
        << what;
    return hits;
  }

  /// A random stream must both hit and miss, or it proves nothing.
  void ExpectMixedSameSequence(const std::vector<uint64_t>& addrs,
                               const char* what, bool lines = false) {
    const size_t hits = ExpectSameSequence(addrs, what, lines);
    EXPECT_GT(hits, 0u) << what;
    EXPECT_LT(hits, addrs.size()) << what;
  }
};

TEST_P(LruOracleTest, RandomStreamMatchesStampLru) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    ExpectMixedSameSequence(RandomStream(seed, 0, Span(), 20000), "random");
  }
}

TEST_P(LruOracleTest, StridedStreamsMatchStampLru) {
  const uint64_t sets = GetParam().sets;
  const size_t ways = static_cast<size_t>(GetParam().ways);
  // Stride 1 fills sets round-robin; stride `sets` piles every line into
  // one set; stride sets + 1 and a prime walk the sets in other orders.
  // A sweep that fits a set hits from the second pass on; one way more
  // thrashes LRU into all misses, and twice the capacity does both.
  size_t hits = 0;
  for (uint64_t stride : {uint64_t{1}, sets, sets + 1, uint64_t{7}}) {
    for (size_t count : {ways, ways + 1, static_cast<size_t>(Span())}) {
      hits += ExpectSameSequence(StridedStream(0, stride, count, 4),
                                 "strided");
    }
  }
  EXPECT_GT(hits, 0u);
}

TEST_P(LruOracleTest, LinesPast32BitsTakeTheModuloFallback) {
  // Line indices >= 2^32 leave the fastmod range; the stream straddles the
  // boundary so both index paths feed the same sets.
  const uint64_t boundary = uint64_t{1} << 32;
  ExpectMixedSameSequence(
      RandomStream(4, boundary - Span() / 2, Span(), 20000),
      "straddling 2^32");
  // A working set scattered over the whole line range (through
  // AccessLine; byte addresses stop at 2^57 lines): a set index that is
  // wrong for some lines regroups them and changes the sequence, which a
  // contiguous range cannot show.
  Random rng(5);
  std::vector<uint64_t> hot(Span());
  for (uint64_t& line : hot) {
    line = boundary + rng.UniformInt(~uint64_t{0} - boundary - 1);
  }
  std::vector<uint64_t> scattered(20000);
  for (uint64_t& line : scattered) {
    line = hot[rng.UniformInt(hot.size())];
  }
  ExpectMixedSameSequence(scattered, "scattered past 2^32", /*lines=*/true);
  ExpectSameSequence(StridedStream(boundary, GetParam().sets, Span(), 3),
                     "strided past 2^32");
}

TEST_P(LruOracleTest, ResetRestartsBothCachesCold) {
  L2Cache cache(Capacity(), kLine, GetParam().ways);
  StampLru oracle(Capacity(), kLine, GetParam().ways);
  const std::vector<uint64_t> first = RandomStream(6, 0, Span(), 5000);
  const std::vector<uint64_t> second = RandomStream(7, 0, Span(), 5000);
  size_t hits = 0;
  ASSERT_EQ(FirstDivergence(&cache, &oracle, first, &hits), first.size());
  cache.Reset();
  oracle.Reset();
  ASSERT_EQ(FirstDivergence(&cache, &oracle, second, &hits), second.size());
  // A reset cache misses on the line it just held.
  cache.Reset();
  EXPECT_FALSE(cache.Access(second.back()));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruOracleTest,
    ::testing::Values(Geometry{1, 3}, Geometry{1, 384}, Geometry{4, 3},
                      Geometry{4, 96}, Geometry{16, 384}, Geometry{16, 7},
                      Geometry{16, 1}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::to_string(info.param.ways) + "way_" +
             std::to_string(info.param.sets) + "sets";
    });

}  // namespace
}  // namespace biosim::gpusim
