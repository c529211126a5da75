#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "gpusim/device.h"

namespace biosim::gpusim {
namespace {

DeviceSpec TestSpec() { return DeviceSpec::GTX1080Ti(); }

TEST(SimtTest, ThreadIndexingCoversGrid) {
  Device dev(TestSpec());
  const size_t n = 1000;
  auto out = dev.Alloc<int32_t>(n);
  dev.Launch({"ids", 8, 128}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      if (t.gtid() < n) {
        t.st(out, t.gtid(), static_cast<int32_t>(t.gtid()));
      }
    });
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], static_cast<int32_t>(i));
  }
}

TEST(SimtTest, LaneAndBlockGeometry) {
  Device dev(TestSpec());
  auto lanes = dev.Alloc<int32_t>(256);
  auto blocks = dev.Alloc<int32_t>(256);
  dev.Launch({"geom", 4, 64}, [&](BlockCtx& blk) {
    EXPECT_EQ(blk.block_dim(), 64u);
    EXPECT_EQ(blk.grid_dim(), 4u);
    blk.for_each_lane([&](auto& t) {
      t.st(lanes, t.gtid(), static_cast<int32_t>(t.lane()));
      t.st(blocks, t.gtid(), static_cast<int32_t>(t.block()));
    });
  });
  EXPECT_EQ(lanes[0], 0);
  EXPECT_EQ(lanes[63], 63);
  EXPECT_EQ(lanes[64], 0);
  EXPECT_EQ(blocks[63], 0);
  EXPECT_EQ(blocks[64], 1);
  EXPECT_EQ(blocks[255], 3);
}

TEST(SimtTest, FunctionalLoadStoreRoundTrip) {
  Device dev(TestSpec());
  const size_t n = 512;
  auto in = dev.Alloc<float>(n);
  auto out = dev.Alloc<float>(n);
  for (size_t i = 0; i < n; ++i) {
    in[i] = static_cast<float>(i) * 0.5f;
  }
  dev.Launch({"copy2x", 2, 256}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.st(out, t.gtid(), t.ld(in, t.gtid()) * 2.0f);
    });
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(out[i], static_cast<float>(i));
  }
}

TEST(SimtTest, SharedMemoryVisibleAcrossPhases) {
  // Classic block reverse through shared memory: needs the barrier between
  // the two for_each_lane phases to be a real barrier.
  Device dev(TestSpec());
  const size_t n = 256;
  auto in = dev.Alloc<int32_t>(n);
  auto out = dev.Alloc<int32_t>(n);
  for (size_t i = 0; i < n; ++i) {
    in[i] = static_cast<int32_t>(i);
  }
  dev.Launch({"reverse", 2, 128}, [&](BlockCtx& blk) {
    auto cache = blk.shared<int32_t>(128);
    blk.for_each_lane([&](auto& t) {
      t.shared_st(cache, t.lane(), t.ld(in, t.gtid()));
    });
    // __syncthreads()
    blk.for_each_lane([&](auto& t) {
      int32_t v = t.shared_ld(cache, blk.block_dim() - 1 - t.lane());
      t.st(out, t.gtid(), v);
    });
  });
  for (size_t b = 0; b < 2; ++b) {
    for (size_t l = 0; l < 128; ++l) {
      ASSERT_EQ(out[b * 128 + l], static_cast<int32_t>(b * 128 + 127 - l));
    }
  }
}

TEST(SimtTest, SharedMemoryZeroInitialized) {
  Device dev(TestSpec());
  auto out = dev.Alloc<float>(32);
  dev.Launch({"zeroinit", 1, 32}, [&](BlockCtx& blk) {
    auto sm = blk.shared<float>(32);
    blk.for_each_lane(
        [&](auto& t) { t.st(out, t.lane(), t.shared_ld(sm, t.lane())); });
  });
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_EQ(out[i], 0.0f);
  }
}

TEST(SimtTest, GlobalAtomicAddAccumulates) {
  Device dev(TestSpec());
  auto counter = dev.Alloc<int32_t>(1);
  counter[0] = 0;
  dev.Launch({"count", 10, 100}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      (void)t.atomic_add(counter, 0, int32_t{1});
    });
  });
  EXPECT_EQ(counter[0], 1000);
}

TEST(SimtTest, SharedAtomicAppendProducesDenseSlots) {
  Device dev(TestSpec());
  const size_t n = 200;
  auto out = dev.Alloc<int32_t>(n);
  dev.Launch({"append", 1, 256}, [&](BlockCtx& blk) {
    auto count = blk.shared<int32_t>(1);
    auto slots = blk.shared<int32_t>(256);
    blk.for_each_lane([&](auto& t) {
      if (t.lane() < n) {
        int32_t slot = t.atomic_add_shared(count, 0, int32_t{1});
        t.shared_st(slots, slot, static_cast<int32_t>(t.lane()));
      }
    });
    blk.for_each_lane([&](auto& t) {
      if (t.lane() < n) {
        t.st(out, t.lane(), t.shared_ld(slots, t.lane()));
      }
    });
  });
  // Every lane id 0..n-1 appears exactly once among the slots.
  std::vector<bool> seen(n, false);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_GE(out[i], 0);
    ASSERT_LT(out[i], static_cast<int32_t>(n));
    ASSERT_FALSE(seen[out[i]]);
    seen[out[i]] = true;
  }
}

TEST(SimtTest, AtomicExchangeBuildsLinkedList) {
  // The exact pattern of the ug_build kernel.
  Device dev(TestSpec());
  const size_t n = 100;
  auto head = dev.Alloc<int32_t>(1);
  auto next = dev.Alloc<int32_t>(n);
  head[0] = -1;
  dev.Launch({"list", 1, 128}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      if (t.lane() < n) {
        int32_t old = t.atomic_exch(head, 0, static_cast<int32_t>(t.lane()));
        t.st(next, t.lane(), old);
      }
    });
  });
  std::vector<bool> seen(n, false);
  size_t count = 0;
  for (int32_t j = head[0]; j != -1; j = next[j]) {
    ASSERT_FALSE(seen[j]);
    seen[j] = true;
    ++count;
  }
  EXPECT_EQ(count, n);
}

TEST(SimtTest, DivergenceLowersSimdEfficiency) {
  Device dev(TestSpec());
  const size_t n = 32 * 64;
  auto buf = dev.Alloc<float>(n);
  auto out = dev.Alloc<float>(n);

  auto uniform = dev.Launch({"uniform", 64, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      float v = t.ld(buf, t.gtid());
      t.flops32(64);
      t.st(out, t.gtid(), v);
    });
  });

  auto divergent = dev.Launch({"divergent", 64, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      float v = t.ld(buf, t.gtid());
      // Only lane 0 of each warp does the heavy loop.
      if (t.lane() % 32 == 0) {
        t.flops32(64 * 31);
      }
      t.flops32(64);
      t.st(out, t.gtid(), v);
    });
  });

  EXPECT_GT(uniform.SimdEfficiency(), 0.95);
  EXPECT_LT(divergent.SimdEfficiency(), 0.25);
}

TEST(SimtTest, PartialWarpCountsAsIdleLanes) {
  Device dev(TestSpec());
  auto out = dev.Alloc<float>(8);
  auto stats = dev.Launch({"partial", 1, 8}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.flops32(10);
      t.st(out, t.lane(), 1.0f);
    });
  });
  // 8 of 32 lanes active -> efficiency ~ 0.25
  EXPECT_NEAR(stats.SimdEfficiency(), 0.25, 0.05);
}

TEST(SimtTest, FlopCountersSeparatePrecision) {
  Device dev(TestSpec());
  auto out = dev.Alloc<float>(32);
  auto stats = dev.Launch({"flops", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.flops32(7);
      t.flops64(3);
      t.st(out, t.lane(), 0.0f);
    });
  });
  EXPECT_EQ(stats.fp32_flops, 32u * 7);
  EXPECT_EQ(stats.fp64_flops, 32u * 3);
}

TEST(SimtTest, AtomicConflictCounting) {
  Device dev(TestSpec());
  auto target = dev.Alloc<int32_t>(64);

  // All 32 lanes of one warp update the same address: 31 serialized steps.
  auto conflicted = dev.Launch({"conflict", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      (void)t.atomic_add(target, 0, int32_t{1});
    });
  });
  EXPECT_EQ(conflicted.atomic_ops, 32u);
  EXPECT_EQ(conflicted.atomic_serialized, 31u);

  // Each lane updates its own address: no serialization.
  auto clean = dev.Launch({"noconflict", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      (void)t.atomic_add(target, t.lane(), int32_t{1});
    });
  });
  EXPECT_EQ(clean.atomic_ops, 32u);
  EXPECT_EQ(clean.atomic_serialized, 0u);
}

TEST(SimtTest, LineCrossingAccessesChargeEveryLine) {
  // A 12-byte element is not naturally aligned to the 128-byte line, so
  // some elements straddle two lines. The engine's records must charge the
  // same lines as the coalescer given (addr, bytes) pairs directly.
  struct Vec3 {
    float x, y, z;
  };
  Device dev(TestSpec());
  auto buf = dev.Alloc<Vec3>(128);
  auto out = dev.Alloc<float>(32);
  // One lane: element 10 spans bytes 120..131, two lines.
  auto one = dev.Launch({"straddle", 1, 1}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) { t.st(out, 0, t.ld(buf, 10).x); });
  });
  EXPECT_EQ(one.read_transactions, 2u);
  EXPECT_EQ(one.requested_read_bytes, sizeof(Vec3));

  // A warp reading every third element against the coalescer oracle.
  dev.ResetCache();
  auto warp = dev.Launch({"straddle_warp", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.st(out, t.lane(), t.ld(buf, 3 * t.lane() + 1).y);
    });
  });
  MemoryModel mm(TestSpec());
  KernelStats want;
  std::vector<LaneAccess> reads;
  std::vector<LaneAccess> writes;
  for (size_t l = 0; l < 32; ++l) {
    reads.push_back({buf.addr(3 * l + 1), sizeof(Vec3)});
    writes.push_back({out.addr(l), sizeof(float)});
  }
  mm.AccessWarp(reads, false, &want);
  mm.AccessWarp(writes, true, &want);
  EXPECT_EQ(warp.read_transactions, want.read_transactions);
  EXPECT_EQ(warp.requested_read_bytes, want.requested_read_bytes);
  EXPECT_EQ(warp.dram_read_bytes, want.dram_read_bytes);
  EXPECT_EQ(warp.write_transactions, want.write_transactions);
}

TEST(SimtTest, SharedAtomicsStayOnChip) {
  // A shared-memory atomic serializes like a global one but is on-chip
  // traffic: it charges shared bytes, never a global transaction, L1, L2
  // or DRAM bytes.
  Device dev(DeviceSpec::TeslaV100());
  auto st = dev.Launch({"shared_atomics", 1, 32}, [&](BlockCtx& blk) {
    auto counters = blk.shared<int32_t>(5);
    blk.for_each_lane([&](auto& t) {
      for (size_t k = 0; k < 5; ++k) {
        (void)t.atomic_add_shared(counters, k, int32_t{1});
      }
    });
  });
  // Five instructions of 32 lanes on one address each: 31 stalls apiece.
  EXPECT_EQ(st.atomic_ops, 160u);
  EXPECT_EQ(st.atomic_serialized, 155u);
  EXPECT_EQ(st.shared_bytes, 160u * sizeof(int32_t));
  EXPECT_EQ(st.write_transactions, 0u);
  EXPECT_EQ(st.requested_write_bytes, 0u);
  EXPECT_EQ(st.l1_write_hit_bytes, 0u);
  EXPECT_EQ(st.l2_write_hit_bytes, 0u);
  EXPECT_EQ(st.dram_write_bytes, 0u);
  // The on-chip atomics are not links of the global dependent chain.
  EXPECT_EQ(st.max_lane_mem_ops, 0u);
}

TEST(SimtTest, ExecutionIsDeterministic) {
  auto run = [] {
    Device dev(TestSpec());
    const size_t n = 4096;
    auto a = dev.Alloc<float>(n);
    auto b = dev.Alloc<float>(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = static_cast<float>(i % 17);
    }
    auto st = dev.Launch({"k", (n + 127) / 128, 128}, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        size_t i = t.gtid();
        if (i >= n) {
          return;
        }
        float v = t.ld(a, i);
        t.flops32(2);
        t.st(b, i, v * 2.0f + 1.0f);
      });
    });
    return std::make_tuple(st.dram_read_bytes, st.l2_read_hit_bytes,
                           st.total_ms, b[1234]);
  };
  EXPECT_EQ(run(), run());
}

TEST(SimtTest, DeviceClockAccumulates) {
  Device dev(TestSpec());
  auto buf = dev.Alloc<float>(1024);
  EXPECT_DOUBLE_EQ(dev.ElapsedMs(), 0.0);
  dev.Launch({"a", 8, 128}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) { t.st(buf, t.gtid(), 1.0f); });
  });
  double after_one = dev.ElapsedMs();
  EXPECT_GT(after_one, 0.0);
  std::vector<float> host(1024);
  dev.CopyFromDevice(std::span<float>(host), buf);
  EXPECT_GT(dev.ElapsedMs(), after_one);
  EXPECT_EQ(dev.transfers().d2h_bytes, 4096u);
  dev.ResetClock();
  EXPECT_DOUBLE_EQ(dev.ElapsedMs(), 0.0);
}

}  // namespace
}  // namespace biosim::gpusim
