// Unit tests for the GPU sanitizer engine (gpusim/sanitizer.h): every
// hazard class detected with kernel/block/lane/address attribution, no
// false positives on barrier-ordered or atomic patterns, and a byte-exact
// no-stats-drift guarantee for the off path.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "gpusim/device.h"
#include "gpusim/sanitizer.h"

namespace biosim::gpusim {
namespace {

DeviceSpec TestSpec() { return DeviceSpec::GTX1080Ti(); }

// --- racecheck -----------------------------------------------------------

TEST(SanitizerRacecheckTest, SharedMemoryRaceDetectedWithAttribution) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  KernelStats st = dev.Launch({"shared_race", 1, 64}, [&](BlockCtx& blk) {
    auto counter = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      t.shared_st(counter, 0, static_cast<int32_t>(t.lane()));
    });
  });

  const SanitizerReport& report = san->report();
  ASSERT_GE(report.Count(HazardKind::kSharedRace), 1u);
  EXPECT_EQ(st.sanitizer_hazards, report.total());

  const Hazard& h = report.hazards()[0];
  EXPECT_EQ(h.kind, HazardKind::kSharedRace);
  EXPECT_EQ(h.kernel, "shared_race");
  EXPECT_EQ(h.space, MemSpace::kShared);
  EXPECT_EQ(h.block, 0u);
  EXPECT_NE(h.lane, h.other_lane);  // two distinct lanes named
  EXPECT_EQ(h.access, AccessKind::kWrite);
  // The report carries the colliding shared address.
  EXPECT_GE(h.addr, uint64_t{1} << 62);
  EXPECT_NE(std::string::npos, h.ToString().find("shared_race"));
}

TEST(SanitizerRacecheckTest, ReadWriteSharedConflictIsARace) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  dev.Launch({"rw_race", 1, 64}, [&](BlockCtx& blk) {
    auto cell = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      if (t.lane() == 0) {
        t.shared_st(cell, 0, 7);
      } else if (t.lane() == 1) {
        (void)t.shared_ld(cell, 0);  // unordered read of lane 0's write
      }
    });
  });
  EXPECT_GE(san->report().Count(HazardKind::kSharedRace), 1u);
}

TEST(SanitizerRacecheckTest, CrossBlockGlobalWriteConflictDetected) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<int32_t>(4);
  dev.Launch({"global_race", 2, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      if (t.lane() == 0) {
        t.st(buf, 0, static_cast<int32_t>(t.block()));
      }
    });
  });
  ASSERT_GE(san->report().Count(HazardKind::kGlobalRace), 1u);
  const Hazard& h = san->report().hazards()[0];
  EXPECT_NE(h.block, h.other_block);
  EXPECT_EQ(h.addr, buf.addr(0));
}

TEST(SanitizerRacecheckTest, BarrierOrderedAccessesDoNotRace) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  dev.Launch({"ordered", 1, 64}, [&](BlockCtx& blk) {
    auto cell = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      if (t.lane() == 0) {
        t.shared_st(cell, 0, 1);
      }
    });
    // __syncthreads(): every lane may now read lane 0's value.
    blk.for_each_lane([&](auto& t) { (void)t.shared_ld(cell, 0); });
  });
  EXPECT_TRUE(san->report().clean()) << san->report().ToString();
}

TEST(SanitizerRacecheckTest, AtomicContentionIsNotARace) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto sum = dev.Alloc<int32_t>(1);
  sum[0] = 0;  // host-initialized
  dev.Launch({"atomic_sum", 2, 64}, [&](BlockCtx& blk) {
    auto local = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      if (t.lane() == 0) {
        t.shared_st(local, 0, 0);
      }
    });
    blk.for_each_lane([&](auto& t) {
      t.atomic_add_shared(local, 0, int32_t{1});
    });
    blk.for_each_lane([&](auto& t) {
      if (t.lane() == 0) {
        t.atomic_add(sum, 0, t.shared_ld(local, 0));
      }
    });
  });
  EXPECT_TRUE(san->report().clean()) << san->report().ToString();
  EXPECT_EQ(sum[0], 128);
}

TEST(SanitizerRacecheckTest, DistinctPerLaneAddressesAreClean) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<float>(256);
  dev.Launch({"disjoint", 2, 128}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.st(buf, t.gtid(), static_cast<float>(t.gtid()));
    });
    blk.for_each_lane([&](auto& t) {
      t.st(buf, t.gtid(), t.ld(buf, t.gtid()) * 2.0f);
    });
  });
  EXPECT_TRUE(san->report().clean()) << san->report().ToString();
}

// --- memcheck ------------------------------------------------------------

TEST(SanitizerMemcheckTest, OutOfBoundsReadDetectedAndSuppressed) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  const size_t n = 64;
  auto buf = dev.Alloc<float>(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = 1.0f;
  }
  dev.Launch({"oob_read", 1, 64}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      // Off-by-one: lane 63 reads buf[64].
      (void)t.ld(buf, t.gtid() + 1);
    });
  });
  ASSERT_EQ(san->report().Count(HazardKind::kOutOfBounds), 1u);
  const Hazard& h = san->report().hazards()[0];
  EXPECT_EQ(h.kernel, "oob_read");
  EXPECT_EQ(h.lane, 63u);
  EXPECT_EQ(h.block, 0u);
  EXPECT_EQ(h.addr, buf.addr(n));  // one element past the end
  EXPECT_EQ(h.access, AccessKind::kRead);
  EXPECT_NE(std::string::npos, h.detail.find("index 64"));
}

TEST(SanitizerMemcheckTest, OutOfBoundsInUnmeteredWarpReported) {
  // At stride 8 only warp 0 of the block is metered; an unmetered warp
  // would run the unchecked lane, which has no sanitizer hooks. With a
  // sanitizer attached every warp must take the checked lane, so the
  // off-by-one read in warp 3 is still reported and suppressed.
  Device dev(TestSpec());
  dev.SetMeterStride(8);
  Sanitizer* san = dev.EnableSanitizer();
  const size_t n = 128;
  auto buf = dev.Alloc<float>(n);
  auto out = dev.Alloc<float>(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = 1.0f;
  }
  dev.Launch({"oob_read_unmetered", 1, 128}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      if (t.lane() >= 96) {  // lanes of warp 3 only
        // Off-by-one: lane 127 reads buf[128].
        t.st(out, t.gtid(), t.ld(buf, t.gtid() + 1));
      }
    });
  });
  ASSERT_EQ(san->report().Count(HazardKind::kOutOfBounds), 1u);
  const Hazard& h = san->report().hazards()[0];
  EXPECT_EQ(h.lane, 127u);
  EXPECT_EQ(h.addr, buf.addr(n));
  EXPECT_EQ(h.access, AccessKind::kRead);
  // Suppressed: the wild read returned 0 instead of host memory.
  EXPECT_EQ(out[127], 0.0f);
  EXPECT_EQ(out[126], 1.0f);
}

TEST(SanitizerMemcheckTest, OutOfBoundsWriteSuppressedNotExecuted) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<int32_t>(32);
  dev.Launch({"oob_write", 1, 64}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.st(buf, t.gtid(), static_cast<int32_t>(t.gtid()));
    });
  });
  // Lanes 32..63 were suppressed; the 32 valid stores landed.
  EXPECT_GE(san->report().Count(HazardKind::kOutOfBounds), 1u);
  for (size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(buf[i], static_cast<int32_t>(i));
  }
}

TEST(SanitizerMemcheckTest, NeverWrittenGlobalReadDetected) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<float>(64);  // allocated, never written
  dev.Launch({"uninit_global", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) { (void)t.ld(buf, t.gtid()); });
  });
  EXPECT_GE(san->report().Count(HazardKind::kUninitializedRead), 1u);
  EXPECT_EQ(san->report().hazards()[0].kernel, "uninit_global");
}

TEST(SanitizerMemcheckTest, H2DCopyInitializesPrefixOnly) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<float>(64);
  std::vector<float> host(32, 1.0f);
  dev.CopyToDevice(buf, std::span<const float>(host));
  dev.Launch({"read_prefix", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) { (void)t.ld(buf, t.gtid()); });
  });
  EXPECT_TRUE(san->report().clean());
  dev.Launch({"read_tail", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) { (void)t.ld(buf, 32 + t.gtid()); });
  });
  EXPECT_GE(san->report().Count(HazardKind::kUninitializedRead), 1u);
}

TEST(SanitizerMemcheckTest, UninitializedSharedReadDetected) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  dev.Launch({"uninit_shared", 1, 32}, [&](BlockCtx& blk) {
    auto scratch = blk.shared<float>(32);
    blk.for_each_lane([&](auto& t) {
      // Relies on the simulator's zero-fill — garbage on real hardware.
      (void)t.shared_ld(scratch, t.lane());
    });
  });
  EXPECT_GE(san->report().Count(HazardKind::kUninitializedRead), 1u);
  EXPECT_EQ(san->report().hazards()[0].space, MemSpace::kShared);
}

TEST(SanitizerMemcheckTest, SharedOverAllocationReported) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  size_t limit = TestSpec().shared_mem_per_block;
  dev.Launch({"shared_overflow", 1, 32}, [&](BlockCtx& blk) {
    auto big = blk.shared<char>(limit + 1);
    (void)big;
    blk.for_each_lane([&](auto&) {});
  });
  ASSERT_EQ(san->report().Count(HazardKind::kSharedOverflow), 1u);
  EXPECT_NE(std::string::npos,
            san->report().hazards()[0].detail.find(std::to_string(limit)));
}

// --- synccheck -----------------------------------------------------------

TEST(SanitizerSynccheckTest, BarrierCountDivergenceDetected) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<int32_t>(128);
  dev.Launch({"divergent_sync", 2, 64}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      t.st(buf, t.gtid(), 1);
    });
    if (blk.block() == 0) {  // barrier under block-dependent control flow
      blk.for_each_lane([&](auto& t) {
        t.st(buf, t.gtid(), 2);
      });
    }
  });
  ASSERT_EQ(san->report().Count(HazardKind::kBarrierDivergence), 1u);
  const Hazard& h = san->report().hazards()[0];
  EXPECT_EQ(h.kernel, "divergent_sync");
  EXPECT_NE(std::string::npos, h.detail.find("barrier intervals"));
}

TEST(SanitizerSynccheckTest, SharedAllocationDivergenceDetected) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  dev.Launch({"divergent_shared", 2, 32}, [&](BlockCtx& blk) {
    auto a = blk.shared<float>(blk.block() == 0 ? 64 : 32);
    (void)a;
    blk.for_each_lane([&](auto&) {});
  });
  EXPECT_EQ(san->report().Count(HazardKind::kSharedAllocDivergence), 1u);
}

TEST(SanitizerSynccheckTest, UniformBlocksAreClean) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  auto buf = dev.Alloc<int32_t>(256);
  dev.Launch({"uniform", 4, 64}, [&](BlockCtx& blk) {
    auto s = blk.shared<int32_t>(64);
    blk.for_each_lane([&](auto& t) {
      t.shared_st(s, t.lane(), static_cast<int32_t>(t.lane()));
    });
    blk.for_each_lane([&](auto& t) {
      t.st(buf, t.gtid(), t.shared_ld(s, t.lane()));
    });
  });
  EXPECT_TRUE(san->report().clean()) << san->report().ToString();
}

// --- report / config -----------------------------------------------------

TEST(SanitizerReportTest, TextReportNamesToolsAndSummarizes) {
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  dev.Launch({"reported_race", 1, 64}, [&](BlockCtx& blk) {
    auto c = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      t.shared_st(c, 0, static_cast<int32_t>(t.lane()));
    });
  });
  std::string text = san->report().ToString();
  EXPECT_NE(std::string::npos, text.find("RACECHECK"));
  EXPECT_NE(std::string::npos, text.find("reported_race"));
  EXPECT_NE(std::string::npos, text.find("SANITIZER SUMMARY"));
  EXPECT_GE(san->report().CountTool("RACECHECK"), 1u);
  EXPECT_EQ(san->report().CountTool("MEMCHECK"), 0u);
}

TEST(SanitizerReportTest, MaxHazardsCapsStorageNotCounts) {
  Device dev(TestSpec());
  SanitizerConfig cfg;
  cfg.max_hazards = 2;
  Sanitizer* san = dev.EnableSanitizer(cfg);
  auto buf = dev.Alloc<float>(8);
  dev.Launch({"many_oob", 1, 64}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      (void)t.ld(buf, 100 + t.lane());  // 64 distinct OOB reads
    });
  });
  EXPECT_EQ(san->report().hazards().size(), 2u);
  EXPECT_EQ(san->report().total(), 64u);
  EXPECT_EQ(san->report().dropped(), 62u);
}

TEST(SanitizerConfigTest, DisabledToolsReportNothing) {
  Device dev(TestSpec());
  SanitizerConfig cfg;
  cfg.racecheck = false;
  Sanitizer* san = dev.EnableSanitizer(cfg);
  dev.Launch({"race_ignored", 1, 64}, [&](BlockCtx& blk) {
    auto c = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      t.shared_st(c, 0, static_cast<int32_t>(t.lane()));
    });
  });
  EXPECT_TRUE(san->report().clean());
}

// --- interaction with metering / stats -----------------------------------

TEST(SanitizerStatsTest, HooksFireOnUnmeteredWarps) {
  // With a metering stride of 4 only warp 0 of 4 is metered, but the
  // sanitizer must still see the race in warp 3.
  Device dev(TestSpec());
  dev.SetMeterStride(4);
  Sanitizer* san = dev.EnableSanitizer();
  dev.Launch({"unmetered_race", 1, 128}, [&](BlockCtx& blk) {
    auto c = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      if (t.lane() >= 96) {  // lanes of warp 3 only
        t.shared_st(c, 0, static_cast<int32_t>(t.lane()));
      }
    });
  });
  ASSERT_GE(san->report().Count(HazardKind::kSharedRace), 1u);
  EXPECT_GE(san->report().hazards()[0].lane, 96u);
}

TEST(SanitizerStatsTest, SuppressedLoadLeavesAHoleInItsInstruction) {
  // Odd lanes' second load is out of bounds: the sanitizer suppresses it
  // but still advances the lane's read sequence, so that instruction holds
  // only the even lanes' records and the third load of every lane stays
  // one instruction. Each instruction reads one 128 B line.
  Device dev(TestSpec());
  Sanitizer* san = dev.EnableSanitizer();
  const size_t n = 96;
  auto in = dev.Alloc<float>(n);
  std::vector<float> host(n, 1.0f);
  dev.CopyToDevice(in, std::span<const float>(host));
  KernelStats st = dev.Launch({"holes", 1, 32}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      const size_t l = t.lane();
      float v = t.ld(in, l);                           // in[0..31]
      v += t.ld(in, l % 2 == 0 ? 64 + l : n + l);      // even: in[64..95]
      v += t.ld(in, 32 + l);                           // in[32..63]
      (void)v;
    });
  });
  EXPECT_EQ(san->report().Count(HazardKind::kOutOfBounds), 16u);
  EXPECT_EQ(st.read_transactions, 3u);
  EXPECT_EQ(st.requested_read_bytes, (32u + 16u + 32u) * sizeof(float));
  EXPECT_EQ(st.lane_ops_sum, 32u + 16u + 32u);
  EXPECT_EQ(st.max_lane_mem_ops, 3u);
}

TEST(SanitizerStatsTest, EnablingSanitizerDoesNotDriftCleanKernelStats) {
  auto run = [](bool sanitize) {
    Device dev(TestSpec());
    if (sanitize) {
      dev.EnableSanitizer();
    }
    const size_t n = 4096;
    auto in = dev.Alloc<float>(n);
    auto out = dev.Alloc<float>(n);
    std::vector<float> host(n, 1.5f);
    dev.CopyToDevice(in, std::span<const float>(host));
    return dev.Launch({"saxpy", n / 128, 128}, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        t.flops32(2);
        t.st(out, t.gtid(), 2.0f * t.ld(in, t.gtid()) + 1.0f);
      });
    });
  };
  KernelStats off = run(false);
  KernelStats on = run(true);
  EXPECT_EQ(on.fp32_flops, off.fp32_flops);
  EXPECT_EQ(on.read_transactions, off.read_transactions);
  EXPECT_EQ(on.write_transactions, off.write_transactions);
  EXPECT_EQ(on.dram_read_bytes, off.dram_read_bytes);
  EXPECT_EQ(on.lane_ops_sum, off.lane_ops_sum);
  EXPECT_EQ(on.warp_ops_slots, off.warp_ops_slots);
  EXPECT_EQ(on.max_lane_mem_ops, off.max_lane_mem_ops);
  EXPECT_DOUBLE_EQ(on.total_ms, off.total_ms);
  EXPECT_EQ(off.sanitizer_hazards, 0u);
  EXPECT_EQ(on.sanitizer_hazards, 0u);
}

TEST(SanitizerStatsTest, GlobalAtomicsCountAsLaneMemOps) {
  // Satellite fix: atomic_add/atomic_exch extend the per-lane dependent
  // memory-op chain (they round-trip to L2/DRAM); shared atomics do not.
  Device dev(TestSpec());
  auto sum = dev.Alloc<int32_t>(1);
  sum[0] = 0;
  KernelStats global_st = dev.Launch({"global_atomics", 1, 32},
                                     [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      for (int i = 0; i < 5; ++i) {
        t.atomic_add(sum, 0, int32_t{1});
      }
    });
  });
  EXPECT_EQ(global_st.max_lane_mem_ops, 5u);

  KernelStats shared_st = dev.Launch({"shared_atomics", 1, 32},
                                     [&](BlockCtx& blk) {
    auto c = blk.shared<int32_t>(1);
    blk.for_each_lane([&](auto& t) {
      for (int i = 0; i < 5; ++i) {
        t.atomic_add_shared(c, 0, int32_t{1});
      }
    });
  });
  EXPECT_EQ(shared_st.max_lane_mem_ops, 0u);
}

}  // namespace
}  // namespace biosim::gpusim
