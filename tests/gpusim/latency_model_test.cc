// Tests for the latency-exposure term and the modeled-kernel API — the
// pieces of the timing model behind the dynamic-parallelism exploration and
// the sort-cost accounting.
#include <gtest/gtest.h>

#include "gpusim/device.h"
#include "gpusim/timing.h"

namespace biosim::gpusim {
namespace {

TEST(LatencyModelTest, DeepLoadChainRaisesLatencyTime) {
  DeviceSpec spec = DeviceSpec::GTX1080Ti();
  KernelStats shallow, deep;
  shallow.total_threads = deep.total_threads = 1000;
  shallow.max_lane_mem_ops = 10;
  deep.max_lane_mem_ops = 1000;
  ApplyTimingModel(spec, &shallow);
  ApplyTimingModel(spec, &deep);
  EXPECT_NEAR(deep.latency_ms / shallow.latency_ms, 100.0, 0.01);
}

TEST(LatencyModelTest, LatencyScalesWithWaves) {
  DeviceSpec spec = DeviceSpec::GTX1080Ti();
  uint64_t resident =
      static_cast<uint64_t>(spec.num_sms) * spec.max_threads_per_sm;
  KernelStats one_wave, three_waves;
  one_wave.max_lane_mem_ops = three_waves.max_lane_mem_ops = 100;
  one_wave.total_threads = resident;
  three_waves.total_threads = 2 * resident + 1;  // ceil -> 3
  ApplyTimingModel(spec, &one_wave);
  ApplyTimingModel(spec, &three_waves);
  EXPECT_NEAR(three_waves.latency_ms / one_wave.latency_ms, 3.0, 1e-9);
}

TEST(LatencyModelTest, LatencyEntersTheMax) {
  DeviceSpec spec = DeviceSpec::GTX1080Ti();
  KernelStats st;
  st.total_threads = 1000;
  st.max_lane_mem_ops = 10000;  // enormous dependent chain
  st.dram_read_bytes = 1000;    // negligible traffic
  ApplyTimingModel(spec, &st);
  EXPECT_GT(st.latency_ms, st.memory_ms);
  EXPECT_NEAR(st.total_ms, st.launch_ms + st.latency_ms, 1e-9);
}

TEST(LatencyModelTest, ExpectedMagnitude) {
  // depth/MLP * latency: 400 ops / 4 * 350 ns = 35 us for one wave.
  DeviceSpec spec = DeviceSpec::GTX1080Ti();
  KernelStats st;
  st.total_threads = 1;
  st.max_lane_mem_ops = 400;
  ApplyTimingModel(spec, &st);
  EXPECT_NEAR(st.latency_ms, 400.0 / 4.0 * 350e-9 * 1e3, 1e-9);
}

TEST(LatencyModelTest, EngineTracksDeepestLaneChain) {
  Device dev(DeviceSpec::GTX1080Ti());
  const size_t n = 256;
  auto buf = dev.Alloc<float>(n);
  auto stats = dev.Launch({"chains", 1, 64}, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      // Lane 5 walks a 50-load chain; everyone else loads once.
      size_t loads = t.lane() == 5 ? 50 : 1;
      float acc = 0.0f;
      for (size_t k = 0; k < loads; ++k) {
        acc += t.ld(buf, (t.lane() + k) % n);
      }
      t.st(buf, t.lane(), acc);
    });
  });
  EXPECT_EQ(stats.max_lane_mem_ops, 51u);  // 50 loads + 1 store
  EXPECT_EQ(stats.total_threads, 64u);
}

TEST(LatencyModelTest, SharedAccessesDoNotCountAsLatencyOps) {
  Device dev(DeviceSpec::GTX1080Ti());
  auto stats = dev.Launch({"sharedonly", 1, 32}, [&](BlockCtx& blk) {
    auto sm = blk.shared<float>(32);
    blk.for_each_lane([&](auto& t) {
      for (int k = 0; k < 100; ++k) {
        t.shared_st(sm, t.lane(), t.shared_ld(sm, t.lane()) + 1.0f);
      }
    });
  });
  EXPECT_EQ(stats.max_lane_mem_ops, 0u);
}

TEST(ModeledKernelTest, AddsTimeAndHistory) {
  Device dev(DeviceSpec::TeslaV100());
  double before = dev.KernelMs();
  KernelStats st = dev.AddModeledKernel("lib_sort", /*read=*/900'000'000,
                                        /*write=*/900'000'000);
  // 1.8 GB at 900 GB/s = 2 ms of streaming.
  EXPECT_NEAR(st.memory_ms, 2.0, 0.05);
  EXPECT_GT(dev.KernelMs(), before);
  EXPECT_EQ(dev.history().back().name, "lib_sort");
}

TEST(ModeledKernelTest, StreamingIsCoalesced) {
  Device dev(DeviceSpec::TeslaV100());
  KernelStats st = dev.AddModeledKernel("lib", 128 * 1000, 0);
  EXPECT_EQ(st.read_transactions, 1000u);
  EXPECT_DOUBLE_EQ(st.SimdEfficiency(), 1.0);
  EXPECT_EQ(st.dram_read_bytes, 128u * 1000);
}

TEST(ModeledKernelTest, FlopsOptionallyCharged) {
  Device dev(DeviceSpec::TeslaV100());
  KernelStats st =
      dev.AddModeledKernel("lib_gemm", 1000, 1000, /*fp32=*/15'700'000'000ull);
  // 15.7 GFLOP at 15.7 TFLOP/s = 1 ms, compute bound.
  EXPECT_NEAR(st.compute_ms, 1.0, 0.01);
  EXPECT_GT(st.compute_ms, st.memory_ms);
}

}  // namespace
}  // namespace biosim::gpusim
