// The CUDA-like and OpenCL-like front-ends must be interchangeable: same
// results, same counters, same simulated time (they drive one engine).
#include <gtest/gtest.h>

#include "gpusim/cuda_like.h"
#include "gpusim/opencl_like.h"
#include "gpusim/profiler.h"

namespace biosim::gpusim {
namespace {

TEST(FrontendTest, CudaVocabularyRoundTrip) {
  cuda::Runtime rt(DeviceSpec::GTX1080Ti());
  const size_t n = 300;
  auto buf = rt.Malloc<float>(n);
  std::vector<float> host(n, 3.0f);
  rt.MemcpyHostToDevice(buf, std::span<const float>(host));
  rt.LaunchKernel("square", cuda::Runtime::BlocksFor(n, 128), 128,
                  [&](BlockCtx& blk) {
                    blk.for_each_lane([&](auto& t) {
                      if (t.gtid() < n) {
                        float v = t.ld(buf, t.gtid());
                        t.st(buf, t.gtid(), v * v);
                      }
                    });
                  });
  std::vector<float> out(n);
  rt.MemcpyDeviceToHost(std::span<float>(out), buf);
  for (float v : out) {
    ASSERT_FLOAT_EQ(v, 9.0f);
  }
}

TEST(FrontendTest, OpenClVocabularyRoundTrip) {
  opencl::CommandQueue q(DeviceSpec::GTX1080Ti());
  const size_t n = 300;
  auto buf = q.CreateBuffer<float>(n);
  std::vector<float> host(n, 2.0f);
  q.EnqueueWriteBuffer(buf, std::span<const float>(host));
  q.EnqueueNDRangeKernel("triple", n, 64, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      size_t gid = opencl::get_global_id(t);
      if (gid < n) {
        t.st(buf, gid, t.ld(buf, gid) * 3.0f);
      }
    });
  });
  std::vector<float> out(n);
  q.EnqueueReadBuffer(std::span<float>(out), buf);
  for (float v : out) {
    ASSERT_FLOAT_EQ(v, 6.0f);
  }
}

TEST(FrontendTest, OpenClWorkItemFunctions) {
  opencl::CommandQueue q(DeviceSpec::TeslaV100());
  auto ids = q.CreateBuffer<int32_t>(128);
  q.EnqueueNDRangeKernel("ids", 128, 64, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      EXPECT_EQ(opencl::get_local_size(t), 64u);
      EXPECT_EQ(opencl::get_global_id(t),
                opencl::get_group_id(t) * 64 + opencl::get_local_id(t));
      t.st(ids, opencl::get_global_id(t),
           static_cast<int32_t>(opencl::get_local_id(t)));
    });
  });
  EXPECT_EQ(ids[0], 0);
  EXPECT_EQ(ids[64], 0);
  EXPECT_EQ(ids[127], 63);
}

TEST(FrontendTest, OpenClRoundsGlobalSizeUp) {
  opencl::CommandQueue q(DeviceSpec::GTX1080Ti());
  auto buf = q.CreateBuffer<int32_t>(1);
  buf[0] = 0;
  // 100 items at local size 64 -> 2 groups (128 slots), guarded to 100.
  auto stats = q.EnqueueNDRangeKernel("tail", 100, 64, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) {
      if (t.gtid() < 100) {
        (void)t.atomic_add(buf, 0, int32_t{1});
      }
    });
  });
  EXPECT_EQ(stats.grid_dim, 2u);
  EXPECT_EQ(buf[0], 100);
}

TEST(FrontendTest, BothFrontEndsProduceIdenticalCountersAndTiming) {
  auto kernel = [](auto& buf, size_t n) {
    return [&buf, n](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        size_t i = t.gtid();
        if (i >= n) {
          return;
        }
        float v = t.ld(buf, i);
        t.flops32(4);
        t.st(buf, i, v * 1.5f + 2.0f);
      });
    };
  };

  const size_t n = 10000;
  std::vector<float> host(n);
  for (size_t i = 0; i < n; ++i) {
    host[i] = static_cast<float>(i % 31);
  }

  cuda::Runtime rt(DeviceSpec::TeslaV100());
  auto cbuf = rt.Malloc<float>(n);
  rt.MemcpyHostToDevice(cbuf, std::span<const float>(host));
  auto cstats = rt.LaunchKernel("k", cuda::Runtime::BlocksFor(n, 128), 128,
                                kernel(cbuf, n));

  opencl::CommandQueue q(DeviceSpec::TeslaV100());
  auto obuf = q.CreateBuffer<float>(n);
  q.EnqueueWriteBuffer(obuf, std::span<const float>(host));
  auto ostats = q.EnqueueNDRangeKernel("k", n, 128, kernel(obuf, n));

  EXPECT_EQ(cstats.fp32_flops, ostats.fp32_flops);
  EXPECT_EQ(cstats.read_transactions, ostats.read_transactions);
  EXPECT_EQ(cstats.dram_read_bytes, ostats.dram_read_bytes);
  EXPECT_DOUBLE_EQ(cstats.total_ms, ostats.total_ms);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(cbuf[i], obuf[i]);
  }
}

TEST(FrontendTest, ProfileReportAggregatesLaunches) {
  cuda::Runtime rt(DeviceSpec::GTX1080Ti());
  auto buf = rt.Malloc<float>(1024);
  for (int rep = 0; rep < 3; ++rep) {
    rt.LaunchKernel("repeated", 8, 128, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        t.flops32(2);
        t.st(buf, t.gtid(), 1.0f);
      });
    });
  }
  rt.LaunchKernel("other", 1, 32, [&](BlockCtx& blk) {
    blk.for_each_lane([&](auto& t) { t.st(buf, t.lane(), 0.0f); });
  });

  ProfileReport report(rt.device());
  ASSERT_EQ(report.kernels().size(), 2u);
  const auto* rep = report.Find("repeated");
  ASSERT_NE(rep, nullptr);
  EXPECT_EQ(rep->launches, 3u);
  EXPECT_EQ(rep->fp32_flops, 3u * 1024 * 2);
  EXPECT_EQ(report.Find("nonexistent"), nullptr);
  std::string table = report.ToString();
  EXPECT_NE(table.find("repeated"), std::string::npos);
  EXPECT_NE(table.find("other"), std::string::npos);
}

TEST(FrontendTest, ProfileReportSumsLatencyOfLatencyBoundLaunches) {
  // One warp walking a long dependent load chain: the latency term, not
  // traffic or compute, sets the kernel time. Two launches of different
  // depth must aggregate to the sum of their latency_ms, which the table
  // shows in its own column.
  cuda::Runtime rt(DeviceSpec::GTX1080Ti());
  const size_t n = 64;
  auto buf = rt.Malloc<int32_t>(n);
  auto chase = [&](size_t depth) {
    return rt.LaunchKernel("chase", 1, 32, [&](BlockCtx& blk) {
      blk.for_each_lane([&](auto& t) {
        size_t j = t.lane();
        for (size_t k = 0; k < depth; ++k) {
          j = static_cast<size_t>(t.ld(buf, j)) % n;
        }
      });
    });
  };
  const KernelStats first = chase(2000);
  const KernelStats second = chase(3000);
  ASSERT_GT(first.latency_ms, first.memory_ms);
  ASSERT_GT(second.latency_ms, second.memory_ms);

  ProfileReport report(rt.device());
  const AggregatedKernel* agg = report.Find("chase");
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->launches, 2u);
  EXPECT_GT(agg->latency_ms, 0.0);
  EXPECT_DOUBLE_EQ(agg->latency_ms, first.latency_ms + second.latency_ms);
  EXPECT_DOUBLE_EQ(agg->total_ms, first.total_ms + second.total_ms);
  EXPECT_NE(report.ToString().find("lat_ms"), std::string::npos);
}

TEST(FrontendTest, MeterSamplingApproximatesExactCounters) {
  auto run = [](int stride) {
    cuda::Runtime rt(DeviceSpec::TeslaV100());
    rt.device().SetMeterStride(stride);
    const size_t n = 100000;
    auto buf = rt.Malloc<float>(n);
    return rt.LaunchKernel("k", cuda::Runtime::BlocksFor(n, 128), 128,
                           [&](BlockCtx& blk) {
                             blk.for_each_lane([&](auto& t) {
                               size_t i = t.gtid();
                               if (i >= n) {
                                 return;
                               }
                               float v = t.ld(buf, i);
                               t.flops32(8);
                               t.st(buf, i, v + 1.0f);
                             });
                           });
  };
  auto exact = run(1);
  auto sampled = run(8);
  EXPECT_NEAR(static_cast<double>(sampled.fp32_flops),
              static_cast<double>(exact.fp32_flops),
              0.05 * static_cast<double>(exact.fp32_flops));
  EXPECT_NEAR(static_cast<double>(sampled.dram_read_bytes),
              static_cast<double>(exact.dram_read_bytes),
              0.15 * static_cast<double>(exact.dram_read_bytes));
  EXPECT_NEAR(sampled.total_ms, exact.total_ms, 0.2 * exact.total_ms);
}

}  // namespace
}  // namespace biosim::gpusim
