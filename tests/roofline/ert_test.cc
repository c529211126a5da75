#include "roofline/ert.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "../test_util.h"

namespace biosim::roofline {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

class ErtTest : public ::testing::Test {
 protected:
  // Small working set keeps the sweep fast; still >> the scaled L2.
  EmpiricalRoofline ert_{gpusim::DeviceSpec::TeslaV100(), 8ull << 20};
};

TEST_F(ErtTest, EmpiricalCeilingsApproachSpecSheet) {
  RooflineCeilings c = ert_.Measure();
  gpusim::DeviceSpec spec = gpusim::DeviceSpec::TeslaV100();
  // Empirical peaks land within ~25% of the spec numbers (launch overhead
  // and cache effects keep them below the theoretical values).
  EXPECT_GT(c.fp32_peak_gflops, 0.75 * spec.fp32_gflops);
  EXPECT_LE(c.fp32_peak_gflops, 1.02 * spec.fp32_gflops);
  EXPECT_GT(c.dram_bandwidth_gbps, 0.6 * spec.dram_bandwidth_gbps);
  EXPECT_LE(c.dram_bandwidth_gbps, 1.3 * spec.dram_bandwidth_gbps);
  EXPECT_GT(c.fp64_peak_gflops, 0.75 * spec.fp64_gflops);
}

TEST_F(ErtTest, SweepShowsRooflineShape) {
  RooflineCeilings c = ert_.Measure();
  const auto& pts = ert_.sweep_points();
  ASSERT_GT(pts.size(), 5u);
  // Low-AI points are memory bound: gflops ~ AI * bandwidth.
  const auto& low = pts.front();
  EXPECT_NEAR(low.gflops, low.arithmetic_intensity * c.dram_bandwidth_gbps,
              0.3 * low.gflops);
  // High-AI points approach the compute roof.
  const auto& high = pts.back();
  EXPECT_GT(high.gflops, 0.7 * c.fp32_peak_gflops);
  // Achieved performance is monotone non-decreasing along the sweep.
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GE(pts[i].gflops, pts[i - 1].gflops * 0.95);
  }
}

TEST(ErtWorkersTest, SweepIsBitwiseIdenticalAtOneAndThreeWorkers) {
  // The stream kernel is block_parallel_safe, so gpusim runs its blocks in
  // one chunk per host worker; every counter, hence every simulated time,
  // must not depend on how many chunks there were.
  auto measure = [](uint32_t workers) {
    testutil::ScopedWorkers scoped(workers);
    EmpiricalRoofline ert(gpusim::DeviceSpec::TeslaV100(), 2ull << 20);
    RooflineCeilings c = ert.Measure();
    return std::make_pair(c, ert.sweep_points());
  };
  const auto [c1, pts1] = measure(1);
  const auto [c3, pts3] = measure(3);
  EXPECT_TRUE(SameBits(c1.fp32_peak_gflops, c3.fp32_peak_gflops));
  EXPECT_TRUE(SameBits(c1.fp64_peak_gflops, c3.fp64_peak_gflops));
  EXPECT_TRUE(SameBits(c1.dram_bandwidth_gbps, c3.dram_bandwidth_gbps));
  EXPECT_TRUE(SameBits(c1.l2_bandwidth_gbps, c3.l2_bandwidth_gbps));
  ASSERT_EQ(pts1.size(), pts3.size());
  for (size_t i = 0; i < pts1.size(); ++i) {
    EXPECT_EQ(pts1[i].label, pts3[i].label);
    EXPECT_TRUE(SameBits(pts1[i].arithmetic_intensity,
                         pts3[i].arithmetic_intensity))
        << pts1[i].label;
    EXPECT_TRUE(SameBits(pts1[i].gflops, pts3[i].gflops))
        << pts1[i].label << ": " << pts1[i].gflops << " vs "
        << pts3[i].gflops;
  }
}

TEST_F(ErtTest, AttainableIsMinOfRoofs) {
  RooflineCeilings c;
  c.fp32_peak_gflops = 1000.0;
  c.dram_bandwidth_gbps = 100.0;
  EXPECT_DOUBLE_EQ(c.Attainable(1.0), 100.0);    // memory bound
  EXPECT_DOUBLE_EQ(c.Attainable(10.0), 1000.0);  // ridge point
  EXPECT_DOUBLE_EQ(c.Attainable(100.0), 1000.0);
}

TEST_F(ErtTest, TableRendersKernelPlacement) {
  RooflineCeilings c;
  c.fp32_peak_gflops = 15700.0;
  c.fp64_peak_gflops = 7800.0;
  c.dram_bandwidth_gbps = 900.0;
  std::vector<RooflinePoint> kernels{{"mech_n27", 0.8, 600.0}};
  std::string t = EmpiricalRoofline::Table(c, kernels);
  EXPECT_NE(t.find("mech_n27"), std::string::npos);
  EXPECT_NE(t.find("15700"), std::string::npos);
}

}  // namespace
}  // namespace biosim::roofline
