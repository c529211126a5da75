// Device-side uniform-grid construction (the paper's Fig. 5 chains, built
// with atomics) must agree with the host-side compacted CSR grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "../spatial/grid_oracle.h"
#include "../test_util.h"
#include "gpu/grid_build_kernels.h"
#include "gpusim/cuda_like.h"
#include "gpusim/profiler.h"
#include "spatial/uniform_grid.h"

namespace biosim::gpu {
namespace {

using gpusim::BlockCtx;
using gpusim::Lane;

class GridBuildTest : public ::testing::Test {
 protected:
  void BuildOnDevice(const ResourceManager& rm, double fixed_box = 0.0) {
    Param param;
    g_ = ComputeGridParams<float>(rm, param, fixed_box);
    size_t n = rm.size();
    size_t boxes = g_.total_boxes();

    s_.x = rt_.Malloc<float>(n);
    s_.y = rt_.Malloc<float>(n);
    s_.z = rt_.Malloc<float>(n);
    s_.successors = rt_.Malloc<int32_t>(n);
    s_.box_start = rt_.Malloc<int32_t>(boxes);
    s_.box_count = rt_.Malloc<int32_t>(boxes);
    for (size_t i = 0; i < n; ++i) {
      s_.x[i] = static_cast<float>(rm.positions()[i].x);
      s_.y[i] = static_cast<float>(rm.positions()[i].y);
      s_.z[i] = static_cast<float>(rm.positions()[i].z);
    }

    rt_.LaunchKernel("ug_reset", gpusim::cuda::Runtime::BlocksFor(boxes, 128),
                     128, [&](BlockCtx& blk) {
                       UgResetKernelBody(blk, s_, boxes);
                     });
    rt_.LaunchKernel("ug_build", gpusim::cuda::Runtime::BlocksFor(n, 128),
                     128, [&](BlockCtx& blk) {
                       UgBuildKernelBody(blk, s_, g_, n);
                     });
  }

  gpusim::cuda::Runtime rt_{gpusim::DeviceSpec::GTX1080Ti()};
  MechDeviceState<float> s_;
  GridParams<float> g_;
};

TEST_F(GridBuildTest, ResetMarksAllBoxesEmpty) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 10, 0.0, 50.0, 10.0);
  BuildOnDevice(rm);
  // Rerun just the reset kernel and verify.
  size_t boxes = g_.total_boxes();
  rt_.LaunchKernel("ug_reset", gpusim::cuda::Runtime::BlocksFor(boxes, 128),
                   128,
                   [&](BlockCtx& blk) { UgResetKernelBody(blk, s_, boxes); });
  for (size_t b = 0; b < boxes; ++b) {
    ASSERT_EQ(s_.box_start[b], kEmptyBox);
    ASSERT_EQ(s_.box_count[b], 0);
  }
}

TEST_F(GridBuildTest, ChainsContainEveryAgentExactlyOnce) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 500, 0.0, 80.0, 10.0);
  BuildOnDevice(rm);

  std::set<int32_t> seen;
  for (size_t b = 0; b < g_.total_boxes(); ++b) {
    int32_t chain = 0;
    for (int32_t j = s_.box_start[b]; j != kEmptyBox; j = s_.successors[j]) {
      ASSERT_TRUE(seen.insert(j).second);
      ++chain;
    }
    ASSERT_EQ(chain, s_.box_count[b]);
  }
  EXPECT_EQ(seen.size(), rm.size());
}

TEST_F(GridBuildTest, AgentsLandInTheBoxOfTheirPosition) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 300, 0.0, 60.0, 12.0);
  BuildOnDevice(rm);
  for (size_t b = 0; b < g_.total_boxes(); ++b) {
    for (int32_t j = s_.box_start[b]; j != kEmptyBox; j = s_.successors[j]) {
      size_t expected = g_.BoxOf(s_.x[j], s_.y[j], s_.z[j]);
      ASSERT_EQ(expected, b);
    }
  }
}

TEST_F(GridBuildTest, MatchesHostGridOccupancy) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 100.0, 10.0);
  BuildOnDevice(rm);

  Param param;
  UniformGridEnvironment host;
  host.Update(rm, param, ExecMode::kSerial);

  // Same geometry?
  ASSERT_EQ(static_cast<int32_t>(host.num_boxes_axis().x), g_.nx);
  ASSERT_EQ(static_cast<int32_t>(host.num_boxes_axis().y), g_.ny);
  ASSERT_EQ(static_cast<int32_t>(host.num_boxes_axis().z), g_.nz);

  // The host CSR holds the brute-force member sets...
  testutil::ExpectGridMatchesOracle(host, rm);
  const testutil::BoxMembers oracle =
      testutil::BruteForceBoxMembers(rm, host.geometry());
  // ...and so does every device chain, in whatever order the atomics
  // linked it.
  for (size_t b = 0; b < g_.total_boxes(); ++b) {
    std::vector<int32_t> device_members;
    for (int32_t j = s_.box_start[b]; j != kEmptyBox; j = s_.successors[j]) {
      device_members.push_back(j);
    }
    std::sort(device_members.begin(), device_members.end());
    const auto it = oracle.find(b);
    ASSERT_EQ(device_members,
              it == oracle.end() ? std::vector<int32_t>{} : it->second)
        << "box " << b;
  }
}

TEST_F(GridBuildTest, BuildKernelUsesAtomics) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 1000, 0.0, 30.0, 10.0);  // dense: conflicts
  BuildOnDevice(rm);
  gpusim::ProfileReport report(rt_.device());
  const auto* build = report.Find("ug_build");
  ASSERT_NE(build, nullptr);
  EXPECT_EQ(build->atomic_ops, 2u * rm.size());  // exchange + count
  // Dense population: some warps must have had same-box conflicts.
  EXPECT_GT(build->atomic_serialized, 0u);
}

}  // namespace
}  // namespace biosim::gpu
