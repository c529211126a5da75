// Sanitizer coverage of the production GPU pipeline: every kernel
// generation of the paper's version ladder (plus the grid build) must run
// hazard-free, while the deliberately-defective diagnostic kernels must
// each be caught.
#include <gtest/gtest.h>

#include "../test_util.h"
#include "gpu/diagnostic_kernels.h"
#include "gpu/gpu_mechanical_op.h"
#include "gpusim/cuda_like.h"
#include "gpusim/sanitizer.h"
#include "spatial/null_environment.h"

namespace biosim::gpu {
namespace {

using gpusim::BlockCtx;
using gpusim::HazardKind;
using gpusim::Lane;

/// One mechanics step of the given paper version with the sanitizer
/// attached; returns the accumulated report.
gpusim::SanitizerReport RunSanitizedStep(int version) {
  ResourceManager rm;
  testutil::FillLatticeCells(&rm, 8, 10.0, 10.0, /*jitter=*/1.5);
  Param param;
  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(version);
  opts.sanitize = true;
  GpuMechanicalOp op(opts);
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  return op.device().sanitizer()->report();
}

TEST(KernelSanitizerTest, BaselineFp64KernelIsClean) {
  gpusim::SanitizerReport r = RunSanitizedStep(0);
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(KernelSanitizerTest, Fp32KernelIsClean) {
  gpusim::SanitizerReport r = RunSanitizedStep(1);
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(KernelSanitizerTest, ZorderKernelIsClean) {
  gpusim::SanitizerReport r = RunSanitizedStep(2);
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(KernelSanitizerTest, SharedMemoryKernelIsClean) {
  gpusim::SanitizerReport r = RunSanitizedStep(3);
  EXPECT_TRUE(r.clean()) << r.ToString();
}

TEST(KernelSanitizerTest, NeighborParallelKernelIsClean) {
  gpusim::SanitizerReport r = RunSanitizedStep(4);
  EXPECT_TRUE(r.clean()) << r.ToString();
}

// --- diagnostic kernels: each planted bug must be caught -----------------

class DiagnosticKernelTest : public ::testing::Test {
 protected:
  DiagnosticKernelTest() { san_ = rt_.device().EnableSanitizer(); }

  gpusim::cuda::Runtime rt_{gpusim::DeviceSpec::GTX1080Ti()};
  gpusim::Sanitizer* san_ = nullptr;
};

TEST_F(DiagnosticKernelTest, RacyGridBuildTriggersGlobalRacecheck) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 64, 0.0, 30.0, 10.0);
  Param param;
  auto g = GridParams<float>::From(GridGeometry::Derive(rm, param));
  size_t n = rm.size();
  size_t boxes = g.total_boxes();

  MechDeviceState<float> s;
  s.x = rt_.Malloc<float>(n);
  s.y = rt_.Malloc<float>(n);
  s.z = rt_.Malloc<float>(n);
  s.successors = rt_.Malloc<int32_t>(n);
  s.box_start = rt_.Malloc<int32_t>(boxes);
  s.box_count = rt_.Malloc<int32_t>(boxes);
  for (size_t i = 0; i < n; ++i) {
    s.x[i] = static_cast<float>(rm.positions()[i].x);
    s.y[i] = static_cast<float>(rm.positions()[i].y);
    s.z[i] = static_cast<float>(rm.positions()[i].z);
  }

  rt_.LaunchKernel("ug_reset", gpusim::cuda::Runtime::BlocksFor(boxes, 128),
                   128,
                   [&](BlockCtx& blk) { UgResetKernelBody(blk, s, boxes); });
  EXPECT_TRUE(san_->report().clean()) << san_->report().ToString();

  rt_.LaunchKernel("ug_build_racy", gpusim::cuda::Runtime::BlocksFor(n, 128),
                   128,
                   [&](BlockCtx& blk) { RacyUgBuildKernelBody(blk, s, g, n); });
  EXPECT_GE(san_->report().Count(HazardKind::kGlobalRace), 1u)
      << san_->report().ToString();
  EXPECT_EQ(san_->report().hazards()[0].kernel, "ug_build_racy");
}

TEST_F(DiagnosticKernelTest, NonAtomicSharedCounterTriggersRacecheck) {
  rt_.LaunchKernel("shared_race", 2, 64,
                   [&](BlockCtx& blk) { SharedRaceKernelBody(blk); });
  EXPECT_GE(san_->report().Count(HazardKind::kSharedRace), 1u)
      << san_->report().ToString();
}

TEST_F(DiagnosticKernelTest, OffByOneReadTriggersMemcheck) {
  const size_t n = 128;
  auto buf = rt_.Malloc<float>(n);
  auto out = rt_.Malloc<float>(n);
  for (size_t i = 0; i < n; ++i) {
    buf[i] = 1.0f;
  }
  rt_.LaunchKernel("oob_walk", gpusim::cuda::Runtime::BlocksFor(n, 64), 64,
                   [&](BlockCtx& blk) {
                     OobReadKernelBody(blk, buf, out, n);
                   });
  ASSERT_EQ(san_->report().Count(HazardKind::kOutOfBounds), 1u)
      << san_->report().ToString();
  const gpusim::Hazard& h = san_->report().hazards()[0];
  EXPECT_EQ(h.addr, buf.addr(n));
  EXPECT_EQ(h.kernel, "oob_walk");
}

TEST_F(DiagnosticKernelTest, ZeroFillRelianceTriggersMemcheck) {
  auto out = rt_.Malloc<int32_t>(2);
  rt_.LaunchKernel("uninit_reduce", 2, 64, [&](BlockCtx& blk) {
    UninitSharedReadKernelBody(blk, out);
  });
  EXPECT_GE(san_->report().Count(HazardKind::kUninitializedRead), 1u)
      << san_->report().ToString();
}

TEST_F(DiagnosticKernelTest, ConditionalBarrierTriggersSynccheck) {
  auto out = rt_.Malloc<int32_t>(256);
  rt_.LaunchKernel("divergent_barrier", 4, 64, [&](BlockCtx& blk) {
    DivergentBarrierKernelBody(blk, out);
  });
  EXPECT_EQ(san_->report().Count(HazardKind::kBarrierDivergence), 1u)
      << san_->report().ToString();
}

}  // namespace
}  // namespace biosim::gpu
