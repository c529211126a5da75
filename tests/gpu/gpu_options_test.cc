// Option-combination tests for the GPU offload: the v2 step leaves the host
// SoA in Z-order, results do not depend on block size or meter stride, the
// optional kernels hold in FP64, and the constructor and Version() reject
// invalid options.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "../test_util.h"
#include "gpu/gpu_mechanical_op.h"
#include "spatial/morton.h"
#include "spatial/null_environment.h"

namespace biosim::gpu {
namespace {

std::map<AgentUid, Double3> RunAndCollect(GpuMechanicsOptions opts,
                                          uint64_t seed = 21) {
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 700, 0.0, 55.0, 10.0, seed);
  Param param;
  GpuMechanicalOp op(std::move(opts));
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  std::map<AgentUid, Double3> out;
  for (size_t i = 0; i < rm.size(); ++i) {
    out[rm.uids()[i]] = op.last_displacements()[i];
  }
  return out;
}

TEST(GpuOptionsTest, ZOrderStepSortsTheAgents) {
  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(2);
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 400, 0.0, 64.0, 8.0);
  Param param;
  // Freeze the agents so the post-step order is exactly the sorted order
  // (displacements would otherwise move agents across Morton bins).
  param.simulation_max_displacement = 0.0;
  GpuMechanicalOp op(opts);
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);

  // The op sorts with cell = largest diameter (8.0 here).
  AABBd b = rm.Bounds();
  uint64_t prev = 0;
  for (size_t i = 0; i < rm.size(); ++i) {
    uint64_t key = MortonEncodePosition(rm.positions()[i], b.min,
                                        rm.LargestDiameter());
    ASSERT_GE(key, prev) << "row " << i;
    prev = key;
  }
}

TEST(GpuOptionsTest, ResultsIndependentOfBlockSize) {
  auto base = RunAndCollect(GpuMechanicsOptions::Version(1));
  for (size_t bd : {32, 64, 512}) {
    GpuMechanicsOptions opts = GpuMechanicsOptions::Version(1);
    opts.block_dim = bd;
    auto got = RunAndCollect(opts);
    for (const auto& [uid, disp] : base) {
      ASSERT_EQ(got.at(uid), disp) << "block_dim " << bd;
    }
  }
}

TEST(GpuOptionsTest, ResultsIndependentOfMeterStride) {
  // Sampling only affects counters, never functional results.
  auto exact = RunAndCollect(GpuMechanicsOptions::Version(2));
  GpuMechanicsOptions sampled_opts = GpuMechanicsOptions::Version(2);
  sampled_opts.meter_stride = 16;
  auto sampled = RunAndCollect(sampled_opts);
  for (const auto& [uid, disp] : exact) {
    ASSERT_EQ(sampled.at(uid), disp);
  }
}

TEST(GpuOptionsTest, SharedKernelWorksInFp64) {
  // v3 is FP32 in the paper's ladder, but the template must also hold for
  // FP64 (smaller shared staging capacity path). Compare against the plain
  // FP64 kernel on the identical population.
  GpuMechanicsOptions shared_opts = GpuMechanicsOptions::Version(3);
  shared_opts.precision = GpuPrecision::kFp64;
  shared_opts.zorder_sort = false;
  auto got = RunAndCollect(shared_opts, 77);
  auto ref = RunAndCollect(GpuMechanicsOptions::Version(0), 77);
  ASSERT_EQ(got.size(), ref.size());
  for (const auto& [uid, want] : ref) {
    ASSERT_NEAR(got.at(uid).x, want.x, 1e-9);
    ASSERT_NEAR(got.at(uid).y, want.y, 1e-9);
    ASSERT_NEAR(got.at(uid).z, want.z, 1e-9);
  }
}

TEST(GpuOptionsTest, NeighborParallelWorksInFp64) {
  GpuMechanicsOptions opts;
  opts.precision = GpuPrecision::kFp64;
  opts.neighbor_parallel = true;
  auto got = RunAndCollect(opts, 78);
  auto ref = RunAndCollect(GpuMechanicsOptions::Version(0), 78);
  for (const auto& [uid, disp] : ref) {
    ASSERT_NEAR(got.at(uid).x, disp.x, 1e-9);
    ASSERT_NEAR(got.at(uid).y, disp.y, 1e-9);
    ASSERT_NEAR(got.at(uid).z, disp.z, 1e-9);
  }
}

/// Expects constructing the op with `opts` to throw std::invalid_argument
/// whose message names `field`.
void ExpectRejected(const GpuMechanicsOptions& opts, const std::string& field,
                    const std::string& what_case) {
  try {
    GpuMechanicalOp op(opts);
    ADD_FAILURE() << "accepted " << what_case;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << what_case << ": " << e.what();
  }
}

TEST(GpuOptionsTest, InvalidOptionsThrowNamingTheField) {
  // A stride below 1 samples nothing and would divide by zero in the
  // device's sampled cache sizing.
  for (int stride : {0, -3}) {
    GpuMechanicsOptions opts = GpuMechanicsOptions::Version(2);
    opts.meter_stride = stride;
    ExpectRejected(opts, "meter_stride",
                   "meter_stride " + std::to_string(stride));
  }
  GpuMechanicsOptions empty_block = GpuMechanicsOptions::Version(2);
  empty_block.block_dim = 0;
  ExpectRejected(empty_block, "block_dim", "block_dim 0");
  GpuMechanicsOptions huge_block = GpuMechanicsOptions::Version(2);
  huge_block.block_dim =
      static_cast<size_t>(huge_block.device.max_threads_per_block) + 1;
  ExpectRejected(huge_block, "block_dim", "block_dim past the device limit");
  // A warp per cell: lanes past the last full warp would write the next
  // block's cell.
  for (size_t bd : {16, 48, 100}) {
    GpuMechanicsOptions opts = GpuMechanicsOptions::Version(4);
    opts.block_dim = bd;
    ExpectRejected(opts, "block_dim",
                   "neighbor_parallel block_dim " + std::to_string(bd));
  }
  // The limits themselves are valid.
  GpuMechanicsOptions edge = GpuMechanicsOptions::Version(4);
  edge.meter_stride = 1;
  edge.block_dim = static_cast<size_t>(edge.device.max_threads_per_block);
  EXPECT_NO_THROW(GpuMechanicalOp{edge});
  edge.block_dim = 32;
  EXPECT_NO_THROW(GpuMechanicalOp{edge});
  GpuMechanicsOptions one_lane = GpuMechanicsOptions::Version(2);
  one_lane.block_dim = 1;
  EXPECT_NO_THROW(GpuMechanicalOp{one_lane});
}

TEST(GpuOptionsTest, FixedBoxSmallerThanTheInteractionRadiusThrows) {
  // A 4 um box under diameter-10 cells 9.5 um apart bins the overlapping
  // pair more than one box apart, so the 27-box scheme would drop it. The
  // device lattice rejects the box, as the CPU grid does.
  ResourceManager rm;
  NewAgentSpec a, b;
  a.position = {20, 20, 20};
  b.position = {29.5, 20, 20};
  rm.AddAgent(std::move(a));
  rm.AddAgent(std::move(b));
  Param param;
  param.min_bound = 0.0;
  param.max_bound = 50.0;
  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(0);
  opts.fixed_box_length = 4.0;
  GpuMechanicalOp op(std::move(opts));
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  EXPECT_THROW(op.Step(rm, env, param, ExecMode::kSerial, nullptr),
               std::invalid_argument);
}

TEST(GpuOptionsTest, VersionOutsideTheLadderThrowsNamingGpuVersion) {
  // Version(7) used to give the v2 options and Version(-1) the v0 ones.
  for (int v : {-1, 5, 7}) {
    try {
      GpuMechanicsOptions::Version(v);
      ADD_FAILURE() << "accepted version " << v;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("gpu_version"), std::string::npos)
          << e.what();
    }
  }
  for (int v = 0; v <= 4; ++v) {
    EXPECT_NO_THROW(GpuMechanicsOptions::Version(v)) << v;
  }
}

}  // namespace
}  // namespace biosim::gpu
