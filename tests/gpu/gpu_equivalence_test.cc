// Functional equivalence: every GPU kernel generation, on both front-ends,
// must compute the same displacements as the CPU reference operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <vector>

#include "../test_util.h"
#include "gpu/gpu_mechanical_op.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/null_environment.h"
#include "spatial/uniform_grid.h"

namespace biosim::gpu {
namespace {

struct Config {
  int version;  // 0..3
  GpuBackendKind backend;
};

/// CPU-reference displacements keyed by agent uid.
std::map<AgentUid, Double3> CpuReference(const ResourceManager& rm,
                                         const Param& param) {
  // Work on a copy so the reference never perturbs the input.
  ResourceManager copy;
  for (size_t i = 0; i < rm.size(); ++i) {
    NewAgentSpec s;
    s.position = rm.positions()[i];
    s.diameter = rm.diameters()[i];
    s.adherence = rm.adherences()[i];
    s.density = rm.densities()[i];
    s.tractor_force = rm.tractor_forces()[i];
    copy.AddAgent(std::move(s));
  }
  UniformGridEnvironment env;
  env.Update(copy, param, ExecMode::kSerial);
  MechanicalForcesOp op;
  op.ComputeDisplacements(copy, env, param, ExecMode::kSerial);
  std::map<AgentUid, Double3> out;
  for (size_t i = 0; i < copy.size(); ++i) {
    // The copy re-assigns uids 0..n-1 in the same order as rm's rows, so
    // map through rm's uid at the same row.
    out[rm.uids()[i]] = op.displacements()[i];
  }
  return out;
}

class GpuEquivalenceTest : public ::testing::TestWithParam<Config> {};

TEST_P(GpuEquivalenceTest, DisplacementsMatchCpuReference) {
  const Config& cfg = GetParam();
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 600, 0.0, 60.0, 10.0, /*seed=*/31);
  Param param;

  auto expected = CpuReference(rm, param);

  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(cfg.version);
  opts.backend = cfg.backend;
  GpuMechanicalOp op(opts);
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);

  // Snapshot positions to verify the applied displacement too.
  std::map<AgentUid, Double3> pos_before;
  for (size_t i = 0; i < rm.size(); ++i) {
    pos_before[rm.uids()[i]] = rm.positions()[i];
  }

  op.Step(rm, env, param, ExecMode::kSerial, nullptr);

  double tol = cfg.version == 0 ? 1e-12 : 2e-4;  // FP64 vs FP32 paths
  ASSERT_EQ(op.last_displacements().size(), rm.size());
  for (size_t i = 0; i < rm.size(); ++i) {
    AgentUid uid = rm.uids()[i];
    const Double3& got = op.last_displacements()[i];
    const Double3& want = expected.at(uid);
    ASSERT_NEAR(got.x, want.x, tol) << "uid " << uid;
    ASSERT_NEAR(got.y, want.y, tol) << "uid " << uid;
    ASSERT_NEAR(got.z, want.z, tol) << "uid " << uid;
    // And the op applied exactly that displacement.
    Double3 applied = rm.positions()[i] - pos_before.at(uid);
    ASSERT_NEAR(applied.x, got.x, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVersionsBothBackends, GpuEquivalenceTest,
    ::testing::Values(Config{0, GpuBackendKind::kCudaLike},
                      Config{1, GpuBackendKind::kCudaLike},
                      Config{2, GpuBackendKind::kCudaLike},
                      Config{3, GpuBackendKind::kCudaLike},
                      Config{0, GpuBackendKind::kOpenClLike},
                      Config{2, GpuBackendKind::kOpenClLike},
                      Config{3, GpuBackendKind::kOpenClLike}),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string("v") + std::to_string(info.param.version) +
             (info.param.backend == GpuBackendKind::kCudaLike ? "_cuda"
                                                              : "_opencl");
    });

TEST(GpuEquivalenceEdgeTest, EmptyPopulationIsNoop) {
  ResourceManager rm;
  Param param;
  GpuMechanicalOp op(GpuMechanicsOptions::Version(2));
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);  // must not crash
  EXPECT_EQ(rm.size(), 0u);
}

TEST(GpuEquivalenceEdgeTest, SingleAgentOnlyTractorForce) {
  ResourceManager rm;
  NewAgentSpec s;
  s.position = {50, 50, 50};
  s.diameter = 10.0;
  s.adherence = 0.001;
  s.tractor_force = {10.0, 0.0, 0.0};
  rm.AddAgent(std::move(s));
  Param param;
  GpuMechanicalOp op(GpuMechanicsOptions::Version(1));
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  EXPECT_NEAR(op.last_displacements()[0].x,
              10.0 * param.simulation_time_step, 1e-6);
}

TEST(GpuEquivalenceEdgeTest, DenseClusterSharedKernelOverflowFallback) {
  // More agents in one 4x4x4 box region than the shared staging capacity:
  // the v3 kernel must fall back to the global path and stay correct.
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 3000, 0.0, 25.0, 10.0, /*seed=*/8);
  Param param;
  auto expected = CpuReference(rm, param);

  GpuMechanicsOptions opts = GpuMechanicsOptions::Version(3);
  opts.zorder_sort = false;  // keep rows aligned with the reference
  GpuMechanicalOp op(opts);
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);

  for (size_t i = 0; i < rm.size(); ++i) {
    const Double3& want = expected.at(rm.uids()[i]);
    ASSERT_NEAR(op.last_displacements()[i].x, want.x, 5e-4);
    ASSERT_NEAR(op.last_displacements()[i].y, want.y, 5e-4);
    ASSERT_NEAR(op.last_displacements()[i].z, want.z, 5e-4);
  }
}

TEST(GpuEquivalenceEdgeTest, MultiStepTrajectoriesStayClose) {
  // Run 5 steps CPU vs GPU v2 and compare final positions by uid, in
  // clamped and in open space. The cloud touches the -x/-y/-z faces, so
  // the host apply's bound-space rule decides where the outer cells end.
  for (BoundaryMode mode : {BoundaryMode::kClamp, BoundaryMode::kOpen}) {
    SCOPED_TRACE(mode == BoundaryMode::kClamp ? "clamp" : "open");
    Param param;
    param.boundary_mode = mode;
    ResourceManager cpu_rm, gpu_rm;
    testutil::FillRandomCells(&cpu_rm, 300, 0.0, 50.0, 10.0, /*seed=*/77);
    testutil::FillRandomCells(&gpu_rm, 300, 0.0, 50.0, 10.0, /*seed=*/77);

    UniformGridEnvironment cpu_env;
    MechanicalForcesOp cpu_op;
    GpuMechanicalOp gpu_op(GpuMechanicsOptions::Version(2));
    NullEnvironment gpu_env;

    for (int step = 0; step < 5; ++step) {
      cpu_env.Update(cpu_rm, param, ExecMode::kSerial);
      cpu_op.ComputeDisplacements(cpu_rm, cpu_env, param, ExecMode::kSerial);
      cpu_op.ApplyDisplacements(cpu_rm, param, ExecMode::kSerial);

      gpu_env.Update(gpu_rm, param, ExecMode::kSerial);
      gpu_op.Step(gpu_rm, gpu_env, param, ExecMode::kSerial, nullptr);
    }

    std::map<AgentUid, Double3> cpu_pos;
    for (size_t i = 0; i < cpu_rm.size(); ++i) {
      cpu_pos[cpu_rm.uids()[i]] = cpu_rm.positions()[i];
    }
    double lowest = param.max_bound;
    for (size_t i = 0; i < gpu_rm.size(); ++i) {
      const Double3& got = gpu_rm.positions()[i];
      const Double3& want = cpu_pos.at(gpu_rm.uids()[i]);
      ASSERT_NEAR(got.x, want.x, 5e-3);
      ASSERT_NEAR(got.y, want.y, 5e-3);
      ASSERT_NEAR(got.z, want.z, 5e-3);
      lowest = std::min({lowest, got.x, got.y, got.z});
    }
    if (mode == BoundaryMode::kClamp) {
      EXPECT_GE(lowest, param.min_bound);
    } else {
      EXPECT_LT(lowest, param.min_bound - 0.1);  // pushed out, not clamped
    }
  }
}

TEST(GpuEquivalenceEdgeTest, EmptiedPopulationClearsLastDisplacements) {
  // A step on an empty population must not leave the previous step's
  // displacements behind for readers of last_displacements().
  ResourceManager rm;
  testutil::FillRandomCells(&rm, 50, 0.0, 40.0, 10.0, /*seed=*/5);
  Param param;
  GpuMechanicalOp op(GpuMechanicsOptions::Version(1));
  NullEnvironment env;
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  ASSERT_EQ(op.last_displacements().size(), 50u);

  std::vector<AgentIndex> everyone(rm.size());
  std::iota(everyone.begin(), everyone.end(), AgentIndex{0});
  rm.CommitStructuralChanges(std::move(everyone), {});
  ASSERT_TRUE(rm.empty());
  env.Update(rm, param, ExecMode::kSerial);
  op.Step(rm, env, param, ExecMode::kSerial, nullptr);
  EXPECT_TRUE(op.last_displacements().empty());
}

}  // namespace
}  // namespace biosim::gpu
