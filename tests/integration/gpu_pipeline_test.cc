// End-to-end: a Simulation whose mechanics backend is the GPU offload —
// the deployment mode the paper proposes (host engine + GPU co-processing).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/simulation.h"
#include "gpu/gpu_mechanical_op.h"
#include "spatial/null_environment.h"

namespace biosim {
namespace {

Simulation MakeGpuSim(int version, uint64_t seed = 42) {
  Param p;
  p.random_seed = seed;
  Simulation sim(p);
  sim.SetEnvironment(std::make_unique<NullEnvironment>());
  sim.SetMechanicsBackend(std::make_unique<gpu::GpuMechanicalOp>(
      gpu::GpuMechanicsOptions::Version(version)));
  return sim;
}

TEST(GpuPipelineTest, FullDivisionModelRunsOnGpuBackend) {
  Simulation sim = MakeGpuSim(2);
  sim.Create3DCellGrid(4, 20.0, 8.0, 16.0, 120000.0);
  sim.Simulate(10);
  EXPECT_GT(sim.rm().size(), 64u);
  // GPU sub-operations appear in the profile.
  const OpProfile& profile = sim.profile();
  EXPECT_GT(profile.TotalMs("gpu kernels (sim)"), 0.0);
  EXPECT_GT(profile.TotalMs("gpu h2d (sim)"), 0.0);
  EXPECT_GT(profile.TotalMs("gpu z-order sort (sim)"), 0.0);
  // Each GPU phase is also a host-timed stage, nested in "mechanical
  // forces", so the TOTAL still sums the top-level stages only.
  for (const char* phase :
       {"gpu z-order sort", "gpu h2d", "gpu kernels", "gpu d2h"}) {
    const OpProfile::Entry* e = profile.Find(phase);
    ASSERT_NE(e, nullptr) << phase;
    EXPECT_TRUE(e->nested) << phase;
    EXPECT_EQ(e->calls(), 10u) << phase;
  }
  EXPECT_LE(profile.TotalMs("gpu kernels"),
            profile.TotalMs("mechanical forces"));
  // No diffusion grid: the TOTAL is the four pipeline stages.
  double stages = 0.0;
  for (const char* stage : {"cell behaviors", "commit", "neighborhood update",
                            "mechanical forces"}) {
    stages += profile.TotalMs(stage);
  }
  EXPECT_DOUBLE_EQ(profile.GrandTotalMs(), stages);
}

TEST(GpuPipelineTest, GpuAndCpuBackendsProduceTheSameBiology) {
  // Same model on both backends. Growth and division decisions depend only
  // on per-uid volumes (deterministic), so the *biology* — population size,
  // uid set, per-uid volume — must match exactly. Positions are chaotic
  // (post-division contacts amplify FP32 noise), so they are compared only
  // in aggregate.
  Param p;
  p.random_seed = 7;
  Simulation cpu(p);
  cpu.Create3DCellGrid(3, 20.0, 8.0, 16.0, 120000.0);
  cpu.Simulate(5);

  Simulation gpu_sim = MakeGpuSim(2, 7);
  gpu_sim.Create3DCellGrid(3, 20.0, 8.0, 16.0, 120000.0);
  gpu_sim.Simulate(5);

  // The GPU pipeline's Z-order sort permutes rows before divisions commit,
  // so cells end up with different uid labels (and hence different division
  // RNG draws) — individual identities cannot be matched one-to-one. The
  // population-level biology must still agree: the same cells divide on the
  // same steps, so counts match exactly and total volume matches up to the
  // +/-10% division-ratio noise.
  ASSERT_EQ(cpu.rm().size(), gpu_sim.rm().size());
  EXPECT_NEAR(cpu.rm().TotalVolume(), gpu_sim.rm().TotalVolume(),
              0.02 * cpu.rm().TotalVolume());
  // Diameters stay inside the model's envelope on both backends.
  for (double d : gpu_sim.rm().diameters()) {
    ASSERT_GT(d, 4.0);
    ASSERT_LT(d, 17.5);
  }
}

TEST(GpuPipelineTest, SimulatedClockAdvancesWithSteps) {
  Simulation sim = MakeGpuSim(1);
  sim.CreateRandomCells(1000, 10.0);
  auto* op =
      dynamic_cast<gpu::GpuMechanicalOp*>(&sim.mechanics_backend());
  ASSERT_NE(op, nullptr);
  sim.Simulate(1);
  double after_one = op->SimulatedMs();
  EXPECT_GT(after_one, 0.0);
  sim.Simulate(1);
  EXPECT_GT(op->SimulatedMs(), after_one);
}

TEST(GpuPipelineTest, DiffusionRunsOnHostAlongsideGpuMechanics) {
  // The paper's Section II argument: co-processing keeps CPU capacity free
  // for substance diffusion. Both must advance in one pipeline.
  Simulation sim = MakeGpuSim(2);
  sim.AddDiffusionGrid(std::make_unique<DiffusionGrid>(
      "oxygen", 0.0, 1000.0, 16, 100.0, 0.0));
  sim.diffusion_grid()->IncreaseConcentrationBy({500, 500, 500}, 100.0);
  sim.CreateRandomCells(500, 10.0);
  double peak0 = sim.diffusion_grid()->MaxConcentration();
  sim.Simulate(5);
  EXPECT_LT(sim.diffusion_grid()->MaxConcentration(), peak0);  // diffused
  EXPECT_GT(sim.profile().TotalMs("gpu kernels (sim)"), 0.0);
}

TEST(GpuPipelineTest, GrowingPopulationReallocatesDeviceBuffers) {
  // Start small, grow past the initial capacity: the offload must resize
  // its device buffers without losing correctness.
  Simulation sim = MakeGpuSim(1);
  sim.Create3DCellGrid(2, 20.0, 8.0, 16.0, 240000.0);  // divide every 2 steps
  for (int i = 0; i < 8; ++i) {
    sim.Simulate(1);
  }
  // 8 cells through ~4 division cycles: well past the initial capacity of 8.
  EXPECT_GE(sim.rm().size(), 64u);
}

}  // namespace
}  // namespace biosim
