#include "app/runner.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "../test_util.h"
#include "core/checkpoint.h"
#include "gpu/gpu_mechanical_op.h"
#include "spatial/uniform_grid.h"

namespace biosim::app {
namespace {

using testutil::TempPath;

TEST(RunnerTest, BuildsCellDivisionModelOnCpu) {
  RunConfig cfg;
  cfg.model_type = "cell_division";
  cfg.cells_per_dim = 4;
  auto sim = BuildSimulation(cfg);
  EXPECT_EQ(sim->rm().size(), 64u);
  EXPECT_STREQ(sim->mechanics_backend().name(), "cpu");
  EXPECT_STREQ(sim->environment().name(), "uniform-grid");
  // Every cell has the division behavior.
  EXPECT_EQ(sim->rm().behaviors_of(0).size(), 1u);
}

TEST(RunnerTest, BuildsRandomCloudSizedForDensity) {
  RunConfig cfg;
  cfg.model_type = "random_cloud";
  cfg.agents = 20000;
  cfg.density = 27.0;
  cfg.diameter = 10.0;
  auto sim = BuildSimulation(cfg);
  EXPECT_EQ(sim->rm().size(), 20000u);
  UniformGridEnvironment probe;
  probe.Update(sim->rm(), sim->param(), ExecMode::kSerial);
  double n = probe.MeanNeighborCount(sim->rm(), 20);
  EXPECT_GT(n, 18.0);
  EXPECT_LT(n, 30.0);
}

TEST(RunnerTest, BuildsGpuBackend) {
  RunConfig cfg;
  cfg.backend_type = "gpu";
  cfg.gpu_version = 2;
  cfg.gpu_device = "v100";
  cfg.cells_per_dim = 3;
  auto sim = BuildSimulation(cfg);
  auto* op = dynamic_cast<gpu::GpuMechanicalOp*>(&sim->mechanics_backend());
  ASSERT_NE(op, nullptr);
  EXPECT_TRUE(op->options().zorder_sort);
  EXPECT_EQ(op->options().device.name, "NVIDIA Tesla V100");
}

TEST(RunnerTest, BuildRejectsCrossKeyCombinations) {
  // Each of these parses (config.cc checks keys one at a time); the build
  // rejects the pairing, so the INI, the CLI flags and VerifyDeterminism
  // all meet the same rule. `names` are words the message must contain.
  struct Case {
    const char* ini;
    std::vector<std::string> names;
  };
  const Case cases[] = {
      {"[simulation]\nboundary = torus\n[backend]\ntype = gpu\n",
       {"boundary", "gpu"}},
      {"[simulation]\nshards = 2\n[backend]\ntype = gpu\n",
       {"shards", "gpu"}},
      {"[backend]\nsanitize = true\n", {"sanitize", "gpu"}},
      {"[backend]\nracy_grid_build = true\n", {"racy_grid_build", "gpu"}},
      {"[model]\nsecretion_rate = 0.5\n",
       {"secretion_rate", "substance_resolution"}},
      // Single-key ranges owned by the constructors the build calls.
      {"[model]\nsubstance_resolution = 1\n", {"resolution"}},
      {"[backend]\ntype = gpu\ngpu_version = 9\n", {"gpu_version"}},
      {"[backend]\ntype = gpu\nmeter_stride = 0\n", {"meter_stride"}},
      {"[simulation]\ntimestep = 0\n", {"time_step"}},
  };
  for (const Case& c : cases) {
    RunConfig cfg = ParseConfigString(std::string(c.ini) +
                                      "[model]\ncells_per_dim = 2\n");
    try {
      BuildSimulation(cfg);
      ADD_FAILURE() << "built " << c.ini;
    } catch (const std::invalid_argument& e) {
      for (const std::string& name : c.names) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << c.ini << ": " << e.what();
      }
    }
  }
}

TEST(RunnerTest, BuildRejectsOversizedPopulationsBeforeAllocating) {
  // The INI reaches the builders' population check, naming the argument
  // just as the C++ API does (SimulationTest.OversizedPopulations...).
  RunConfig grid = ParseConfigString("[model]\ncells_per_dim = 1291\n");
  RunConfig cloud = ParseConfigString(
      "[model]\ntype = random_cloud\nagents = 2147483648\n");
  for (const auto& [cfg, name] :
       {std::pair{grid, "cells_per_dim"}, std::pair{cloud, "count"}}) {
    try {
      BuildSimulation(cfg);
      ADD_FAILURE() << "built " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

TEST(RunnerTest, ExecuteRunProducesOutputs) {
  RunConfig cfg;
  cfg.model_type = "cell_division";
  cfg.cells_per_dim = 3;
  cfg.steps = 5;
  cfg.timeseries_path = TempPath("run_ts.csv");
  cfg.vtk_path = TempPath("run.vtk");
  cfg.csv_path = TempPath("run.csv");
  cfg.checkpoint_path = TempPath("run.ckpt");

  RunSummary s = ExecuteRun(cfg);
  EXPECT_EQ(s.initial_agents, 27u);
  EXPECT_GE(s.final_agents, s.initial_agents);
  EXPECT_GT(s.wall_ms, 0.0);
  EXPECT_NE(s.profile.find("mechanical forces"), std::string::npos);

  // Timeseries has steps+1 rows (recorded before each step and after the
  // last) plus a header.
  std::ifstream ts(cfg.timeseries_path);
  ASSERT_TRUE(ts.good());
  std::string content((std::istreambuf_iterator<char>(ts)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'), 7);

  // Checkpoint restores to the final population.
  ResourceManager restored;
  ASSERT_TRUE(LoadCheckpoint(&restored, cfg.checkpoint_path));
  EXPECT_EQ(restored.size(), s.final_agents);

  for (const auto& p : {cfg.timeseries_path, cfg.vtk_path, cfg.csv_path,
                        cfg.checkpoint_path}) {
    std::remove(p.c_str());
  }
}

TEST(RunnerTest, TorusCloudRunsOnCpu) {
  RunConfig cfg;
  cfg.model_type = "random_cloud";
  cfg.agents = 2000;
  cfg.density = 27.0;
  cfg.boundary = "torus";
  cfg.steps = 3;
  RunSummary s = ExecuteRun(cfg);
  EXPECT_EQ(s.final_agents, 2000u);
}

TEST(RunnerTest, GpuRunReportsSimulatedTime) {
  RunConfig cfg;
  cfg.model_type = "random_cloud";
  cfg.agents = 2000;
  cfg.backend_type = "gpu";
  cfg.gpu_version = 1;
  cfg.steps = 2;
  RunSummary s = ExecuteRun(cfg);
  EXPECT_GT(s.gpu_simulated_ms, 0.0);
  EXPECT_NE(s.profile.find("gpu kernels (sim)"), std::string::npos);
}

TEST(RunnerTest, SanitizedGpuRunReportsCleanKernels) {
  RunConfig cfg;
  cfg.model_type = "random_cloud";
  cfg.agents = 1000;
  cfg.backend_type = "gpu";
  cfg.gpu_version = 3;  // shared-memory kernel: the hairiest hazard surface
  cfg.sanitize = true;
  cfg.steps = 2;
  RunSummary s = ExecuteRun(cfg);
  EXPECT_EQ(s.sanitizer_hazards, 0u) << s.sanitizer_report;
  EXPECT_NE(s.sanitizer_report.find("SANITIZER SUMMARY: 0 hazards"),
            std::string::npos);
}

TEST(RunnerTest, ReproducibleAcrossRuns) {
  RunConfig cfg;
  cfg.model_type = "cell_division";
  cfg.cells_per_dim = 3;
  cfg.steps = 6;
  RunSummary a = ExecuteRun(cfg);
  RunSummary b = ExecuteRun(cfg);
  EXPECT_EQ(a.final_agents, b.final_agents);
}

TEST(RunnerTest, UnwritableOutputFails) {
  RunConfig cfg;
  cfg.cells_per_dim = 2;
  cfg.steps = 1;
  cfg.vtk_path = "/nonexistent_dir_xyz/out.vtk";
  EXPECT_THROW(ExecuteRun(cfg), std::runtime_error);
}

}  // namespace
}  // namespace biosim::app
