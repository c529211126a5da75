// GPU offload: the paper's deployment mode, end to end.
//
// Runs the same proliferating-tissue model twice — once on the CPU backend
// and once with the mechanical interactions offloaded to the (simulated)
// GPU, stepping through the paper's kernel generations — and reports the
// per-version simulated device time plus the nvprof-style kernel profile.
//
//   ./build/examples/gpu_offload [cells_per_dim] [steps]
#include <cstdio>
#include <exception>
#include <memory>

#include "app/config.h"
#include "core/simulation.h"
#include "core/timer.h"
#include "gpu/gpu_mechanical_op.h"
#include "gpusim/profiler.h"
#include "spatial/null_environment.h"

int main(int argc, char** argv) {
  using namespace biosim;

  // Arguments go through the config file's checked parsers (app/config.h).
  size_t cells_per_dim = 16;
  uint64_t steps = 10;
  try {
    if (argc > 1) {
      cells_per_dim = app::ToCount<size_t>(argv[1], "cells_per_dim");
    }
    if (argc > 2) {
      steps = app::ToCount(argv[2], "steps");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  auto make_sim = [&]() {
    Param param;
    param.max_bound = static_cast<double>(cells_per_dim) * 15.0 + 200.0;
    auto sim = std::make_unique<Simulation>(param);
    sim->Create3DCellGrid(cells_per_dim, 15.0, 8.0, 16.0, 40000.0);
    return sim;
  };

  // --- CPU reference ------------------------------------------------------
  {
    auto sim = make_sim();
    Timer t;
    sim->Simulate(steps);
    std::printf("CPU backend: %zu cells after %zu steps, wall %.1f ms\n",
                sim->rm().size(), static_cast<size_t>(steps), t.ElapsedMs());
  }

  // --- GPU versions 0..3 ---------------------------------------------------
  std::printf(
      "\nGPU offload on the simulated GTX 1080 Ti (paper version ladder):\n");
  std::printf("%-10s %14s %12s\n", "version", "device_ms(sim)", "final_cells");
  for (int v = 0; v <= 3; ++v) {
    auto sim = make_sim();
    sim->SetEnvironment(std::make_unique<NullEnvironment>());
    gpu::GpuMechanicsOptions opts = gpu::GpuMechanicsOptions::Version(v);
    opts.meter_stride = 4;
    auto op = std::make_unique<gpu::GpuMechanicalOp>(opts);
    gpu::GpuMechanicalOp* op_ptr = op.get();
    sim->SetMechanicsBackend(std::move(op));
    sim->Simulate(steps);
    std::printf("%-10d %14.3f %12zu\n", v, op_ptr->SimulatedMs(),
                sim->rm().size());
    if (v == 2) {
      std::printf("\nnvprof-style profile of version 2 (the best one):\n%s\n",
                  gpusim::ProfileReport(op_ptr->device()).ToString().c_str());
    }
  }

  std::printf(
      "Expect: v1 (FP32) beats v0 (FP64); v2 (+Z-order sort) beats v1;\n"
      "v3 (+shared memory) loses ground again -- the paper's Fig. 8 ladder.\n");
  return 0;
}
