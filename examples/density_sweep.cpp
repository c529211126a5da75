// Density sweep: explore how neighborhood density drives the cost of the
// mechanical-interaction operation (the knob behind the paper's benchmark B,
// Figs. 10-12).
//
// Spawns random frozen populations at a range of densities and reports, for
// each: the realized mean neighbor count, the CPU cost of one mechanics
// step for both environments, and the simulated GPU cost.
//
//   ./build/examples/density_sweep [agents]
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>

#include "app/config.h"
#include "core/simulation.h"
#include "core/timer.h"
#include "gpu/gpu_mechanical_op.h"
#include "spatial/kd_tree.h"
#include "spatial/null_environment.h"
#include "spatial/uniform_grid.h"

namespace {

double SpaceForDensity(size_t agents, double radius, double n) {
  double sphere = 4.0 / 3.0 * biosim::math::kPi * radius * radius * radius;
  return std::cbrt(static_cast<double>(agents) * sphere / n);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace biosim;
  // The argument goes through the config file's checked parsers
  // (app/config.h).
  size_t agents = 20000;
  try {
    if (argc > 1) {
      agents = app::ToCount<size_t>(argv[1], "agents");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf(
      "%8s %8s | %12s %12s %12s\n", "n(tgt)", "n(meas)", "kdtree_ms",
      "unigrid_ms", "gpu_ms(sim)");

  for (double n : {2.0, 6.0, 13.0, 27.0, 47.0, 80.0}) {
    Param param;
    param.simulation_max_displacement = 0.0;  // freeze: density stays put
    param.max_bound = SpaceForDensity(agents, 10.0, n);

    // Measure one mechanics step on each CPU environment.
    double kd_ms = 0.0, ug_ms = 0.0, measured_n = 0.0;
    for (bool kdtree : {true, false}) {
      Simulation sim(param);
      if (kdtree) {
        sim.SetEnvironment(std::make_unique<KdTreeEnvironment>());
      }
      sim.SetExecMode(ExecMode::kSerial);
      sim.CreateRandomCells(agents, 10.0);
      Timer t;
      sim.Simulate(3);
      double ms = (sim.profile().TotalMs("neighborhood update") +
                   sim.profile().TotalMs("mechanical forces")) /
                  3.0;
      if (kdtree) {
        kd_ms = ms;
      } else {
        ug_ms = ms;
        UniformGridEnvironment probe;
        probe.Update(sim.rm(), sim.param(), ExecMode::kSerial);
        measured_n = probe.MeanNeighborCount(
            sim.rm(), std::max<size_t>(1, agents / 2000));
      }
    }

    // Simulated GPU (version 2 on the V100).
    double gpu_ms;
    {
      Simulation sim(param);
      sim.SetEnvironment(std::make_unique<NullEnvironment>());
      gpu::GpuMechanicsOptions opts =
          gpu::GpuMechanicsOptions::Version(2, gpusim::DeviceSpec::TeslaV100());
      opts.meter_stride = 4;
      opts.fixed_box_length = 10.0;
      auto op = std::make_unique<gpu::GpuMechanicalOp>(opts);
      gpu::GpuMechanicalOp* op_ptr = op.get();
      sim.SetMechanicsBackend(std::move(op));
      sim.CreateRandomCells(agents, 10.0);
      sim.Simulate(3);
      gpu_ms = op_ptr->SimulatedMs() / 3.0;
    }

    std::printf("%8.0f %8.1f | %12.2f %12.2f %12.3f\n", n, measured_n, kd_ms,
                ug_ms, gpu_ms);
  }

  std::printf(
      "\nBoth CPU environments scale with density; the uniform grid stays\n"
      "ahead of the kd-tree, and the simulated GPU stays 1-2 orders below\n"
      "both (cf. paper Figs. 10-11).\n");
  return 0;
}
