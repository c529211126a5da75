// Cell division (the paper's Fig. 2 scenario and benchmark A model).
//
// A 3D lattice of cells with a grow-and-divide behavior proliferates for a
// number of steps while mechanical interactions push the growing tissue
// apart. Prints population and extent over time plus the final operation
// profile — at scale, this is the workload whose profile (paper Fig. 3)
// motivates the GPU offload.
//
//   ./build/examples/cell_division [cells_per_dim] [steps]
#include <cstdio>
#include <exception>

#include "app/config.h"
#include "core/simulation.h"

int main(int argc, char** argv) {
  using namespace biosim;

  // Arguments go through the config file's checked parsers (app/config.h).
  size_t cells_per_dim = 8;
  uint64_t steps = 20;
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

  Param param;
  param.max_bound = static_cast<double>(cells_per_dim) * 20.0 + 200.0;
  Simulation sim(param);

  // Lattice of 8 µm cells, 20 µm apart; grow to 16 µm, then divide (the
  // colors in the paper's Fig. 2 are exactly this diameter progression).
  sim.Create3DCellGrid(cells_per_dim, 20.0, 8.0, 16.0,
                       /*growth_rate=*/40000.0);

  std::printf("step  cells    mean_diameter  extent_um\n");
  for (uint64_t s = 0; s < steps; ++s) {
    sim.Simulate(1);
    if ((s + 1) % 5 == 0 || s == 0) {
      double mean_d = 0.0;
      for (double d : sim.rm().diameters()) {
        mean_d += d;
      }
      mean_d /= static_cast<double>(sim.rm().size());
      std::printf("%4zu  %7zu %10.2f %12.1f\n", static_cast<size_t>(s + 1),
                  sim.rm().size(), mean_d, sim.rm().Bounds().Size().x);
    }
  }

  std::printf("\noperation profile (cf. paper Fig. 3):\n%s",
              sim.profile().ToString().c_str());
  return 0;
}
