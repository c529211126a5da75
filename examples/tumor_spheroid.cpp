// Tumor spheroid with nutrient limitation — a domain model that exercises
// the whole engine: mechanics + growth/division + extracellular diffusion +
// chemotaxis, the combination the paper's related-work section argues for
// (mechanics offloadable to GPU while diffusion stays on the host CPU).
//
// A small clump of tumor cells consumes oxygen from a diffusing field and
// only proliferates where enough oxygen remains, producing the classic
// rim-proliferation pattern; cells also creep up the oxygen gradient.
//
//   ./build/examples/tumor_spheroid [steps]
#include <cstdio>
#include <exception>
#include <memory>

#include "app/config.h"
#include "core/behaviors/chemotaxis.h"
#include "core/random.h"
#include "core/simulation.h"

namespace {

using namespace biosim;

/// Grow and divide only where the local oxygen exceeds a threshold; consume
/// oxygen while alive. Parameters only: one object is shared by a cell and
/// all its descendants.
class OxygenLimitedGrowth : public Behavior {
 public:
  OxygenLimitedGrowth(double threshold_diameter, double growth_rate,
                      double oxygen_threshold, double uptake_rate)
      : threshold_diameter_(threshold_diameter),
        growth_rate_(growth_rate),
        oxygen_threshold_(oxygen_threshold),
        uptake_rate_(uptake_rate) {}

  void Run(Cell& cell, SimContext& ctx) const override {
    DiffusionGrid* oxygen = ctx.diffusion_grid;
    if (oxygen == nullptr) {
      return;
    }
    double dt = ctx.param().simulation_time_step;
    // Deferred deposit: applied after the behaviors pass in agent order
    // (direct IncreaseConcentrationBy is not safe from parallel behaviors).
    // All agents therefore decide against the same pre-uptake field.
    ctx.DepositSubstance(cell.position(), -uptake_rate_ * dt);
    if (oxygen->GetConcentration(cell.position()) < oxygen_threshold_) {
      return;  // quiescent in the hypoxic core
    }
    if (cell.diameter() >= threshold_diameter_) {
      cell.Divide(ctx);
    } else {
      cell.ChangeVolume(growth_rate_ * dt);
    }
  }

  const char* name() const override { return "OxygenLimitedGrowth"; }

 private:
  double threshold_diameter_;
  double growth_rate_;
  double oxygen_threshold_;
  double uptake_rate_;
};

}  // namespace

int main(int argc, char** argv) {
  // The argument goes through the config file's checked parsers
  // (app/config.h).
  uint64_t steps = 150;
  try {
    if (argc > 1) {
      steps = app::ToCount(argv[1], "steps");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  Param param;
  param.min_bound = 0.0;
  param.max_bound = 400.0;
  Simulation sim(param);

  // Oxygen field: high everywhere initially, replenished only by diffusion
  // from the (closed) domain bulk.
  auto oxygen = std::make_unique<DiffusionGrid>("oxygen", 0.0, 400.0,
                                                /*resolution=*/20,
                                                /*D=*/2000.0, /*decay=*/0.0);
  oxygen->Initialize([](const Double3&) { return 30.0; });
  sim.AddDiffusionGrid(std::move(oxygen));

  // Seed spheroid.
  Random rng(7);
  for (int i = 0; i < 30; ++i) {
    Double3 pos = Double3{200, 200, 200} + rng.UnitVector() * rng.Uniform(0, 15);
    AgentIndex idx = sim.AddCell(pos, 9.0);
    sim.rm().AttachBehavior(
        idx, std::make_unique<OxygenLimitedGrowth>(
                 /*threshold_diameter=*/14.0, /*growth=*/30000.0,
                 /*oxygen_threshold=*/10.0, /*uptake=*/120.0));
    sim.rm().AttachBehavior(idx, std::make_unique<Chemotaxis>(/*speed=*/1.0));
  }

  std::printf("step  cells   o2_center  o2_rim   spheroid_radius\n");
  for (uint64_t s = 0; s < steps; ++s) {
    sim.Simulate(1);
    if ((s + 1) % 25 == 0) {
      DiffusionGrid* o2 = sim.diffusion_grid();
      AABBd b = sim.rm().Bounds();
      double radius = (b.Size().x + b.Size().y + b.Size().z) / 6.0;
      std::printf("%4zu  %5zu %10.2f %8.2f %12.1f\n",
                  static_cast<size_t>(s + 1), sim.rm().size(),
                  o2->GetConcentration({200, 200, 200}),
                  o2->GetConcentration({200 + radius + 10, 200, 200}), radius);
    }
  }

  std::printf(
      "\nThe hypoxic core (low o2_center) stops dividing while the rim keeps\n"
      "proliferating -- the expected spheroid growth pattern.\n");
  std::printf("\noperation profile:\n%s", sim.profile().ToString().c_str());
  return 0;
}
