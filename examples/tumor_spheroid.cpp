// Tumor spheroid with nutrient limitation — a domain model that exercises
// the whole engine: mechanics + growth/division + extracellular diffusion +
// chemotaxis, the combination the paper's related-work section argues for
// (mechanics offloadable to GPU while diffusion stays on the host CPU).
//
// A small clump of tumor cells consumes oxygen from a diffusing field and
// only proliferates where enough oxygen remains, producing the classic
// rim-proliferation pattern; cells also creep up the oxygen gradient. The
// table's o2_min column is the lowest voxel of the field: uptake is
// first-order in the local concentration, so it never goes negative.
//
//   ./build/examples/tumor_spheroid [steps]
#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>

#include "app/config.h"
#include "core/behaviors/chemotaxis.h"
#include "core/random.h"
#include "core/simulation.h"

namespace {

using namespace biosim;

/// Cells divide only at or above this oxygen concentration.
constexpr double kOxygenThreshold = 10.0;
/// Uptake per hour as a fraction of the local concentration. A step takes
/// 3% of a voxel's content per resident cell (dt = 0.01 h); the densest
/// 20 um voxel of a 150-step run holds 25 cells, so it gives up 75%.
constexpr double kUptakeRate = 3.0;

/// Grow and divide only where the local oxygen exceeds a threshold; consume
/// oxygen while alive, at a rate proportional to the local concentration
/// (first-order uptake). Each cell takes the fraction uptake_rate * dt of
/// its voxel's pre-step content, so a voxel holding N cells loses the
/// fraction N * uptake_rate * dt of it: the field stays non-negative while
/// that is below 1. Parameters only: one object is shared by a cell and all
/// its descendants.
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
    // All agents therefore decide, and take their share, against the same
    // pre-uptake field.
    const double local = oxygen->GetConcentration(cell.position());
    ctx.DepositSubstance(cell.position(), -uptake_rate_ * dt * local);
    if (local < oxygen_threshold_) {
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
  double uptake_rate_;  // 1/h
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
                 kOxygenThreshold, kUptakeRate));
    sim.rm().AttachBehavior(idx, std::make_unique<Chemotaxis>(/*speed=*/1.0));
  }

  DiffusionGrid* o2 = sim.diffusion_grid();
  std::printf("step  cells   o2_center  o2_rim   o2_min  spheroid_radius\n");
  for (uint64_t s = 0; s < steps; ++s) {
    sim.Simulate(1);
    if ((s + 1) % 25 == 0) {
      AABBd b = sim.rm().Bounds();
      double radius = (b.Size().x + b.Size().y + b.Size().z) / 6.0;
      std::printf("%4zu  %5zu %10.2f %8.2f %8.4f %12.1f\n",
                  static_cast<size_t>(s + 1), sim.rm().size(),
                  o2->GetConcentration({200, 200, 200}),
                  o2->GetConcentration({200 + radius + 10, 200, 200}),
                  *std::min_element(o2->raw().begin(), o2->raw().end()),
                  radius);
    }
  }

  // Describe the final state from the field the cells read.
  size_t oxygenated = 0;
  for (const Double3& pos : sim.rm().positions()) {
    oxygenated += o2->GetConcentration(pos) >= kOxygenThreshold ? 1 : 0;
  }
  const double center = o2->GetConcentration({200, 200, 200});
  std::printf(
      "\nAfter %zu steps, %zu cells: the center is %s (o2 %.2f, division "
      "threshold %.0f),\nand %zu cells see enough oxygen to keep dividing.\n",
      static_cast<size_t>(steps), sim.rm().size(),
      center < kOxygenThreshold ? "hypoxic and its cells quiescent"
                                : "still oxygenated",
      center, kOxygenThreshold, oxygenated);
  std::printf("\noperation profile:\n%s", sim.profile().ToString().c_str());
  return 0;
}
