// Apoptosis: probabilistic programmed cell death.
//
// Each step the cell dies with probability rate*dt (a discretized
// exponential lifetime). Removal is deferred to the commit phase like all
// structural changes, so it is safe under parallel behavior execution.
#ifndef BIOSIM_CORE_BEHAVIORS_APOPTOSIS_H_
#define BIOSIM_CORE_BEHAVIORS_APOPTOSIS_H_

#include "core/behavior.h"
#include "core/cell.h"

namespace biosim {

class Apoptosis : public Behavior {
 public:
  /// `death_rate`: expected deaths per hour (hazard rate).
  explicit Apoptosis(double death_rate) : death_rate_(death_rate) {}

  void Run(Cell& cell, SimContext& ctx) const override {
    Random rng = ctx.RandomFor(cell.uid());
    // Skip one draw so Apoptosis and a coexisting division behavior (which
    // uses draw 0 for its ratio) do not consume the same variate.
    rng.NextU64();
    if (rng.Uniform() < death_rate_ * ctx.param().simulation_time_step) {
      cell.RemoveFromSimulation(ctx);
    }
  }

  const char* name() const override { return "Apoptosis"; }

  double death_rate() const { return death_rate_; }

 private:
  double death_rate_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_BEHAVIORS_APOPTOSIS_H_
