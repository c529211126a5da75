// RandomWalk: unbiased Brownian-style cell migration.
//
// Each step the agent receives a tractor force in a fresh uniform-random
// direction. Drawn from the agent's (uid, step)-keyed stream, so
// trajectories are reproducible across thread counts.
#ifndef BIOSIM_CORE_BEHAVIORS_RANDOM_WALK_H_
#define BIOSIM_CORE_BEHAVIORS_RANDOM_WALK_H_

#include "core/behavior.h"
#include "core/cell.h"

namespace biosim {

class RandomWalk : public Behavior {
 public:
  /// `speed`: magnitude of the random tractor force.
  explicit RandomWalk(double speed) : speed_(speed) {}

  void Run(Cell& cell, SimContext& ctx) const override {
    Random rng = ctx.RandomFor(cell.uid());
    cell.SetTractorForce(rng.UnitVector() * speed_);
  }

  const char* name() const override { return "RandomWalk"; }

  double speed() const { return speed_; }

 private:
  double speed_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_BEHAVIORS_RANDOM_WALK_H_
