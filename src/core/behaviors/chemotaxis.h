// Chemotaxis: the agent biases its motion along (or against) the gradient of
// an extracellular substance by writing into its tractor force, which the
// mechanical operation adds to the collision force before integrating the
// displacement.
#ifndef BIOSIM_CORE_BEHAVIORS_CHEMOTAXIS_H_
#define BIOSIM_CORE_BEHAVIORS_CHEMOTAXIS_H_

#include "core/behavior.h"
#include "core/cell.h"
#include "diffusion/diffusion_grid.h"

namespace biosim {

class Chemotaxis : public Behavior {
 public:
  /// `speed` scales the normalized gradient into a tractor force; negative
  /// values flee the substance.
  explicit Chemotaxis(double speed) : speed_(speed) {}

  void Run(Cell& cell, SimContext& ctx) const override {
    if (ctx.diffusion_grid == nullptr) {
      return;
    }
    Double3 grad = ctx.diffusion_grid->GetGradient(cell.position());
    cell.SetTractorForce(grad.Normalized() * speed_);
  }

  const char* name() const override { return "Chemotaxis"; }

 private:
  double speed_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_BEHAVIORS_CHEMOTAXIS_H_
