// GrowDivide: the paper's "cell division module" (benchmark A workload).
//
// Each step the cell grows by a fixed volume rate until it reaches a
// threshold diameter, then divides. With the default parameters a population
// roughly doubles every few steps, which is what makes benchmark A's
// neighborhoods dense and the mechanical operation dominant (Fig. 3).
#ifndef BIOSIM_CORE_BEHAVIORS_GROW_DIVIDE_H_
#define BIOSIM_CORE_BEHAVIORS_GROW_DIVIDE_H_

#include "core/behavior.h"
#include "core/cell.h"

namespace biosim {

class GrowDivide : public Behavior {
 public:
  /// `threshold_diameter`: divide once the diameter reaches this (µm).
  /// `growth_rate`: volume increase per hour (µm³/h).
  GrowDivide(double threshold_diameter = 8.0, double growth_rate = 1500.0)
      : threshold_diameter_(threshold_diameter), growth_rate_(growth_rate) {}

  void Run(Cell& cell, SimContext& ctx) const override {
    if (cell.diameter() >= threshold_diameter_) {
      cell.Divide(ctx);
    } else {
      cell.ChangeVolume(growth_rate_ * ctx.param().simulation_time_step);
    }
  }

  const char* name() const override { return "GrowDivide"; }

  double threshold_diameter() const { return threshold_diameter_; }
  double growth_rate() const { return growth_rate_; }

 private:
  double threshold_diameter_;
  double growth_rate_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_BEHAVIORS_GROW_DIVIDE_H_
