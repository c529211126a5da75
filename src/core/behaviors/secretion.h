// Secretion: the agent deposits a substance into the extracellular
// diffusion grid each step (e.g. a tumor cell consuming oxygen is modeled as
// a negative rate).
#ifndef BIOSIM_CORE_BEHAVIORS_SECRETION_H_
#define BIOSIM_CORE_BEHAVIORS_SECRETION_H_

#include <string>
#include <utility>

#include "core/behavior.h"
#include "core/cell.h"
#include "diffusion/diffusion_grid.h"

namespace biosim {

class Secretion : public Behavior {
 public:
  /// `rate`: concentration units added to the agent's voxel per hour.
  /// Deposits into the context's default substance (the first grid).
  explicit Secretion(double rate) : rate_(rate) {}

  /// Deposit into the named substance instead of the default grid. A
  /// missing name is a silent no-op (same contract as a grid-less context).
  Secretion(std::string substance, double rate)
      : substance_(std::move(substance)), rate_(rate) {}

  void Run(Cell& cell, SimContext& ctx) const override {
    // Buffered in the context's effects: applied after the parallel
    // behaviors pass in agent-index order, so the field stays bitwise
    // reproducible at any thread count. Name-routed secretion resolves its
    // own grid — every substance keeps its own field (the pre-fix merge
    // dumped all deposits into the first grid).
    DiffusionGrid* grid = substance_.empty() ? ctx.diffusion_grid
                                             : ctx.FindSubstance(substance_);
    ctx.DepositSubstance(cell.position(),
                         rate_ * ctx.param().simulation_time_step, grid);
  }

  const char* name() const override { return "Secretion"; }

 private:
  std::string substance_;  // empty = default (first) grid
  double rate_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_BEHAVIORS_SECRETION_H_
