// Cell: the spherical agent the paper models (Section III).
//
// Cell is a non-owning *view* onto one row of the ResourceManager's SoA
// arrays — the modeler-facing handle BioDynaMo calls a "simulation object".
// Mutations write straight through to the attribute arrays; Divide() and
// RemoveFromSimulation() append to the context's effects buffer, which the
// commit phase applies.
#ifndef BIOSIM_CORE_CELL_H_
#define BIOSIM_CORE_CELL_H_

#include "core/agent_uid.h"
#include "core/math.h"
#include "core/resource_manager.h"
#include "core/sim_context.h"

namespace biosim {

class Cell {
 public:
  Cell(ResourceManager& rm, AgentIndex index) : rm_(&rm), index_(index) {}

  AgentIndex index() const { return index_; }
  AgentUid uid() const { return rm_->uids()[index_]; }

  const Double3& position() const { return rm_->positions()[index_]; }
  void SetPosition(const Double3& p) { rm_->positions()[index_] = p; }

  double diameter() const { return rm_->diameters()[index_]; }
  double radius() const { return diameter() / 2.0; }
  double volume() const { return rm_->volumes()[index_]; }
  double adherence() const { return rm_->adherences()[index_]; }
  void SetAdherence(double a) { rm_->adherences()[index_] = a; }
  double density() const { return rm_->densities()[index_]; }
  double mass() const { return density() * volume(); }

  const Double3& tractor_force() const {
    return rm_->tractor_forces()[index_];
  }
  void SetTractorForce(const Double3& f) {
    rm_->tractor_forces()[index_] = f;
  }

  /// Set the diameter; volume is kept consistent.
  void SetDiameter(double d) {
    rm_->diameters()[index_] = d;
    rm_->volumes()[index_] = math::SphereVolume(d);
  }

  /// Add `dv` to the volume (growth); diameter is kept consistent. Volume is
  /// clamped to stay positive.
  void ChangeVolume(double dv) {
    double v = std::max(rm_->volumes()[index_] + dv, 1e-9);
    rm_->volumes()[index_] = v;
    rm_->diameters()[index_] = math::SphereDiameter(v);
  }

  /// Divide this cell into two: the mother keeps a fraction of the volume and
  /// a daughter with the remainder is enqueued next to it along a random
  /// axis. Total volume is conserved. The daughter inherits adherence,
  /// density, and every behavior marked copy_to_new.
  ///
  /// `volume_ratio_range` follows the classic Cortex3D rule: the
  /// daughter/mother volume ratio is uniform in [0.9, 1.1].
  void Divide(SimContext& ctx) { Divide(ctx, ctx.RandomFor(uid()).UnitVector()); }
  void Divide(SimContext& ctx, const Double3& axis);

  /// Enqueue removal of this cell (apoptosis).
  void RemoveFromSimulation(SimContext& ctx) {
    ctx.effects().removals.push_back(index_);
  }

 private:
  ResourceManager* rm_;
  AgentIndex index_;
};

}  // namespace biosim

#endif  // BIOSIM_CORE_CELL_H_
