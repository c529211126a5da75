#include "core/cell.h"

namespace biosim {

void Cell::Divide(SimContext& ctx, const Double3& axis) {
  Random rng = ctx.RandomFor(uid());

  // Daughter/mother volume ratio uniform in [0.9, 1.1] (Cortex3D rule used
  // by BioDynaMo's cell-division module).
  double ratio = rng.Uniform(0.9, 1.1);

  double total_volume = volume();
  double daughter_volume = total_volume * ratio / (1.0 + ratio);
  double mother_volume = total_volume - daughter_volume;

  double mother_radius = math::SphereDiameter(mother_volume) / 2.0;
  double daughter_radius = math::SphereDiameter(daughter_volume) / 2.0;

  // Place the two cells along `axis` with their surfaces just touching,
  // keeping the joint center of mass at the mother's old position (masses
  // are proportional to volumes since density is inherited).
  Double3 dir = axis.Normalized();
  double separation = mother_radius + daughter_radius;
  double mother_shift = separation * daughter_volume / total_volume;
  double daughter_shift = separation * mother_volume / total_volume;

  Double3 old_position = position();

  NewAgentSpec daughter;
  daughter.position = old_position + dir * daughter_shift;
  daughter.diameter = 2.0 * daughter_radius;
  daughter.adherence = adherence();
  daughter.density = density();
  daughter.tractor_force = tractor_force();
  const std::vector<const Behavior*>& behaviors = rm_->behaviors_of(index_);
  daughter.behaviors.reserve(behaviors.size());
  for (const Behavior* b : behaviors) {
    if (b->copy_to_new) {
      daughter.behaviors.push_back(b);
    }
  }

  // Shrink the mother in place.
  SetPosition(old_position - dir * mother_shift);
  rm_->volumes()[index_] = mother_volume;
  rm_->diameters()[index_] = 2.0 * mother_radius;

  ctx.effects().births.push_back(std::move(daughter));
}

}  // namespace biosim
