// Force -> displacement integration (Section III).
//
// After summing the collision forces and the agent's own tractor force, the
// engine checks whether the net force "is strong enough to break the
// adherence of the cell"; if so it integrates over the timestep and clamps
// the displacement length to the configured upper bound. Finally the
// position is kept inside the simulation space.
#ifndef BIOSIM_PHYSICS_DISPLACEMENT_H_
#define BIOSIM_PHYSICS_DISPLACEMENT_H_

#include <cmath>

#include "core/math.h"
#include "core/param.h"

namespace biosim {

/// Displacement resulting from net force `force` on an agent with the given
/// adherence, or zero if the force cannot break adherence.
template <typename T>
Real3<T> ComputeDisplacement(const Real3<T>& force, T adherence, T dt,
                             T max_displacement) {
  if (force.SquaredNorm() <= adherence * adherence) {
    return {};
  }
  return math::ClampNorm(force * dt, max_displacement);
}

/// Wrap a coordinate into [lo, lo+edge).
inline double WrapCoordinate(double v, double lo, double edge) {
  double r = std::fmod(v - lo, edge);
  if (r < 0.0) {
    r += edge;
  }
  return lo + r;
}

/// Keep a position inside the simulation cube per the boundary mode:
/// clamp to the faces, wrap around (torus), or leave untouched (open).
inline Double3 ApplyBoundSpace(const Double3& p, const Param& param) {
  switch (param.boundary_mode) {
    case BoundaryMode::kOpen:
      return p;
    case BoundaryMode::kTorus: {
      double edge = param.SpaceEdge();
      return {WrapCoordinate(p.x, param.min_bound, edge),
              WrapCoordinate(p.y, param.min_bound, edge),
              WrapCoordinate(p.z, param.min_bound, edge)};
    }
    case BoundaryMode::kClamp:
    default:
      return {math::Clamp(p.x, param.min_bound, param.max_bound),
              math::Clamp(p.y, param.min_bound, param.max_bound),
              math::Clamp(p.z, param.min_bound, param.max_bound)};
  }
}

/// Minimum-image separation vector p1 - p2 on a torus of the given edge.
inline Double3 MinImageVector(const Double3& p1, const Double3& p2,
                              double edge) {
  auto wrap = [edge](double d) {
    if (d > edge / 2.0) {
      return d - edge;
    }
    if (d < -edge / 2.0) {
      return d + edge;
    }
    return d;
  };
  Double3 d = p1 - p2;
  return {wrap(d.x), wrap(d.y), wrap(d.z)};
}

}  // namespace biosim

#endif  // BIOSIM_PHYSICS_DISPLACEMENT_H_
