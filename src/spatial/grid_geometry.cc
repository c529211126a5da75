#include "spatial/grid_geometry.h"

#include <stdexcept>
#include <string>

#include "core/param.h"
#include "core/resource_manager.h"

namespace biosim {

namespace {

/// Throws std::invalid_argument when a fixed box edge (> 0) is smaller
/// than `interaction_radius`.
void CheckFixedBox(double fixed_box_length, double interaction_radius) {
  if (fixed_box_length > 0.0 &&
      interaction_radius > fixed_box_length + 1e-12) {
    // The 27-box scheme only covers queries up to one box length. A fixed
    // box edge smaller than the interaction radius would silently drop
    // neighbors in every force evaluation; fail fast instead.
    throw std::invalid_argument(
        "GridGeometry: fixed_box_length " + std::to_string(fixed_box_length) +
        " is smaller than the interaction radius " +
        std::to_string(interaction_radius) +
        "; queries would drop neighbors outside the 27 surrounding boxes");
  }
}

}  // namespace

GridGeometry GridGeometry::Derive(const ResourceManager& rm,
                                  const Param& param,
                                  double fixed_box_length) {
  GridGeometry g;
  g.interaction_radius =
      rm.LargestDiameter() + param.interaction_radius_margin;

  if (rm.size() == 0) {
    // Degenerate population: a single empty box (a zero interaction radius
    // would otherwise explode the box count over the fallback bounds).
    g.grid_min = {0, 0, 0};
    g.box_length = fixed_box_length > 0.0 ? fixed_box_length : 1.0;
    g.inv_box_length = 1.0 / g.box_length;
    g.num_boxes_axis = {1, 1, 1};
    g.torus = false;
    return g;
  }

  g.box_length = fixed_box_length > 0.0
                     ? fixed_box_length
                     : std::max(g.interaction_radius, 1e-6);

  g.torus = param.boundary_mode == BoundaryMode::kTorus;
  if (g.torus) {
    // Periodic grid: cover [min_bound, max_bound) exactly with boxes no
    // smaller than the interaction radius, so the wrapped 27-box scheme
    // still sees every neighbor.
    g.edge = param.SpaceEdge();
    int32_t nb = std::max<int32_t>(
        1, static_cast<int32_t>(std::floor(g.edge / g.box_length)));
    g.box_length = g.edge / static_cast<double>(nb);
    g.grid_min = {param.min_bound, param.min_bound, param.min_bound};
    g.num_boxes_axis = {nb, nb, nb};
  } else {
    AABBd bounds = rm.Bounds();
    g.grid_min = bounds.min;
    Double3 size = bounds.Size();
    auto axis_boxes = [&](double extent) {
      return static_cast<int32_t>(std::floor(extent / g.box_length)) + 1;
    };
    g.num_boxes_axis = {axis_boxes(size.x), axis_boxes(size.y),
                        axis_boxes(size.z)};
  }
  g.inv_box_length = 1.0 / g.box_length;

  CheckFixedBox(fixed_box_length, g.interaction_radius);
  g.SetNeighborOffsets();
  return g;
}

void GridGeometry::SetNeighborOffsets() {
  // Hoist the per-axis offset ranges ({-1,0,1} normally, reduced when a
  // periodic axis has fewer than 3 boxes so a wrapped offset cannot revisit
  // the same box) out of the traversals: they are grid-shape constants.
  const int32_t boxes[3] = {num_boxes_axis.x, num_boxes_axis.y,
                            num_boxes_axis.z};
  for (int axis = 0; axis < 3; ++axis) {
    const int32_t nb = boxes[axis];
    off_lo[axis] = !torus || nb >= 2 ? -1 : 0;
    off_hi[axis] = !torus || nb >= 3 ? 1 : 0;
  }
}

}  // namespace biosim
