// Uniform grid environment: the paper's core CPU contribution (Section IV-A,
// Fig. 4 and Fig. 5).
//
// The simulation AABB is covered by cubic boxes of edge >= the interaction
// radius, so the neighborhood of any agent is contained in the 3x3x3 block of
// boxes around it. The paper stores the boxes as Fig. 5's {start, length}
// heads over a grid-wide successor chain built with atomics; that layout now
// lives only on the device (gpu/grid_build_kernels.h), where it is what the
// kernels consume. The host grid is the occupancy-compacted CSR of
// spatial/shard_grid.h over the whole lattice — the same structure, builder
// and slot resolver each spatial shard uses, with one window and no ghosts.
// Only occupied boxes are stored, so a step costs O(agents + occupied boxes)
// however empty the lattice is, and the build — a parallel stable radix sort
// on box keys — keeps the paper's argument: unlike the kd-tree's, it
// parallelizes.
//
// Determinism contract (docs/determinism.md): every box's run is ascending
// by agent index (the stable sort sees rows in ascending order), so
// ForEachNeighborWithinRadius and the fused force kernel visit neighbors in
// an order independent of thread count and build chunking. Downstream
// order-sensitive reductions (force accumulation in MechanicalForcesOp) are
// therefore bitwise reproducible across runs and thread counts.
#ifndef BIOSIM_SPATIAL_UNIFORM_GRID_H_
#define BIOSIM_SPATIAL_UNIFORM_GRID_H_

#include <cstdint>

#include "spatial/environment.h"
#include "spatial/grid_geometry.h"
#include "spatial/shard_grid.h"

namespace biosim {

class UniformGridEnvironment : public Environment {
 public:
  /// If `fixed_box_length` > 0, the grid always uses that box edge length
  /// instead of deriving it from the largest agent diameter (benchmark B
  /// keeps it fixed so the measured density sweep is exact).
  explicit UniformGridEnvironment(double fixed_box_length = 0.0)
      : fixed_box_length_(fixed_box_length) {}

  void Update(const ResourceManager& rm, const Param& param,
              ExecMode mode) override;

  void ForEachNeighborWithinRadius(AgentIndex query,
                                   const ResourceManager& rm, double radius,
                                   NeighborFn fn) const override;

  double interaction_radius() const override { return interaction_radius_; }
  const char* name() const override { return "uniform-grid"; }
  bool supports_torus() const override { return true; }
  bool supports_shards() const override { return true; }

  double box_length() const { return geometry_.box_length; }
  const Int3& num_boxes_axis() const { return geometry_.num_boxes_axis; }
  size_t total_boxes() const { return geometry_.TotalBoxes(); }
  const Double3& grid_min() const { return geometry_.grid_min; }

  /// The box lattice of the last Update (spatial/grid_geometry.h). Shards
  /// derive the identical lattice independently; tests compare the two.
  const GridGeometry& geometry() const { return geometry_; }

  /// The compacted CSR of the last Update: slots are the occupied boxes in
  /// ascending flat index, each run ascending by agent index. Its View() and
  /// owned slot range (every slot) are the fused force pass's input.
  const ShardGrid& csr() const { return csr_; }

  /// Number of agents in box b (flat index). O(1): the box's occupancy bit,
  /// then its slot by the bitmap's word rank (spatial/shard_grid.h).
  int32_t box_count(size_t b) const {
    const int32_t s = csr_.slot_of(b);
    return s < 0 ? 0 : csr_.box_starts()[s + 1] - csr_.box_starts()[s];
  }
  size_t occupied_boxes() const { return csr_.occupied_boxes(); }

  /// Flat box index of a position (clamped into the grid).
  size_t BoxIndexOf(const Double3& pos) const {
    return FlatBoxIndex(BoxCoordinatesOf(pos));
  }
  Int3 BoxCoordinatesOf(const Double3& pos) const {
    return geometry_.BoxCoordinatesOf(pos);
  }
  /// Inverse of FlatBoxIndex.
  Int3 BoxCoordinatesOfIndex(size_t b) const {
    return geometry_.BoxCoordinatesOfIndex(b);
  }
  size_t FlatBoxIndex(const Int3& c) const {
    return geometry_.FlatBoxIndex(c);
  }

  /// Mean number of agents per non-empty box (diagnostics; benchmark B's
  /// density knob is validated against this).
  double MeanAgentsPerBox() const;

  /// Average neighbor count over a sample of agents at the interaction
  /// radius; this is the paper's "neighborhood density" n. A
  /// `sample_stride` of 0 is clamped to 1 (sample every agent).
  double MeanNeighborCount(const ResourceManager& rm,
                           size_t sample_stride = 1) const;

  /// Whether the current Update built a periodic (torus) grid.
  bool is_torus() const { return geometry_.torus; }

  /// Updates since construction (obs exports this as grid/full_rebuilds:
  /// every Update rebuilds the CSR from scratch).
  uint64_t rebuilds() const { return rebuilds_; }

  /// The CSR arrays address agents with int32 offsets (the GPU offload
  /// consumes the same layout), so the scan's running offset would silently
  /// wrap past 2^31-1 agents. Throws std::length_error beyond that; called
  /// at the top of every Update and static so the guard path is
  /// unit-testable without allocating 2^31 agents.
  static void CheckCsrAgentCount(size_t n);

 private:
  double fixed_box_length_ = 0.0;
  double interaction_radius_ = 0.0;
  // The box lattice of the last Update (edge length, origin, axis counts,
  // torus wrap, reduced offsets): derived by GridGeometry::Derive — the same
  // function every spatial shard uses, so the two can never drift.
  GridGeometry geometry_;
  // Whole-lattice window; reconfigured only when the lattice changes.
  ShardGrid csr_;
  bool configured_ = false;
  uint64_t rebuilds_ = 0;
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_UNIFORM_GRID_H_
