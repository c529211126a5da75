// CPU mechanical-interaction operation.
//
// For each agent: iterate its neighborhood through the Environment, sum the
// Eq. (1) collision forces plus the tractor force, convert to a displacement
// (adherence gate + clamp), and buffer it. Displacements are applied in a
// second pass so the computation reads a consistent snapshot of positions —
// the same two-phase structure the GPU offload uses (compute on device,
// apply on host).
//
// Two compute paths (docs/perf.md), bitwise interchangeable:
//
//   * fused (uniform grid): box-by-box traversal over occupancy-compacted
//     CSR views in ascending box order — the whole-lattice grid, or one
//     view per spatial shard. Each box resolves its 27-neighbor block once
//     and reuses it for every resident agent; the candidate sweep is the
//     vector kernel of physics/simd_force_kernel.h, dispatched to the
//     widest ISA the CPU supports (BIOSIM_SIMD=scalar forces the W = 1
//     reference; every width writes the same bits);
//   * generic (kd-tree, null, any other Environment): per-agent virtual
//     ForEachNeighborWithinRadius with a function_ref callback.
//
// Both visit each agent's neighbors in the identical canonical order
// (ForEachNeighborCoord block order, ascending agent index within a box)
// and evaluate the same FP expressions on them, so a uniform grid seen
// through a forwarding Environment (which the dynamic_cast misses) is the
// fused kernel's test oracle (docs/determinism.md).
#ifndef BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_
#define BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/param.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "physics/force_law.h"
#include "spatial/csr_grid_view.h"
#include "spatial/environment.h"

namespace biosim {

/// One CSR window's slice of a fused force pass (docs/sharding.md): its
/// occupancy-compacted CSR (owned + halo members) and its owned occupied
/// boxes, the slots [first_box, first_box + num_boxes). The whole-lattice
/// grid is one input owning every slot; the shard runtime guarantees the
/// owned boxes of all shards partition the global non-empty box set, so
/// every agent row is written by exactly one input.
struct ShardForceInput {
  CsrGridView view;
  uint32_t first_box = 0;
  size_t num_boxes = 0;
};

class MechanicalForcesOp {
 public:
  /// Contact law used for pairwise forces (the GPU kernels always use the
  /// paper's Cortex3D law; see force_law.h).
  explicit MechanicalForcesOp(ForceLaw law = ForceLaw::kCortex3D)
      : force_law_(law) {}

  /// Compute per-agent displacements into an internal buffer. The
  /// environment must be up to date.
  void ComputeDisplacements(const ResourceManager& rm, const Environment& env,
                            const Param& param, ExecMode mode);

  /// Apply the buffered displacements to the agent positions (and bound the
  /// space). Also zeroes the buffer.
  void ApplyDisplacements(ResourceManager& rm, const Param& param,
                          ExecMode mode);

  /// Sharded twin of ComputeDisplacements: run the fused pass once per
  /// shard over that shard's CSR view and owned boxes. Each owned box
  /// presents the identical candidate sequence the global grid would (the
  /// halo exchange ships every agent within one box of a shard face), and
  /// each agent row is owned by exactly one shard, so the displacement
  /// buffer is filled with bitwise the same values as the unsharded pass —
  /// per-shard grids only shrink the *maintenance* cost, never the force
  /// math. `interaction_radius` must not exceed `box_length` (throws
  /// std::invalid_argument; the shard lattice is derived with boxes >= the
  /// radius, so this only fires on misuse).
  void ComputeDisplacementsSharded(const ResourceManager& rm,
                                   const std::vector<ShardForceInput>& shards,
                                   double interaction_radius,
                                   double box_length, const Param& param,
                                   ExecMode mode);

  /// Displacement buffer (tests and the GPU-equivalence suite compare it).
  const std::vector<Double3>& displacements() const { return displacements_; }
  std::vector<Double3>& mutable_displacements() { return displacements_; }

  /// Number of force evaluations in the last ComputeDisplacements call
  /// (work-count diagnostics; also drives CPU-model calibration). Identical
  /// between the generic and fused paths — the CI perf-smoke job fails if
  /// they ever diverge.
  size_t last_force_evaluations() const { return force_evaluations_; }

  /// Whether the last ComputeDisplacements call took the fused CSR path.
  bool last_used_fast_path() const { return used_fast_path_; }

 private:
  /// The fused pass driver: one kernel pass per CSR input (the whole grid
  /// is a single input).
  void RunFusedPasses(const ResourceManager& rm,
                      std::span<const ShardForceInput> inputs,
                      double interaction_radius, double box_length,
                      const Param& param, ExecMode mode);

  ForceLaw force_law_;
  std::vector<Double3> displacements_;

  size_t force_evaluations_ = 0;
  bool used_fast_path_ = false;
};

}  // namespace biosim

#endif  // BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_
