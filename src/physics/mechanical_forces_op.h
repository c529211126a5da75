// CPU mechanical-interaction operation.
//
// For each agent: iterate its neighborhood through the Environment, sum the
// Eq. (1) collision forces plus the tractor force, convert to a displacement
// (adherence gate + clamp), and buffer it. Displacements are applied in a
// second pass so the computation reads a consistent snapshot of positions —
// the same two-phase structure the GPU offload uses (compute on device,
// apply on host).
//
// Two compute paths (docs/perf.md), bitwise interchangeable; the
// environment picks one through Environment::ForceInputs():
//
//   * fused (the environment returns CSR windows): box-by-box traversal
//     over occupancy-compacted CSR views in ascending box order — the
//     uniform grid's whole-lattice window, or one window per spatial shard.
//     Each box resolves its 27-neighbor block once and reuses it for every
//     resident agent; the candidate sweep is the vector kernel of
//     physics/simd_force_kernel.h, dispatched to the widest ISA the CPU
//     supports (BIOSIM_SIMD=scalar forces the W = 1 reference; every width
//     writes the same bits);
//   * generic (no windows: kd-tree, any other Environment): per-agent
//     virtual ForEachNeighborWithinRadius with a function_ref callback.
//
// Both visit each agent's neighbors in the identical canonical order
// (ForEachNeighborCoord block order, ascending agent index within a box)
// and evaluate the same FP expressions on them, so a grid or shard runtime
// seen through a ForwardingEnvironment (which returns no windows) is the
// fused kernel's test oracle (docs/determinism.md).
#ifndef BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_
#define BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/param.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "spatial/environment.h"

namespace biosim {

class MechanicalForcesOp {
 public:
  /// Compute per-agent displacements into an internal buffer: the fused
  /// pass over env.ForceInputs() when it returns windows, else the generic
  /// query path. The environment must be up to date.
  void ComputeDisplacements(const ResourceManager& rm, const Environment& env,
                            const Param& param, ExecMode mode);

  /// Apply the buffered displacements to the agent positions (and bound the
  /// space). Also zeroes the buffer.
  void ApplyDisplacements(ResourceManager& rm, const Param& param,
                          ExecMode mode);

  /// The fused pass over explicit windows: the replay entry point for
  /// drivers that step the shard runtime's phases themselves (stepbench
  /// times each layer this way). Each input's owned boxes present the
  /// candidate sequence the global grid would, and the inputs' owned boxes
  /// partition the non-empty box set, so the buffer gets bitwise the
  /// unsharded values. Throws std::invalid_argument when
  /// `interaction_radius` exceeds `box_length`.
  void ComputeDisplacementsSharded(const ResourceManager& rm,
                                   std::span<const ShardForceInput> inputs,
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
  /// is a single input). Every input shares one lattice of `box_length`.
  void RunFusedPasses(const ResourceManager& rm,
                      std::span<const ShardForceInput> inputs,
                      double interaction_radius, double box_length,
                      const Param& param, ExecMode mode);

  std::vector<Double3> displacements_;

  size_t force_evaluations_ = 0;
  bool used_fast_path_ = false;
};

}  // namespace biosim

#endif  // BIOSIM_PHYSICS_MECHANICAL_FORCES_OP_H_
