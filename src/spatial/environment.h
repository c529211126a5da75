// Environment: the neighborhood-search abstraction.
//
// BioDynaMo calls the spatial index the "environment". The paper swaps one
// implementation (kd-tree) for another (uniform grid) behind exactly this
// interface, then moves the uniform-grid traversal onto the GPU. The CPU
// implementations live in this module (kd-tree, uniform grid, null,
// forwarding); the spatial shard runtime (core/shard_runtime.h) is one more,
// which Simulation steps in place of the uniform grid when
// Param::num_shards > 0. The device-side grid lives in src/gpu/.
//
// The step pipeline calls Update, then hands the environment to the
// mechanics backend. Which CSR windows the fused force pass streams is the
// environment's answer to ForceInputs() alone: one whole-lattice window for
// the uniform grid, one per shard for the shard runtime, none (the generic
// per-agent query path) for every other index.
#ifndef BIOSIM_SPATIAL_ENVIRONMENT_H_
#define BIOSIM_SPATIAL_ENVIRONMENT_H_

#include <cstddef>
#include <span>

#include "core/agent_uid.h"
#include "core/function_ref.h"
#include "core/param.h"
#include "core/profiler.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "spatial/csr_grid_view.h"

namespace biosim {

/// Callback invoked per neighbor: (neighbor row index, squared distance).
using NeighborFn = FunctionRef<void(AgentIndex, double)>;

class Environment {
 public:
  virtual ~Environment() = default;

  /// Rebuild the index from the current agent positions. Called once per
  /// timestep, after structural changes are committed and before the
  /// mechanical operation runs. `mode` selects serial vs parallel build —
  /// the serial-kd-tree vs parallel-UG build difference is a headline result
  /// of the paper (the 4.3x multithreaded gap of Fig. 8). An index built in
  /// phases may time them as stages nested in the caller's open stage on
  /// `profile` (obs/stage.h), as MechanicsBackend::Step does; nullptr
  /// records nothing. Every override repeats the default.
  virtual void Update(const ResourceManager& rm, const Param& param,
                      ExecMode mode, OpProfile* profile = nullptr) = 0;

  /// Invoke `fn` for every agent within `radius` of agent `query` (excluding
  /// `query` itself). Requires Update() to have been called for the current
  /// agent configuration.
  virtual void ForEachNeighborWithinRadius(AgentIndex query,
                                           const ResourceManager& rm,
                                           double radius,
                                           NeighborFn fn) const = 0;

  /// Interaction radius the index was built for (= largest agent
  /// diameter). Queries with a larger radius are out of contract for the
  /// uniform grid (it only visits the 27 surrounding boxes) and throw
  /// std::invalid_argument rather than silently dropping neighbors.
  virtual double interaction_radius() const = 0;

  virtual const char* name() const = 0;

  /// The CSR windows the fused force pass streams instead of querying
  /// (MechanicalForcesOp::ComputeDisplacements). Empty (the default) means
  /// the generic per-agent ForEachNeighborWithinRadius path. Valid until the
  /// next Update(). Both paths owe bitwise-identical displacements.
  virtual std::span<const ShardForceInput> ForceInputs() const { return {}; }

  // Capabilities; only Simulation::Validate compares them with Param and
  // the mechanics backend.
  /// Neighbor queries return real neighbors (NullEnvironment's do not).
  virtual bool answers_neighbor_queries() const { return true; }
  /// Queries see minimum-image neighbors under BoundaryMode::kTorus.
  virtual bool supports_torus() const { return false; }
  /// The shard runtime's per-shard CSRs can replace this index without
  /// changing results (true only for the uniform grid).
  virtual bool supports_shards() const { return false; }
};

}  // namespace biosim

#endif  // BIOSIM_SPATIAL_ENVIRONMENT_H_
