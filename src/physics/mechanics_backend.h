// Pluggable backend for the mechanical-interaction operation.
//
// The simulation loop is identical for every variant the paper benchmarks;
// only this backend changes: CPU serial, CPU multithreaded, or one of the
// GPU kernel generations (src/gpu/gpu_mechanical_op.h). The backend sees the
// host-built environment — for the GPU path that is the uniform grid whose
// flat arrays get copied to the device.
#ifndef BIOSIM_PHYSICS_MECHANICS_BACKEND_H_
#define BIOSIM_PHYSICS_MECHANICS_BACKEND_H_

#include "core/param.h"
#include "core/profiler.h"
#include "core/resource_manager.h"
#include "core/thread_pool.h"
#include "physics/mechanical_forces_op.h"
#include "spatial/environment.h"

namespace biosim {

class MechanicsBackend {
 public:
  virtual ~MechanicsBackend() = default;

  /// Compute and apply one step of mechanical interactions. May split its
  /// time into sub-operations on `profile` (e.g. "gpu h2d copy"); the caller
  /// already accounts the whole call under "mechanical forces".
  virtual void Step(ResourceManager& rm, const Environment& env,
                    const Param& param, ExecMode mode, OpProfile* profile) = 0;

  virtual const char* name() const = 0;

  // Capabilities; only Simulation::Validate compares them with Param and
  // the environment.
  /// Step() reads neighbors through the environment's queries.
  virtual bool needs_neighbor_queries() const { return true; }
  /// Implements BoundaryMode::kTorus.
  virtual bool supports_torus() const { return false; }
  /// Runs the sharded pipeline's force pass (Param::num_shards > 0).
  virtual bool supports_shards() const { return false; }
};

/// CPU reference backend wrapping MechanicalForcesOp.
class CpuMechanicsBackend : public MechanicsBackend {
 public:
  void Step(ResourceManager& rm, const Environment& env, const Param& param,
            ExecMode mode, OpProfile* profile) override {
    (void)profile;
    op_.ComputeDisplacements(rm, env, param, mode);
    op_.ApplyDisplacements(rm, param, mode);
  }

  const char* name() const override { return "cpu"; }
  bool supports_torus() const override { return true; }
  bool supports_shards() const override { return true; }

  size_t last_force_evaluations() const { return op_.last_force_evaluations(); }
  const MechanicalForcesOp& op() const { return op_; }
  /// The sharded pipeline drives the op's compute/apply phases itself
  /// (ComputeDisplacementsSharded needs the shard views, not an
  /// Environment), but reuses this op so force-evaluation counters keep
  /// flowing through the accessors above.
  MechanicalForcesOp& mutable_op() { return op_; }

 private:
  MechanicalForcesOp op_;
};

}  // namespace biosim

#endif  // BIOSIM_PHYSICS_MECHANICS_BACKEND_H_
