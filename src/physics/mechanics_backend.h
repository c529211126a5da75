// Pluggable backend for the mechanical-interaction operation.
//
// The simulation loop is identical for every variant the paper benchmarks;
// only this backend changes: CPU serial, CPU multithreaded, or one of the
// GPU kernel generations (src/gpu/gpu_mechanical_op.h). Step() receives the
// environment the pipeline just updated: the uniform grid, the kd-tree, or
// the shard runtime when Param::num_shards > 0. The CPU backend reads it
// through its force windows or its neighbor queries (mechanical_forces_op.h);
// the GPU backend runs beside NullEnvironment and builds its uniform grid on
// the device, so it reads no host index.
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
  /// already accounts the whole call under "mechanical forces", so they are
  /// recorded nested in it.
  virtual void Step(ResourceManager& rm, const Environment& env,
                    const Param& param, ExecMode mode, OpProfile* profile) = 0;

  virtual const char* name() const = 0;

  // Capabilities; only Simulation::Validate compares them with Param and
  // the environment.
  /// Step() reads neighbors through the environment (its force windows or
  /// its queries). A backend that does can run sharded: the shard runtime
  /// answers both.
  virtual bool needs_neighbor_queries() const { return true; }
  /// Implements BoundaryMode::kTorus.
  virtual bool supports_torus() const { return false; }
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

  size_t last_force_evaluations() const { return op_.last_force_evaluations(); }
  const MechanicalForcesOp& op() const { return op_; }

 private:
  MechanicalForcesOp op_;
};

}  // namespace biosim

#endif  // BIOSIM_PHYSICS_MECHANICS_BACKEND_H_
